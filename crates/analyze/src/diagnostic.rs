//! Typed diagnostics with stable lint codes.
//!
//! Every analysis in this crate reports its findings as [`Diagnostic`]s
//! collected into a [`Report`]. Codes are stable strings (`DM-*`) so CI
//! jobs, editors and humans can grep/gate on them; severities follow the
//! usual compiler convention:
//!
//! * [`Severity::Error`] — the configuration is wrong (out of bounds,
//!   misaligned, structurally deadlocked) and *will* misbehave.
//! * [`Severity::Warning`] — legal but predictably slow or risky (avoidable
//!   bank conflicts, mismatched addressing mode, potential hazards).
//! * [`Severity::Info`] — a property worth knowing that needs no action
//!   (e.g. conflicts that no legal addressing mode can remove).

use dm_sim::JsonValue;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: no action needed.
    Info,
    /// Legal but predictably suboptimal or risky.
    Warning,
    /// The configuration is incorrect and must not be run.
    Error,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Stable lint codes. The string form (`DM-…`) is the public contract:
/// tests and CI gates match on it, so variants may be added but existing
/// strings never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LintCode {
    /// Bank conflicts are possible or guaranteed for this configuration.
    BankConflict,
    /// A different legal addressing mode would reduce predicted conflicts.
    ModeMismatch,
    /// The access pattern leaves the scratchpad address space.
    Oob,
    /// A base address, stride or spatial offset is not word-aligned.
    Unaligned,
    /// Structural configuration error (dimension mismatch, overflow, …).
    Config,
    /// A read footprint overlaps a concurrently active write footprint.
    RawHazard,
    /// The channel graph can deadlock (zero capacity, starved port, cycle).
    Deadlock,
    /// The proven utilization roofline is below the near-peak threshold.
    PerfBound,
    /// The steady-state period proof is non-exhaustive (walk was capped).
    PerfPeriod,
}

impl LintCode {
    /// The stable code string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::BankConflict => "DM-BANK-CONFLICT",
            LintCode::ModeMismatch => "DM-MODE-MISMATCH",
            LintCode::Oob => "DM-OOB",
            LintCode::Unaligned => "DM-UNALIGNED",
            LintCode::Config => "DM-CONFIG",
            LintCode::RawHazard => "DM-RAW-HAZARD",
            LintCode::Deadlock => "DM-DEADLOCK",
            LintCode::PerfBound => "DM-PERF-BOUND",
            LintCode::PerfPeriod => "DM-PERF-PERIOD",
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: severity, stable code, the component it concerns (a stream
/// name like `"A"`, or `"system"`), and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// Stable lint code.
    pub code: LintCode,
    /// Which component (stream name or `"system"`) the finding concerns.
    pub component: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Convenience constructor for an error.
    #[must_use]
    pub fn error(code: LintCode, component: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            component: component.into(),
            message: message.into(),
        }
    }

    /// Convenience constructor for a warning.
    #[must_use]
    pub fn warning(
        code: LintCode,
        component: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            component: component.into(),
            message: message.into(),
        }
    }

    /// Convenience constructor for an informational note.
    #[must_use]
    pub fn info(code: LintCode, component: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            code,
            component: component.into(),
            message: message.into(),
        }
    }

    /// JSON form (used by `dm lint --json`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "severity".to_owned(),
                JsonValue::from(self.severity.label()),
            ),
            ("code".to_owned(), JsonValue::from(self.code.as_str())),
            ("component".to_owned(), JsonValue::from(&*self.component)),
            ("message".to_owned(), JsonValue::from(&*self.message)),
        ])
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.component, self.message
        )
    }
}

/// A collection of diagnostics with gate/accounting helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Appends many findings.
    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    /// Number of findings at the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when the report contains at least one error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// `true` if a diagnostic with this code is present.
    #[must_use]
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The exit gate: passes when there are no errors, and (with
    /// `deny_warnings`) no warnings either. Infos never fail the gate.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        !(self.has_errors() || deny_warnings && self.count(Severity::Warning) > 0)
    }

    /// JSON form: an array of diagnostic objects.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(LintCode::BankConflict.as_str(), "DM-BANK-CONFLICT");
        assert_eq!(LintCode::ModeMismatch.as_str(), "DM-MODE-MISMATCH");
        assert_eq!(LintCode::Oob.as_str(), "DM-OOB");
        assert_eq!(LintCode::Unaligned.as_str(), "DM-UNALIGNED");
        assert_eq!(LintCode::Config.as_str(), "DM-CONFIG");
        assert_eq!(LintCode::RawHazard.as_str(), "DM-RAW-HAZARD");
        assert_eq!(LintCode::Deadlock.as_str(), "DM-DEADLOCK");
        assert_eq!(LintCode::PerfBound.as_str(), "DM-PERF-BOUND");
        assert_eq!(LintCode::PerfPeriod.as_str(), "DM-PERF-PERIOD");
    }

    #[test]
    fn gate_semantics() {
        let mut report = Report::new();
        assert!(report.passes(true));
        report.push(Diagnostic::info(LintCode::BankConflict, "A", "note"));
        assert!(report.passes(true), "infos never fail the gate");
        report.push(Diagnostic::warning(LintCode::ModeMismatch, "A", "w"));
        assert!(report.passes(false));
        assert!(!report.passes(true));
        report.push(Diagnostic::error(LintCode::Oob, "B", "e"));
        assert!(!report.passes(false));
        assert!(report.has_errors());
        assert!(report.has_code(LintCode::Oob));
        assert!(!report.has_code(LintCode::Deadlock));
    }

    #[test]
    fn display_is_compiler_style() {
        let d = Diagnostic::error(LintCode::Oob, "A", "max address 4096 beyond capacity 2048");
        assert_eq!(
            d.to_string(),
            "error[DM-OOB] A: max address 4096 beyond capacity 2048"
        );
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
