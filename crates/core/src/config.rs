//! Design-time and runtime configuration of a DataMaestro streamer
//! (Table II of the paper).
//!
//! The split mirrors the hardware: *design-time* parameters choose what gets
//! instantiated (channel count, FIFO depths, AGU dimensionality, datapath
//! extensions) and cannot change afterwards; *runtime* parameters are CSR
//! writes the host performs per workload (base address, loop bounds and
//! strides, addressing mode, extension bypasses).

use dm_mem::AddressingMode;

use crate::error::ConfigError;
use crate::extension::ExtensionKind;

/// Whether a streamer moves data from memory to the accelerator (read) or
/// back (write). The `Mode_{R/W}` design-time parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamerMode {
    /// Memory → accelerator.
    Read,
    /// Accelerator → memory.
    Write,
}

impl std::fmt::Display for StreamerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamerMode::Read => write!(f, "read"),
            StreamerMode::Write => write!(f, "write"),
        }
    }
}

/// Design-time parameters of one DataMaestro instance.
///
/// Construct with [`DesignConfig::builder`]; the defaults match the most
/// common instantiation in the paper's evaluation system (8 channels, depth-8
/// buffers, 3 temporal dimensions, no extensions).
///
/// # Examples
///
/// ```
/// use datamaestro::{DesignConfig, StreamerMode};
///
/// let design = DesignConfig::builder("A", StreamerMode::Read)
///     .spatial_bounds([8])
///     .temporal_dims(6)
///     .data_buffer_depth(16)
///     .build()?;
/// assert_eq!(design.num_channels(), 8);
/// # Ok::<(), datamaestro::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignConfig {
    name: String,
    mode: StreamerMode,
    spatial_bounds: Vec<usize>,
    temporal_dims: usize,
    addr_buffer_depth: usize,
    data_buffer_depth: usize,
    extensions: Vec<ExtensionKind>,
    fine_grained_prefetch: bool,
}

impl DesignConfig {
    /// Starts building a design configuration.
    #[must_use]
    pub fn builder(name: impl Into<String>, mode: StreamerMode) -> DesignConfigBuilder {
        DesignConfigBuilder {
            name: name.into(),
            mode,
            spatial_bounds: vec![8],
            temporal_dims: 3,
            addr_buffer_depth: 8,
            data_buffer_depth: 8,
            extensions: Vec::new(),
            fine_grained_prefetch: true,
        }
    }

    /// Instance name (used in traces and requester registration).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read or write mode.
    #[must_use]
    pub fn mode(&self) -> StreamerMode {
        self.mode
    }

    /// Design-time spatial loop bounds `B_s`.
    #[must_use]
    pub fn spatial_bounds(&self) -> &[usize] {
        &self.spatial_bounds
    }

    /// Number of spatial dimensions `D_s`.
    #[must_use]
    pub fn spatial_dims(&self) -> usize {
        self.spatial_bounds.len()
    }

    /// Number of temporal dimensions `D_t`.
    #[must_use]
    pub fn temporal_dims(&self) -> usize {
        self.temporal_dims
    }

    /// Number of memory channels `N_C` (the product of the spatial bounds:
    /// each spatial address is served by its own channel).
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.spatial_bounds.iter().product()
    }

    /// Address buffer depth `D_ABf` (temporal addresses the AGU may run
    /// ahead).
    #[must_use]
    pub fn addr_buffer_depth(&self) -> usize {
        self.addr_buffer_depth
    }

    /// Per-channel data FIFO depth `D_DBf`.
    #[must_use]
    pub fn data_buffer_depth(&self) -> usize {
        self.data_buffer_depth
    }

    /// Instantiated datapath extensions `DP_ext`, in cascade order.
    #[must_use]
    pub fn extensions(&self) -> &[ExtensionKind] {
        &self.extensions
    }

    /// Whether the MICs issue channels independently (fine-grained prefetch,
    /// §III-C). With this off the streamer degrades to a plain
    /// one-wide-request-at-a-time data movement unit — the paper's ablation
    /// baseline ①.
    #[must_use]
    pub fn fine_grained_prefetch(&self) -> bool {
        self.fine_grained_prefetch
    }
}

/// Builder for [`DesignConfig`].
#[derive(Debug, Clone)]
pub struct DesignConfigBuilder {
    name: String,
    mode: StreamerMode,
    spatial_bounds: Vec<usize>,
    temporal_dims: usize,
    addr_buffer_depth: usize,
    data_buffer_depth: usize,
    extensions: Vec<ExtensionKind>,
    fine_grained_prefetch: bool,
}

impl DesignConfigBuilder {
    /// Sets the spatial loop bounds `B_s` (their product is the channel
    /// count).
    #[must_use]
    pub fn spatial_bounds(mut self, bounds: impl IntoIterator<Item = usize>) -> Self {
        self.spatial_bounds = bounds.into_iter().collect();
        self
    }

    /// Sets the number of temporal dimensions `D_t`.
    #[must_use]
    pub fn temporal_dims(mut self, dims: usize) -> Self {
        self.temporal_dims = dims;
        self
    }

    /// Sets the address buffer depth `D_ABf`.
    #[must_use]
    pub fn addr_buffer_depth(mut self, depth: usize) -> Self {
        self.addr_buffer_depth = depth;
        self
    }

    /// Sets the per-channel data FIFO depth `D_DBf`.
    #[must_use]
    pub fn data_buffer_depth(mut self, depth: usize) -> Self {
        self.data_buffer_depth = depth;
        self
    }

    /// Appends a datapath extension to the cascade.
    #[must_use]
    pub fn extension(mut self, ext: ExtensionKind) -> Self {
        self.extensions.push(ext);
        self
    }

    /// Enables or disables fine-grained (per-channel independent) prefetch.
    #[must_use]
    pub fn fine_grained_prefetch(mut self, enabled: bool) -> Self {
        self.fine_grained_prefetch = enabled;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a bound is zero, the temporal dimension
    /// count is zero, or a buffer depth is zero.
    pub fn build(self) -> Result<DesignConfig, ConfigError> {
        if self.spatial_bounds.is_empty() || self.spatial_bounds.contains(&0) {
            return Err(ConfigError::ZeroBound {
                what: "spatial bounds",
            });
        }
        if self.temporal_dims == 0 {
            return Err(ConfigError::InvalidParameter {
                parameter: "temporal_dims",
                reason: "at least one temporal dimension is required".into(),
            });
        }
        if self.addr_buffer_depth == 0 {
            return Err(ConfigError::InvalidParameter {
                parameter: "addr_buffer_depth",
                reason: "buffer depth must be non-zero".into(),
            });
        }
        if self.data_buffer_depth == 0 {
            return Err(ConfigError::InvalidParameter {
                parameter: "data_buffer_depth",
                reason: "buffer depth must be non-zero".into(),
            });
        }
        Ok(DesignConfig {
            name: self.name,
            mode: self.mode,
            spatial_bounds: self.spatial_bounds,
            temporal_dims: self.temporal_dims,
            addr_buffer_depth: self.addr_buffer_depth,
            data_buffer_depth: self.data_buffer_depth,
            extensions: self.extensions,
            fine_grained_prefetch: self.fine_grained_prefetch,
        })
    }
}

/// Runtime (per-workload) configuration of a DataMaestro instance: the CSR
/// values the host writes before firing the accelerator.
///
/// # Examples
///
/// ```
/// use datamaestro::RuntimeConfig;
/// use dm_mem::AddressingMode;
///
/// let rt = RuntimeConfig::builder()
///     .base(0x1000)
///     .temporal(
///         [8, 4, 4],      // bounds, innermost first
///         [64, 0, 2048],  // byte strides
///     )
///     .spatial_strides([8])
///     .addressing_mode(AddressingMode::FullyInterleaved)
///     .build();
/// assert_eq!(rt.total_temporal_steps(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Base byte address `Addr_B`.
    pub base: u64,
    /// Temporal loop bounds `B_t`, innermost dimension first.
    pub temporal_bounds: Vec<u64>,
    /// Temporal byte strides `S_t`, innermost dimension first (signed:
    /// descending walks are legal affine patterns).
    pub temporal_strides: Vec<i64>,
    /// Spatial byte strides `S_s`, one per spatial dimension.
    pub spatial_strides: Vec<i64>,
    /// Addressing mode selection `R_S`.
    pub addressing_mode: AddressingMode,
    /// Per-extension bypass flags (`true` = bypass). Missing entries default
    /// to *not* bypassed.
    pub extension_bypass: Vec<bool>,
}

impl RuntimeConfig {
    /// Starts building a runtime configuration.
    #[must_use]
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            config: RuntimeConfig {
                base: 0,
                temporal_bounds: vec![1],
                temporal_strides: vec![0],
                spatial_strides: vec![8],
                addressing_mode: AddressingMode::FullyInterleaved,
                extension_bypass: Vec::new(),
            },
        }
    }

    /// Total number of temporal steps (product of the bounds).
    ///
    /// # Panics
    ///
    /// Panics if the product overflows `u64`;
    /// [`validate`](Self::validate) rejects such nests with
    /// [`ConfigError::PatternTooLarge`] before they reach the AGU.
    #[must_use]
    pub fn total_temporal_steps(&self) -> u64 {
        self.checked_total_temporal_steps()
            .expect("temporal bound product overflows u64 (rejected by validate)")
    }

    /// Total number of temporal steps, or `None` when the product of the
    /// bounds overflows `u64` (a nest that could never complete).
    #[must_use]
    pub fn checked_total_temporal_steps(&self) -> Option<u64> {
        self.temporal_bounds
            .iter()
            .try_fold(1u64, |acc, &bound| acc.checked_mul(bound))
    }

    /// Validates this runtime configuration against a design.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when list lengths do not match the design's
    /// dimensionality, a temporal bound is zero, or the temporal bound
    /// product overflows `u64`. (Runtime dimensionality
    /// may be *smaller* than the design's `D_t`: unused outer dimensions are
    /// simply left at bound 1, exactly as unused CSRs are in hardware.)
    pub fn validate(&self, design: &DesignConfig) -> Result<(), ConfigError> {
        if self.temporal_bounds.len() != self.temporal_strides.len() {
            return Err(ConfigError::DimensionMismatch {
                what: "temporal strides",
                expected: self.temporal_bounds.len(),
                got: self.temporal_strides.len(),
            });
        }
        if self.temporal_bounds.len() > design.temporal_dims() {
            return Err(ConfigError::DimensionMismatch {
                what: "temporal bounds",
                expected: design.temporal_dims(),
                got: self.temporal_bounds.len(),
            });
        }
        if self.temporal_bounds.contains(&0) {
            return Err(ConfigError::ZeroBound {
                what: "temporal bounds",
            });
        }
        if self.checked_total_temporal_steps().is_none() {
            return Err(ConfigError::PatternTooLarge {
                what: "temporal bounds",
            });
        }
        if self.spatial_strides.len() != design.spatial_dims() {
            return Err(ConfigError::DimensionMismatch {
                what: "spatial strides",
                expected: design.spatial_dims(),
                got: self.spatial_strides.len(),
            });
        }
        if self.extension_bypass.len() > design.extensions().len() {
            return Err(ConfigError::DimensionMismatch {
                what: "extension bypass flags",
                expected: design.extensions().len(),
                got: self.extension_bypass.len(),
            });
        }
        Ok(())
    }
}

/// Builder for [`RuntimeConfig`].
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the base byte address.
    #[must_use]
    pub fn base(mut self, base: u64) -> Self {
        self.config.base = base;
        self
    }

    /// Sets the temporal bounds and strides together (innermost first).
    #[must_use]
    pub fn temporal(
        mut self,
        bounds: impl IntoIterator<Item = u64>,
        strides: impl IntoIterator<Item = i64>,
    ) -> Self {
        self.config.temporal_bounds = bounds.into_iter().collect();
        self.config.temporal_strides = strides.into_iter().collect();
        self
    }

    /// Sets the spatial strides.
    #[must_use]
    pub fn spatial_strides(mut self, strides: impl IntoIterator<Item = i64>) -> Self {
        self.config.spatial_strides = strides.into_iter().collect();
        self
    }

    /// Sets the addressing mode (`R_S`).
    #[must_use]
    pub fn addressing_mode(mut self, mode: AddressingMode) -> Self {
        self.config.addressing_mode = mode;
        self
    }

    /// Sets per-extension bypass flags.
    #[must_use]
    pub fn extension_bypass(mut self, bypass: impl IntoIterator<Item = bool>) -> Self {
        self.config.extension_bypass = bypass.into_iter().collect();
        self
    }

    /// Finishes building. Structural validation happens when the config is
    /// bound to a design via [`RuntimeConfig::validate`].
    #[must_use]
    pub fn build(self) -> RuntimeConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> DesignConfig {
        DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([2, 4])
            .temporal_dims(3)
            .build()
            .unwrap()
    }

    #[test]
    fn channel_count_is_spatial_product() {
        assert_eq!(design().num_channels(), 8);
        assert_eq!(design().spatial_dims(), 2);
    }

    #[test]
    fn builder_defaults_are_sane() {
        let d = DesignConfig::builder("x", StreamerMode::Write)
            .build()
            .unwrap();
        assert_eq!(d.num_channels(), 8);
        assert_eq!(d.temporal_dims(), 3);
        assert_eq!(d.addr_buffer_depth(), 8);
        assert_eq!(d.data_buffer_depth(), 8);
        assert!(d.extensions().is_empty());
        assert!(d.fine_grained_prefetch());
        assert_eq!(d.mode(), StreamerMode::Write);
        assert_eq!(d.name(), "x");
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(DesignConfig::builder("x", StreamerMode::Read)
            .spatial_bounds([4, 0])
            .build()
            .is_err());
        assert!(DesignConfig::builder("x", StreamerMode::Read)
            .temporal_dims(0)
            .build()
            .is_err());
        assert!(DesignConfig::builder("x", StreamerMode::Read)
            .addr_buffer_depth(0)
            .build()
            .is_err());
        assert!(DesignConfig::builder("x", StreamerMode::Read)
            .data_buffer_depth(0)
            .build()
            .is_err());
    }

    #[test]
    fn runtime_validation_checks_lengths() {
        let d = design();
        let ok = RuntimeConfig::builder()
            .temporal([4, 4], [8, 32])
            .spatial_strides([8, 16])
            .build();
        assert!(ok.validate(&d).is_ok());

        let too_many_dims = RuntimeConfig::builder()
            .temporal([2, 2, 2, 2], [1, 2, 3, 4])
            .spatial_strides([8, 16])
            .build();
        assert!(matches!(
            too_many_dims.validate(&d),
            Err(ConfigError::DimensionMismatch { .. })
        ));

        let mismatched_strides = RuntimeConfig::builder()
            .temporal([2, 2], [1])
            .spatial_strides([8, 16])
            .build();
        assert!(mismatched_strides.validate(&d).is_err());

        let zero_bound = RuntimeConfig::builder()
            .temporal([2, 0], [1, 1])
            .spatial_strides([8, 16])
            .build();
        assert!(matches!(
            zero_bound.validate(&d),
            Err(ConfigError::ZeroBound { .. })
        ));

        let wrong_spatial = RuntimeConfig::builder()
            .temporal([2], [1])
            .spatial_strides([8])
            .build();
        assert!(wrong_spatial.validate(&d).is_err());
    }

    #[test]
    fn fewer_runtime_dims_than_design_is_allowed() {
        let d = design();
        let rt = RuntimeConfig::builder()
            .temporal([16], [64])
            .spatial_strides([8, 16])
            .build();
        assert!(rt.validate(&d).is_ok());
        assert_eq!(rt.total_temporal_steps(), 16);
    }

    #[test]
    fn bypass_defaults_to_false() {
        let rt = RuntimeConfig::builder().build();
        assert!(rt.extension_bypass.is_empty());
        let rt = RuntimeConfig::builder().extension_bypass([true]).build();
        assert_eq!(rt.extension_bypass, [true]);
    }

    #[test]
    fn total_steps_is_bound_product() {
        let rt = RuntimeConfig::builder()
            .temporal([3, 5, 2], [1, 1, 1])
            .build();
        assert_eq!(rt.total_temporal_steps(), 30);
    }

    #[test]
    fn overflowing_nest_is_rejected_not_wrapped() {
        // 2^32 · 2^32 · 2 overflows u64; an unchecked product would wrap to
        // zero and make the AGU report itself done before the first step.
        let rt = RuntimeConfig::builder()
            .temporal([1 << 32, 1 << 32, 2], [1, 1, 1])
            .spatial_strides([8, 16])
            .build();
        assert_eq!(rt.checked_total_temporal_steps(), None);
        assert!(matches!(
            rt.validate(&design()),
            Err(ConfigError::PatternTooLarge {
                what: "temporal bounds"
            })
        ));
        // A maximal-but-representable nest still validates.
        let rt = RuntimeConfig::builder()
            .temporal([1 << 32, 1 << 31], [1, 1])
            .spatial_strides([8, 16])
            .build();
        assert_eq!(rt.checked_total_temporal_steps(), Some(1 << 63));
        assert!(rt.validate(&design()).is_ok());
    }

    #[test]
    fn mode_display() {
        assert_eq!(StreamerMode::Read.to_string(), "read");
        assert_eq!(StreamerMode::Write.to_string(), "write");
    }
}
