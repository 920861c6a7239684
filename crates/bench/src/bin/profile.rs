//! The causal bottleneck profiler CLI.
//!
//! ```text
//! dm-profile run  [--step <1..6>] [--full|--quick] [--jobs <n>]
//!                 [--latency <cycles>] [--no-fast-forward]
//!                 [--json] [--out <path>]
//! dm-profile diff [--allow-mismatch] <old.json> <new.json>
//! ```
//!
//! `run` simulates the Fig. 7 ablation slice at one feature step (default
//! ⑥, fully featured) and prints where the stalled cycles went: which
//! banks, AGUs, sync gates or the writeback flush each cycle was ultimately
//! waiting on, segmented into fill/steady/drain phases. `--json` emits the
//! canonical document instead (to stdout, or to `--out <path>`); it is
//! byte-identical for any `--jobs` count and with fast-forward on or off,
//! which CI exploits as a determinism gate. Every run's causal ledger is
//! re-checked against the run's cycle counters; a violation exits non-zero.
//!
//! `diff` compares two documents — typically adjacent ablation steps — and
//! names the dominant blame shift. The canonical demonstration is FIMA
//! placement (step ⑤) against bank-aware remapping (step ⑥), where
//! bank-conflict blame collapses. Cross-latency documents are refused
//! unless `--allow-mismatch` is given — latency-sweep comparisons (the
//! Fig. 7(a) axis) are then possible, behind a loud warning banner.

use dm_bench::{cli, profile};

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!(
        "  dm-profile run  [--step <1..6>] [--full|--quick] [--jobs <n>]\n\
         \x20                [--latency <cycles>] [--no-fast-forward]\n\
         \x20                [--json] [--out <path>]"
    );
    eprintln!("  dm-profile diff [--allow-mismatch] <old.json> <new.json>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("diff") => diff(&args[1..]),
        _ => usage(),
    }
}

fn run(args: &[String]) {
    let flags = cli::parse_run_flags(args, true).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    let opts = profile::ProfileOptions {
        step: flags.step,
        full: flags.full,
        jobs: flags.jobs,
        fast_forward: flags.fast_forward,
        read_latency: flags.read_latency,
    };
    let doc = profile::profile_document(&opts, |msg| eprintln!("  {msg}")).unwrap_or_else(|e| {
        eprintln!("dm-profile: {e}");
        std::process::exit(1);
    });
    cli::emit_document(&flags, "profile", &doc, profile::render);
}

fn diff(args: &[String]) {
    let (allow_mismatch, old_path, new_path) = cli::parse_diff_flags(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    let outcome = profile::diff(
        &cli::load_json(&old_path),
        &cli::load_json(&new_path),
        allow_mismatch,
    )
    .unwrap_or_else(|e| {
        eprintln!("dm-profile diff: {e}");
        std::process::exit(1);
    });
    print!("{}", profile::render_diff(&outcome, &old_path, &new_path));
}
