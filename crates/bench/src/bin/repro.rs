//! Regenerates the paper's tables and figures (see EXPERIMENTS.md):
//!
//! ```text
//! repro <name|all> [--quick | --full] [--train N] [--test N] [--epochs N]
//!                  [--seeds N] [--eval N]
//! ```
//!
//! `<name>` is one entry of [`EXPERIMENTS`] and writes
//! `target/experiments/<name>.txt`; `all` runs every entry in turn, carries
//! on past a failing one and then exits non-zero if any failed. An unknown
//! name prints the list and exits with code 2, and so does a scale value
//! that does not parse (after naming the flag or variable).
//!
//! Set `IBRAR_LOG` / `IBRAR_TELEMETRY` to capture telemetry (see README
//! "Observability"); a run manifest is written next to each output table.

use ibrar_bench::experiments::{
    fig2, fig3, fig4, fig5, fig6, table1, table2, table3, table4, table5, table6, table_vib,
};
use ibrar_bench::{run_binary, ExpResult, Scale, SCALE_FLAGS};

type Runner = fn(&Scale) -> ExpResult<String>;

/// Every experiment, in the order `repro all` runs them.
const EXPERIMENTS: [(&str, Runner); 12] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("table_vib", table_vib::run),
];

fn main() -> ExpResult<()> {
    let scale = Scale::from_args("repro <name|all>");
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        eprintln!("[repro all] running at {scale:?}");
        let total = std::time::Instant::now();
        let mut failed = Vec::new();
        for (name, run) in EXPERIMENTS {
            eprintln!("=== {name} ===");
            if let Err(e) = run_binary(name, &scale, run) {
                eprintln!("[{name}] FAILED: {e}");
                failed.push(name);
            }
        }
        eprintln!("[repro all] total {:.1?}", total.elapsed());
        return if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("failed: {}", failed.join(", ")).into())
        };
    }
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some(&(name, run)) => run_binary(name, &scale, run),
        None => {
            eprintln!("usage: repro <name|all> {SCALE_FLAGS}");
            eprintln!("experiments: {}", EXPERIMENTS.map(|(n, _)| n).join(" "));
            std::process::exit(2);
        }
    }
}
