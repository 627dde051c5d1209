//! Experiment harness for the IB-RAR reproduction.
//!
//! Every table and figure of the paper maps to a module under
//! [`experiments`]; the `repro <name|all>` binary prints its paper-style
//! rows (and writes them to `target/experiments/`). The [`Scale`] type lets
//! each experiment run at `--quick` smoke-test scale, the default laptop
//! scale, or `--full` scale with seed averaging. The [`perf`] module holds
//! the timed workloads and the report behind the `perf_report` and
//! `loadgen` binaries.

pub mod experiments;
mod harness;
pub mod perf;
mod scale;

pub use harness::{
    attack_row, attack_suite, eval_model, output_dir, run_binary, scaled_method, train_and_eval,
    write_output, Arch, EvalResult,
};
pub use scale::{Scale, SCALE_FLAGS};

/// Experiment-level result alias (boxed error for binary `main`s).
pub type ExpResult<T> = Result<T, Box<dyn std::error::Error>>;
