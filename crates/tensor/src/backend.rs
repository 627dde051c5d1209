//! The name of the one kernel path. Nothing is selected here: the
//! repository benchmark and the perf report record `current().name()` in
//! their run headers, and this stub keeps that field reading `"tuned"`.

/// The tuned kernel path, the only one.
#[derive(Debug, Clone, Copy)]
pub struct Tuned;

impl Tuned {
    /// Always `"tuned"`.
    pub fn name(&self) -> &'static str {
        "tuned"
    }
}

/// Kept only because run headers record `current().name()`.
pub fn current() -> Tuned {
    Tuned
}
