//! Experiment sizing.

/// The scale flags every experiment bin accepts, as a usage fragment.
pub const SCALE_FLAGS: &str =
    "[--quick | --full] [--train N] [--test N] [--epochs N] [--seeds N] [--eval N]";

/// How big an experiment run is.
///
/// Parsed from CLI args (`--quick`, `--full`, `--train N`, `--epochs N`,
/// `--seeds N`) with environment-variable fallbacks (`IBRAR_SCALE`,
/// `IBRAR_EPOCHS`, …). A value that does not parse is an error, never a
/// silent fall-back to the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Training-set size.
    pub train: usize,
    /// Test-set size.
    pub test: usize,
    /// Test samples used for adversarial evaluation.
    pub eval: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Inner PGD steps during adversarial training.
    pub at_steps: usize,
    /// CW optimization steps at evaluation time.
    pub cw_steps: usize,
    /// Number of seeds to average.
    pub seeds: usize,
    /// Mini-batch size.
    pub batch: usize,
}

impl Scale {
    /// Smoke-test scale: seconds per experiment.
    pub fn quick() -> Self {
        Scale {
            train: 192,
            test: 96,
            eval: 48,
            epochs: 2,
            at_steps: 2,
            cw_steps: 8,
            seeds: 1,
            batch: 32,
        }
    }

    /// Default laptop scale: minutes per experiment.
    pub fn default_scale() -> Self {
        Scale {
            train: 512,
            test: 192,
            eval: 64,
            epochs: 10,
            at_steps: 4,
            cw_steps: 20,
            seeds: 1,
            batch: 32,
        }
    }

    /// Full scale with seed averaging (the paper averages 3 runs).
    pub fn full() -> Self {
        Scale {
            train: 1536,
            test: 384,
            eval: 160,
            epochs: 15,
            at_steps: 7,
            cw_steps: 40,
            seeds: 3,
            batch: 32,
        }
    }

    /// Parses `std::env::args` plus environment fallbacks. On a value that
    /// does not parse it prints the error and `usage: <command> [scale
    /// flags]`, then exits with code 2. Unknown flags are left to the caller.
    pub fn from_args(command: &str) -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args, |k| std::env::var(k).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: {command} {SCALE_FLAGS}");
            std::process::exit(2);
        })
    }

    /// Pure parser (tested without touching the real environment). A count
    /// flag (`--train N`, …) wins over its environment variable; unknown
    /// flags are ignored.
    ///
    /// # Errors
    ///
    /// Names the flag or variable whose value does not parse: a count that
    /// is not a whole number, a trailing flag with no value, or an
    /// `IBRAR_SCALE` other than `quick` or `full`.
    pub fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut scale = match env("IBRAR_SCALE").as_deref() {
            None => Scale::default_scale(),
            Some("quick") => Scale::quick(),
            Some("full") => Scale::full(),
            Some(other) => {
                return Err(format!(
                    "IBRAR_SCALE must be `quick` or `full`, got `{other}`"
                ))
            }
        };
        if args.iter().any(|a| a == "--quick") {
            scale = Scale::quick();
        }
        if args.iter().any(|a| a == "--full") {
            scale = Scale::full();
        }
        let get = |flag: &str, env_key: &str| -> Result<Option<usize>, String> {
            let (source, value) = match args.iter().position(|a| a == flag) {
                Some(pos) => (flag, args.get(pos + 1).cloned()),
                None => match env(env_key) {
                    Some(v) => (env_key, Some(v)),
                    None => return Ok(None),
                },
            };
            let value = value.ok_or_else(|| format!("{source} expects a whole number"))?;
            match value.parse() {
                Ok(v) => Ok(Some(v)),
                Err(_) => Err(format!("{source} expects a whole number, got `{value}`")),
            }
        };
        if let Some(v) = get("--train", "IBRAR_TRAIN")? {
            scale.train = v.max(16);
        }
        if let Some(v) = get("--test", "IBRAR_TEST")? {
            scale.test = v.max(16);
            scale.eval = scale.eval.min(scale.test);
        }
        if let Some(v) = get("--epochs", "IBRAR_EPOCHS")? {
            scale.epochs = v.max(1);
        }
        if let Some(v) = get("--seeds", "IBRAR_SEEDS")? {
            scale.seeds = v.max(1);
        }
        if let Some(v) = get("--eval", "IBRAR_EVAL")? {
            scale.eval = v.max(8);
        }
        Ok(scale)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn default_without_flags() {
        let s = Scale::parse(&[], no_env).unwrap();
        assert_eq!(s, Scale::default_scale());
    }

    #[test]
    fn quick_flag_wins() {
        let args = vec!["bin".to_string(), "--quick".to_string()];
        assert_eq!(Scale::parse(&args, no_env).unwrap(), Scale::quick());
    }

    #[test]
    fn explicit_overrides_apply() {
        let args: Vec<String> = ["bin", "--quick", "--epochs", "5", "--train", "64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = Scale::parse(&args, no_env).unwrap();
        assert_eq!(s.epochs, 5);
        assert_eq!(s.train, 64);
        assert_eq!(s.batch, Scale::quick().batch);
    }

    #[test]
    fn env_scale_respected() {
        let s = Scale::parse(&[], |k| (k == "IBRAR_SCALE").then(|| "full".to_string())).unwrap();
        assert_eq!(s, Scale::full());
    }

    #[test]
    fn floors_enforced() {
        let args: Vec<String> = ["bin", "--epochs", "0", "--train", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = Scale::parse(&args, no_env).unwrap();
        assert_eq!(s.epochs, 1);
        assert_eq!(s.train, 16);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unparseable_flag_value_is_an_error() {
        let err = Scale::parse(&args(&["repro", "table1", "--epochs", "5x"]), no_env).unwrap_err();
        assert!(err.contains("--epochs") && err.contains("5x"), "{err}");
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        let err = Scale::parse(&args(&["repro", "table1", "--train"]), no_env).unwrap_err();
        assert!(err.contains("--train"), "{err}");
    }

    #[test]
    fn unparseable_env_count_is_an_error() {
        let env = |k: &str| (k == "IBRAR_EPOCHS").then(|| "x".to_string());
        let err = Scale::parse(&args(&["repro", "table1"]), env).unwrap_err();
        assert!(err.contains("IBRAR_EPOCHS"), "{err}");
    }

    #[test]
    fn unknown_env_scale_is_an_error() {
        let env = |k: &str| (k == "IBRAR_SCALE").then(|| "fast".to_string());
        let err = Scale::parse(&args(&["repro", "table1"]), env).unwrap_err();
        assert!(err.contains("IBRAR_SCALE") && err.contains("fast"), "{err}");
    }
}
