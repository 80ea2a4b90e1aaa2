//! Strict command-line parsing: an unknown flag, a repeated flag, a
//! missing value or a value that does not parse is a named error, never
//! a silent default.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Par(2)` engine, 20k-NE steady churn with crashes.
    ChurnPar2,
    /// Live reactor, closed-loop queries with joins and leaves.
    LiveMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::ChurnPar2, Workload::LiveMixed];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnPar2 => "churn_par2",
            Workload::LiveMixed => "live_mixed",
        }
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured time budget of one run, in seconds.
    pub seconds: u64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

/// A command-line error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag the benchmark does not know.
    UnknownFlag(String),
    /// A flag given more than once.
    Repeated(&'static str),
    /// A flag with no value after it.
    MissingValue(&'static str),
    /// A value that does not parse for its flag.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required flag that was not given.
    Missing(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::Repeated(flag) => write!(f, "flag `{flag}` given more than once"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "bad value `{value}` for `{flag}`: expected {expected}")
            }
            CliError::Missing(flag) => write!(f, "required flag `{flag}` is missing"),
        }
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "usage: rgb-benchmark --workload <churn_par2|live_mixed> \
                         --seed <u64> [--seconds <1..=600>] [--trace <0|1>]";

const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, CliError> {
    let mut values: [Option<&str>; 4] = [None; 4];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // `--flag=value` and `--flag value` are both accepted.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (arg.as_str(), None),
        };
        let Some(slot) = FLAGS.iter().position(|&f| f == flag) else {
            return Err(CliError::UnknownFlag(arg.clone()));
        };
        let name = FLAGS[slot];
        if values[slot].is_some() {
            return Err(CliError::Repeated(name));
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().map(String::as_str).ok_or(CliError::MissingValue(name))?,
        };
        if value.is_empty() || (inline.is_none() && value.starts_with("--")) {
            return Err(CliError::MissingValue(name));
        }
        values[slot] = Some(value);
    }
    let bad = |flag: &'static str, value: &str, expected: &'static str| CliError::BadValue {
        flag,
        value: value.to_string(),
        expected,
    };
    let workload = values[0].ok_or(CliError::Missing("--workload"))?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| bad("--workload", workload, "churn_par2 or live_mixed"))?;
    let seed = values[1].ok_or(CliError::Missing("--seed"))?;
    let seed =
        seed.parse::<u64>().map_err(|_| bad("--seed", seed, "an unsigned 64-bit integer"))?;
    let seconds = match values[2] {
        None => 15,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if (1..=600).contains(&n) => n,
            _ => return Err(bad("--seconds", s, "a whole number from 1 to 600")),
        },
    };
    let trace = match values[3] {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(bad("--trace", t, "0 or 1")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_form() {
        let a = parse(&args("--workload churn_par2 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::ChurnPar2, seed: 7, seconds: 10, trace: true });
        let b = parse(&args("--trace=0 --seed=3 --workload=live_mixed")).unwrap();
        assert_eq!(b, Args { workload: Workload::LiveMixed, seed: 3, seconds: 15, trace: false });
    }

    #[test]
    fn rejects_unknown_flags_and_typos() {
        let e = parse(&args("--workload churn_par2 --seed 1 --secnds 5")).unwrap_err();
        assert_eq!(e, CliError::UnknownFlag("--secnds".into()));
        let e = parse(&args("--workload churn_par2 --seed 1 extra")).unwrap_err();
        assert_eq!(e, CliError::UnknownFlag("extra".into()));
        assert!(e.to_string().contains("unknown flag"));
    }

    #[test]
    fn rejects_unparsable_values_by_name() {
        for (line, flag) in [
            ("--workload flash_crowd --seed 1", "--workload"),
            ("--workload churn_par2 --seed -1", "--seed"),
            ("--workload churn_par2 --seed 1x", "--seed"),
            ("--workload churn_par2 --seed 1 --seconds 0", "--seconds"),
            ("--workload churn_par2 --seed 1 --seconds ten", "--seconds"),
            ("--workload churn_par2 --seed 1 --trace yes", "--trace"),
        ] {
            match parse(&args(line)) {
                Err(CliError::BadValue { flag: f, .. }) => assert_eq!(f, flag, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_missing_repeated_and_valueless_flags() {
        assert_eq!(parse(&args("--seed 1")), Err(CliError::Missing("--workload")));
        assert_eq!(parse(&args("--workload live_mixed")), Err(CliError::Missing("--seed")));
        assert_eq!(
            parse(&args("--workload live_mixed --seed 1 --seed 2")),
            Err(CliError::Repeated("--seed"))
        );
        assert_eq!(
            parse(&args("--workload live_mixed --seed")),
            Err(CliError::MissingValue("--seed"))
        );
        assert_eq!(parse(&args("--workload --seed 1")), Err(CliError::MissingValue("--workload")));
    }
}
