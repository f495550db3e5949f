//! A deliberately tiny `--flag value` argument parser.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a command word plus `--key value` options and
/// boolean `--switch`es.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// CLI-level errors (parse failures and command failures).
#[derive(Debug)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unrecognized subcommand.
    UnknownCommand(String),
    /// A `--flag` at the end of the line with no value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// An underlying framework operation failed.
    Framework(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => {
                write!(f, "no command given — try `cdsf help`")
            }
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` — try `cdsf help`")
            }
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue { flag, value } => {
                write!(f, "could not parse `{value}` for flag `{flag}`")
            }
            CliError::Framework(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--json"];

impl Args {
    /// Parses `raw` (excluding the program name).
    pub fn parse(raw: Vec<String>) -> Result<Self, CliError> {
        let mut iter = raw.into_iter();
        let command = iter.next().ok_or(CliError::MissingCommand)?;
        let mut options = BTreeMap::new();
        let mut switches = Vec::new();
        let mut iter = iter.peekable();
        while let Some(arg) = iter.next() {
            if SWITCHES.contains(&arg.as_str()) {
                switches.push(arg.trim_start_matches("--").to_string());
            } else if let Some(key) = arg.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::MissingValue(arg.clone()))?;
                options.insert(key.to_string(), value);
            } else {
                return Err(CliError::UnknownCommand(arg));
            }
        }
        Ok(Self {
            command,
            options,
            switches,
        })
    }

    /// Whether `--json` was passed.
    pub fn json(&self) -> bool {
        self.switches.iter().any(|s| s == "json")
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                flag: format!("--{key}"),
                value: v.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, CliError> {
        Args::parse(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("scenarios --replicates 50 --dwell 300 --json").unwrap();
        assert_eq!(a.command, "scenarios");
        assert_eq!(a.get("replicates"), Some("50"));
        assert_eq!(a.get_parsed("dwell", 0.0).unwrap(), 300.0);
        assert!(a.json());
    }

    #[test]
    fn defaults_apply() {
        let a = parse("stage1").unwrap();
        assert_eq!(a.get_parsed("pulses", 64usize).unwrap(), 64);
        assert!(!a.json());
    }

    #[test]
    fn rejects_missing_command() {
        assert!(matches!(parse(""), Err(CliError::MissingCommand)));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(matches!(
            parse("stage1 --pulses"),
            Err(CliError::MissingValue(_))
        ));
    }

    #[test]
    fn rejects_bad_value() {
        let a = parse("stage1 --pulses abc").unwrap();
        assert!(matches!(
            a.get_parsed::<usize>("pulses", 1),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_stray_positional() {
        assert!(matches!(
            parse("stage1 oops"),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let a = parse("generate --apps 4 --seed 1 --apps 9").unwrap();
        assert_eq!(a.get("apps"), Some("9"));
        assert_eq!(a.get("seed"), Some("1"));
        assert_eq!(a.get("types"), None);
    }

    #[test]
    fn every_error_displays_its_payload() {
        let bad = parse("stage1 --pulses abc")
            .unwrap()
            .get_parsed::<usize>("pulses", 1)
            .unwrap_err();
        assert_eq!(bad.to_string(), "could not parse `abc` for flag `--pulses`");
        let cases = [
            (CliError::MissingCommand, "cdsf help"),
            (CliError::UnknownCommand("frobnicate".into()), "frobnicate"),
            (CliError::MissingValue("--seed".into()), "--seed"),
            (CliError::Framework("bind failed".into()), "bind failed"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
