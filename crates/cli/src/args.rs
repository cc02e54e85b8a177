//! A small, dependency-free flag parser: `--key value` pairs plus a
//! leading subcommand and an optional action (`icpda obs report ...`).

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand, an optional second positional
/// ("action", e.g. `report` in `icpda obs report`), plus `--key value`
/// options. Commands that take no action must reject one themselves.
/// `--help` / `-h` anywhere asks for usage and takes no value.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    action: Option<String>,
    options: BTreeMap<String, String>,
    help: bool,
}

/// A parse or validation error, ready to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, a second
    /// bare token (if any) is the action, the rest must be `--key value`
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns an error for a third positional argument, a flag without
    /// a value, or a repeated flag.
    pub fn parse<I, S>(argv: I) -> Result<Self, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut args = Args::default();
        let mut iter = argv.into_iter();
        while let Some(token) = iter.next() {
            let token = token.as_ref();
            if token == "--help" || token == "-h" {
                args.help = true;
            } else if let Some(key) = token.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ParseArgsError(format!("--{key} needs a value")))?;
                if args
                    .options
                    .insert(key.to_string(), value.as_ref().to_string())
                    .is_some()
                {
                    return Err(ParseArgsError(format!("--{key} given twice")));
                }
            } else if args.command.is_none() {
                args.command = Some(token.to_string());
            } else if args.action.is_none() {
                args.action = Some(token.to_string());
            } else {
                return Err(ParseArgsError(format!("unexpected argument '{token}'")));
            }
        }
        Ok(args)
    }

    /// Whether `--help` or `-h` was given.
    #[must_use]
    pub fn help(&self) -> bool {
        self.help
    }

    /// The subcommand, if any.
    #[must_use]
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The action (second positional), if any.
    #[must_use]
    pub fn action(&self) -> Option<&str> {
        self.action.as_deref()
    }

    /// Raw string value of a flag.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ParseArgsError(format!("--{key}: cannot parse '{raw}'"))),
        }
    }

    /// All flags not in `known` (for typo detection).
    #[must_use]
    pub fn unknown_flags(&self, known: &[&str]) -> Vec<String> {
        self.options
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_flags() {
        let args = Args::parse(["run", "--nodes", "400", "--seed", "7"]).unwrap();
        assert_eq!(args.command(), Some("run"));
        assert_eq!(args.get("nodes"), Some("400"));
        assert_eq!(args.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(args.get_or("missing", 3u32).unwrap(), 3);
    }

    #[test]
    fn rejects_flag_without_value() {
        let err = Args::parse(["run", "--nodes"]).unwrap_err();
        assert!(err.0.contains("needs a value"));
    }

    #[test]
    fn rejects_duplicate_flag() {
        let err = Args::parse(["run", "--n", "1", "--n", "2"]).unwrap_err();
        assert!(err.0.contains("twice"));
    }

    #[test]
    fn second_positional_is_the_action() {
        let args = Args::parse(["obs", "report", "--dir", "out"]).unwrap();
        assert_eq!(args.command(), Some("obs"));
        assert_eq!(args.action(), Some("report"));
        assert_eq!(args.get("dir"), Some("out"));
    }

    #[test]
    fn rejects_third_positional() {
        let err = Args::parse(["obs", "report", "again"]).unwrap_err();
        assert!(err.0.contains("unexpected"));
    }

    #[test]
    fn reports_bad_typed_value() {
        let args = Args::parse(["run", "--nodes", "lots"]).unwrap();
        assert!(args.get_or("nodes", 0usize).is_err());
    }

    #[test]
    fn finds_unknown_flags() {
        let args = Args::parse(["run", "--nodes", "1", "--bogus", "x"]).unwrap();
        assert_eq!(args.unknown_flags(&["nodes"]), vec!["bogus".to_string()]);
        assert!(args.unknown_flags(&["nodes", "bogus"]).is_empty());
    }

    #[test]
    fn help_flags_take_no_value() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["run", "--help"],
            &["run", "--nodes", "5", "-h"],
        ] {
            let args = Args::parse(argv).unwrap();
            assert!(args.help(), "{argv:?}");
        }
        let args = Args::parse(["run", "--help"]).unwrap();
        assert_eq!(args.command(), Some("run"));
        assert!(!Args::parse(["run"]).unwrap().help());
    }

    #[test]
    fn empty_argv_is_ok() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args.command(), None);
    }
}
