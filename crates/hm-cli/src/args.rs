//! Minimal flag parser for the CLI (no external dependency: the flag
//! grammar is tiny and a hand-rolled parser keeps the build hermetic).
//!
//! Grammar: `hierminimax <subcommand> [--flag value | --switch]…`.
//! Every flag is `--kebab-case` with exactly zero or one value.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus flag → value pairs (switches map
/// to an empty string).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional argument.
    pub subcommand: String,
    flags: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw argv (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut it = argv.iter().peekable();
        let subcommand = match it.next() {
            Some(s) if !s.starts_with("--") => s.clone(),
            Some(s) => return Err(ArgError(format!("expected a subcommand, got flag {s}"))),
            None => return Err(ArgError("missing subcommand".into())),
        };
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {tok:?}")));
            };
            if name.is_empty() {
                return Err(ArgError("empty flag name".into()));
            }
            // A value is the next token unless it is another flag.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = (*v).clone();
                    it.next();
                    v
                }
                _ => String::new(),
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("duplicate flag --{name}")));
            }
        }
        Ok(Args {
            subcommand,
            flags,
            consumed: Default::default(),
        })
    }

    fn take(&self, name: &str) -> Option<&String> {
        let v = self.flags.get(name);
        if v.is_some() {
            self.consumed.borrow_mut().push(name.to_string());
        }
        v
    }

    /// String flag with a default.
    pub fn str_or(&self, name: &str, default: &str) -> String {
        self.take(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Typed numeric flag with a default.
    ///
    /// # Errors
    /// Fails when the value does not parse.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.take(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// [`Args::num_or`] for a flag the command reads only when `read`;
    /// otherwise the default, and the flag is left to
    /// [`Args::reject_unknown`].
    ///
    /// # Errors
    /// Fails when a read value does not parse.
    pub fn num_if<T: std::str::FromStr>(
        &self,
        read: bool,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        if read {
            self.num_or(name, default)
        } else {
            Ok(default)
        }
    }

    /// Boolean switch: present (with no value or `true`) = true.
    pub fn switch(&self, name: &str) -> bool {
        matches!(self.take(name).map(String::as_str), Some("") | Some("true"))
    }

    /// Error on any flag that no handler consumed — catches typos like
    /// `--ruonds 10` instead of silently ignoring them.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<&String> = self
            .flags
            .keys()
            .filter(|k| !consumed.contains(k))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgError(format!(
                "unknown flag(s): {}",
                unknown
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse(&argv("run --rounds 10 --method hierminimax --trace")).unwrap();
        assert_eq!(a.subcommand, "run");
        assert_eq!(a.num_or("rounds", 0usize).unwrap(), 10);
        assert_eq!(a.str_or("method", ""), "hierminimax");
        assert!(a.switch("trace"));
        assert!(!a.switch("absent"));
        a.reject_unknown().unwrap();
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv("run")).unwrap();
        assert_eq!(a.num_or("rounds", 7usize).unwrap(), 7);
        assert_eq!(a.str_or("method", "hierminimax"), "hierminimax");
    }

    #[test]
    fn missing_subcommand_rejected() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("--rounds 3")).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        let a = Args::parse(&argv("run --rounds banana")).unwrap();
        let err = a.num_or("rounds", 0usize).unwrap_err();
        assert!(err.0.contains("banana"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(Args::parse(&argv("run --x 1 --x 2")).is_err());
    }

    #[test]
    fn unknown_flags_detected() {
        let a = Args::parse(&argv("run --rounds 5 --ruonds 10")).unwrap();
        let _ = a.num_or("rounds", 0usize).unwrap();
        let err = a.reject_unknown().unwrap_err();
        assert!(err.0.contains("--ruonds"), "{err}");
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(Args::parse(&argv("run extra")).is_err());
    }

    #[test]
    fn negative_numbers_parse_as_values() {
        let a = Args::parse(&argv("run --eta -0.5")).unwrap();
        assert_eq!(a.num_or("eta", 0.0_f64).unwrap(), -0.5);
    }
}
