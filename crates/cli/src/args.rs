//! Minimal `--flag value` argument parsing (no external crates).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command line: a subcommand path and `--key value` flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Positional words before the first `--flag`.
    pub command: Vec<String>,
    flags: HashMap<String, String>,
    /// Every flag name a command has looked up, given or not.
    read: RefCell<HashSet<String>>,
}

/// Errors from argument parsing or lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` had no following value.
    MissingValue(String),
    /// A required flag was absent.
    Required(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value supplied.
        value: String,
        /// What it should have been.
        expected: &'static str,
    },
    /// The same flag appeared twice.
    Duplicate(String),
    /// A flag the command never read.
    Unread(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} {value:?}: expected {expected}"),
            ArgError::Duplicate(k) => write!(f, "flag --{k} given twice"),
            ArgError::Unread(k) => write!(f, "unknown flag --{k} for this command"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments (without the program name). Every `--flag`
    /// takes a value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut command = Vec::new();
        let mut flags = HashMap::new();
        let mut it = raw.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                if flags.insert(name.to_string(), value).is_some() {
                    return Err(ArgError::Duplicate(name.to_string()));
                }
            } else {
                command.push(tok);
            }
        }
        let read = RefCell::default();
        Ok(Args {
            command,
            flags,
            read,
        })
    }

    /// A string flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Fails on the first given flag (in name order) that nothing has
    /// looked up: a misspelt or unsupported flag would otherwise be
    /// silently ignored.
    pub fn check_all_read(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        let unread = self.flags.keys().filter(|k| !read.contains(*k)).min();
        unread.map_or(Ok(()), |k| Err(ArgError::Unread(k.clone())))
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError::Required(name.into()))
    }

    /// A numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: name.into(),
                value: v.into(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A required numeric flag.
    pub fn num_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self.require(name)?;
        v.parse().map_err(|_| ArgError::BadValue {
            flag: name.into(),
            value: v.into(),
            expected: std::any::type_name::<T>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn commands_and_flags() {
        let a = parse("trace gen --users 4 --out x.csv").unwrap();
        assert_eq!(a.command, vec!["trace", "gen"]);
        assert_eq!(a.get("users"), Some("4"));
        assert_eq!(a.get("out"), Some("x.csv"));
        assert_eq!(a.get("nope"), None);
    }

    #[test]
    fn numeric_parsing_and_defaults() {
        let a = parse("sim --wan-mbps 12.5").unwrap();
        assert_eq!(a.num("wan-mbps", 50.0).unwrap(), 12.5);
        assert_eq!(a.num("access-mbps", 400.0).unwrap(), 400.0);
        assert!(a.num::<u32>("wan-mbps", 1).is_err());
    }

    #[test]
    fn missing_value_detected() {
        assert_eq!(
            parse("sim --wan-mbps").unwrap_err(),
            ArgError::MissingValue("wan-mbps".into())
        );
    }

    #[test]
    fn duplicates_detected() {
        assert_eq!(
            parse("x --a 1 --a 2").unwrap_err(),
            ArgError::Duplicate("a".into())
        );
    }

    #[test]
    fn required_flags() {
        let a = parse("x").unwrap();
        assert_eq!(
            a.require("out").unwrap_err(),
            ArgError::Required("out".into())
        );
        assert!(a.num_required::<u64>("n").is_err());
    }
}
