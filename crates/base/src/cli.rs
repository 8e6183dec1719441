//! The one command-line reader every binary shares.
//!
//! A binary keeps its own flag table, `--help` text and range checks; this
//! module owns the rest: walking the process arguments, noticing a flag
//! whose value is missing, turning a value into a typed one, and the
//! failure contract — a usage error is one `<bin>: <message>` line on
//! stderr and exit code 2, never a panic.
//!
//! ```no_run
//! use cip_base::cli::{self, Argv, UsageError};
//!
//! fn parse(argv: &mut Argv) -> Result<(usize, String), UsageError> {
//!     let (mut k, mut out) = (8, "results".to_string());
//!     while let Some(flag) = argv.next_flag() {
//!         match flag.as_str() {
//!             "--k" => k = argv.integer(&flag)?,
//!             "--out" => out = argv.value(&flag)?,
//!             _ => return Err(cli::unknown(&flag, "try --help")),
//!         }
//!     }
//!     Ok((k, out))
//! }
//!
//! let (k, out) = cli::parse(parse);
//! ```

use std::fmt::{self, Display};
use std::str::FromStr;

/// What a binary prints after `<bin>: ` when its command line is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for UsageError {
    fn from(message: &str) -> Self {
        Self(message.to_string())
    }
}

/// The arguments after the program name, front to back.
#[derive(Debug)]
pub struct Argv {
    rest: std::vec::IntoIter<String>,
}

impl Argv {
    /// A reader over `args` (the program name excluded).
    pub fn new(args: Vec<String>) -> Self {
        Self { rest: args.into_iter() }
    }

    /// The next flag, or `None` once every argument is read.
    pub fn next_flag(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value that follows `flag`; a flag that ends the command line
    /// has none.
    pub fn value(&mut self, flag: &str) -> Result<String, UsageError> {
        self.rest.next().ok_or_else(|| UsageError(format!("'{flag}' needs a value")))
    }

    /// The value of `flag` through `parse`: a value it refuses is
    /// `"{flag} takes {what}, got '{value}'"`.
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, UsageError> {
        let raw = self.value(flag)?;
        parse(&raw).ok_or_else(|| UsageError(format!("{flag} takes {what}, got '{raw}'")))
    }

    /// The value of `flag` as an integer.
    pub fn integer<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        self.parse_with(flag, "an integer", |v| v.parse().ok())
    }
}

/// The error for a flag the binary does not know; `hint` says where to
/// look instead.
pub fn unknown(flag: &str, hint: &str) -> UsageError {
    UsageError(format!("unknown argument '{flag}' ({hint})"))
}

/// Runs `parse` over the process arguments; its error is a usage error
/// ([`fail`]).
pub fn parse<T>(parse: impl FnOnce(&mut Argv) -> Result<T, UsageError>) -> T {
    let (_, args) = process_args();
    parse(&mut Argv::new(args)).unwrap_or_else(|e| fail(e))
}

/// A usage error: `<bin>: <message>` on stderr, then exit code 2.
pub fn fail(message: impl Display) -> ! {
    eprintln!("{}: {message}", process_args().0);
    std::process::exit(2);
}

/// The program's name (its executable's file stem) and its arguments.
fn process_args() -> (String, Vec<String>) {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let stem = std::path::Path::new(&bin).file_stem().unwrap_or_default();
    (stem.to_string_lossy().into_owned(), argv.collect())
}
