//! Unified error type for the workspace.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced anywhere in the engine.
///
/// `BudgetExceeded` is the laptop-scale analogue of the paper's
/// `1000 × t_opt` timeout: the executor aborts a plan once it has processed
/// more intermediate tuples than the configured work budget, so catastrophic
/// join orders are capped deterministically instead of by wall clock.
#[derive(Debug)]
pub enum Error {
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// AST could not be resolved against the catalog.
    Bind(String),
    /// Logical planning / optimization failure.
    Plan(String),
    /// Runtime execution failure.
    Exec(String),
    /// The executor exceeded its work budget (timeout analogue).
    BudgetExceeded {
        /// Tuples processed before the abort.
        processed: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Underlying I/O failure (spill files).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Bind(m) => write!(f, "bind error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Exec(m) => write!(f, "execution error: {m}"),
            Error::BudgetExceeded { processed, budget } => write!(
                f,
                "work budget exceeded: processed {processed} tuples (budget {budget})"
            ),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// True when the error is the budget/timeout abort, which the robustness
    /// harness records as a `*` (timeout) rather than a hard failure.
    pub fn is_budget(&self) -> bool {
        matches!(self, Error::BudgetExceeded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::Parse("unexpected token".into());
        assert!(e.to_string().contains("parse error"));
        let e = Error::BudgetExceeded {
            processed: 10,
            budget: 5,
        };
        assert!(e.to_string().contains("work budget"));
        assert!(e.is_budget());
        assert!(!Error::Plan("x".into()).is_budget());
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
