//! Error type for memory-substrate operations.

use std::error::Error;
use std::fmt;

/// Error returned by the memory-substrate components.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// The zpool has no free space for the requested allocation.
    ZpoolFull {
        /// Bytes that were requested.
        requested: usize,
        /// Bytes currently free.
        available: usize,
    },
    /// A zpool handle or flash swap slot was used after its object was
    /// removed (its storage may since hold another object).
    StaleHandle,
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Which parameter was invalid.
        parameter: &'static str,
        /// Why it was rejected.
        detail: String,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::ZpoolFull {
                requested,
                available,
            } => write!(
                f,
                "zpool full: requested {requested} bytes, {available} available"
            ),
            MemError::StaleHandle => write!(f, "stale zpool handle or swap slot"),
            MemError::InvalidParameter { parameter, detail } => {
                write!(f, "invalid parameter `{parameter}`: {detail}")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = MemError::ZpoolFull {
            requested: 4096,
            available: 128,
        };
        assert!(err.to_string().contains("4096"));
        let err = MemError::InvalidParameter {
            parameter: "low",
            detail: "77 exceeds the high watermark".to_string(),
        };
        assert!(err.to_string().contains("low") && err.to_string().contains("77"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<MemError>();
    }
}
