use std::fmt;

/// Errors produced by the analog simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The AC system matrix was singular at some frequency.
    SingularSystem {
        /// Frequency in hertz at which the solve failed.
        frequency_hz: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SingularSystem { frequency_hz } => {
                write!(f, "singular small-signal system at {frequency_hz:.3e} Hz")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        let e = SimError::SingularSystem {
            frequency_hz: 2.5e9,
        };
        assert!(e.to_string().contains("2.500e9 Hz"), "{e}");
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
