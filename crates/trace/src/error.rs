//! Error types for trace construction, validation and (de)serialization.

use crate::ids::{ObjId, ThreadId};
use std::fmt;
use std::io;

/// Any error produced by the `critlock-trace` crate.
#[derive(Debug)]
pub enum TraceError {
    /// The per-thread event stream violates the event protocol.
    Protocol {
        /// Offending thread.
        tid: ThreadId,
        /// Index of the offending event within the thread stream.
        index: usize,
        /// Human-readable description of the violation.
        message: String,
    },
    /// Timestamps within one thread stream are not non-decreasing.
    UnsortedTimestamps {
        /// Offending thread.
        tid: ThreadId,
        /// Index of the event whose timestamp goes backwards.
        index: usize,
    },
    /// An event refers to an object that is not registered in the name
    /// table, or registered with the wrong kind.
    UnknownObject {
        /// Offending thread.
        tid: ThreadId,
        /// Offending object id.
        obj: ObjId,
    },
    /// An event refers to a thread id outside the trace.
    UnknownThread {
        /// Offending thread issuing the event.
        tid: ThreadId,
        /// The referenced (missing) thread.
        referenced: ThreadId,
    },
    /// A serialized trace is malformed.
    Decode(String),
    /// An underlying I/O failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Protocol { tid, index, message } => {
                write!(f, "event protocol violation at {tid}[{index}]: {message}")
            }
            TraceError::UnsortedTimestamps { tid, index } => {
                write!(f, "timestamps not sorted at {tid}[{index}]")
            }
            TraceError::UnknownObject { tid, obj } => {
                write!(f, "{tid} references unregistered object {obj}")
            }
            TraceError::UnknownThread { tid, referenced } => {
                write!(f, "{tid} references unknown thread {referenced}")
            }
            TraceError::Decode(m) => write!(f, "malformed trace: {m}"),
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::Json(e) => write!(f, "JSON error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Transport code reports a trace error as an I/O error: an I/O error
/// is unwrapped, anything else becomes `InvalidData`.
impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TraceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TraceError::Protocol {
            tid: ThreadId(1),
            index: 5,
            message: "release without obtain".into(),
        };
        assert!(e.to_string().contains("T1[5]"));
        assert!(e.to_string().contains("release without obtain"));

        let e = TraceError::UnsortedTimestamps { tid: ThreadId(0), index: 2 };
        assert!(e.to_string().contains("not sorted"));

        let e = TraceError::UnknownObject { tid: ThreadId(2), obj: ObjId(9) };
        assert!(e.to_string().contains("obj9"));

        let e = TraceError::UnknownThread { tid: ThreadId(0), referenced: ThreadId(7) };
        assert!(e.to_string().contains("T7"));

        let e = TraceError::Decode("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn io_conversion() {
        let ioe = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        let e: TraceError = ioe.into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
