use ibrar_attacks::AttackError;
use ibrar_nn::NnError;
use ibrar_tensor::TensorError;
use std::fmt;

/// Error type for checkpoint, registry, engine, and protocol operations.
///
/// The two load-shedding variants — [`ServeError::QueueFull`] and
/// [`ServeError::DeadlineExceeded`] — are *typed* so callers (and the wire
/// protocol) can distinguish backpressure from genuine failures. They map
/// 1:1 onto protocol status codes; everything else becomes
/// `Status::Internal` or `Status::BadRequest` at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded request queue is at capacity; the request was rejected,
    /// not enqueued. Retry later or lower the request rate.
    QueueFull,
    /// The request's deadline passed before a worker started its batch.
    DeadlineExceeded,
    /// No model with this name is registered.
    UnknownModel(String),
    /// A checkpoint file is malformed or does not match the target model.
    Checkpoint(String),
    /// The engine or server is shutting down.
    Shutdown,
    /// A malformed frame or bad field on the wire.
    Protocol(String),
    /// A well-formed request for an opcode (or sub-selector) this server
    /// does not implement. Typed so newer clients probing for optional
    /// endpoints get a clean rejection on a live connection.
    Unsupported(String),
    /// A request's tensor does not match what the model expects.
    InvalidInput(String),
    /// Socket or filesystem failure (message only: `std::io::Error` is not
    /// `Clone`).
    Io(String),
    /// A model forward pass or parameter operation failed.
    Nn(NnError),
    /// A raw tensor operation failed.
    Tensor(TensorError),
    /// A robustness probe's attack failed.
    Attack(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue full"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::UnknownModel(name) => write!(f, "unknown model: {name}"),
            ServeError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            ServeError::Shutdown => write!(f, "server shutting down"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
            ServeError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
            ServeError::Nn(e) => write!(f, "model error: {e}"),
            ServeError::Tensor(e) => write!(f, "tensor error: {e}"),
            ServeError::Attack(msg) => write!(f, "attack error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Nn(e) => Some(e),
            ServeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Tensor(e)
    }
}

impl From<AttackError> for ServeError {
    fn from(e: AttackError) -> Self {
        ServeError::Attack(e.to_string())
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_distinct() {
        let variants = [
            ServeError::QueueFull,
            ServeError::DeadlineExceeded,
            ServeError::UnknownModel("m".into()),
            ServeError::Checkpoint("c".into()),
            ServeError::Shutdown,
            ServeError::Protocol("p".into()),
            ServeError::Unsupported("u".into()),
            ServeError::Io("i".into()),
            ServeError::Attack("a".into()),
        ];
        let texts: Vec<String> = variants.iter().map(|e| e.to_string()).collect();
        for (i, a) in texts.iter().enumerate() {
            assert!(!a.is_empty());
            for b in texts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn conversions_work() {
        let e: ServeError = std::io::Error::other("x").into();
        assert!(matches!(e, ServeError::Io(_)));
        let e: ServeError = NnError::Config("bad".into()).into();
        assert!(matches!(e, ServeError::Nn(_)));
    }
}
