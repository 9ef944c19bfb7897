use sos_core::Symbol;

/// Errors raised during evaluation.
#[derive(Debug)]
pub enum ExecError {
    /// Underlying storage failure.
    Storage(sos_storage::StorageError),
    /// A checker error while preparing embedded expressions (key
    /// functions inside types).
    Check(sos_core::CheckError),
    /// A function-typed object (a view) was read before a value was
    /// assigned to it, or after a durable reopen dropped its value.
    UndefinedObject(Symbol),
    /// No implementation registered for an operator.
    NoImpl(Symbol),
    /// A stored object image that does not fit the object's declared
    /// type (a B-tree image for an `srel` object, say); the image is
    /// not installed.
    ImageMismatch {
        object: Symbol,
        image: &'static str,
        object_type: String,
    },
    /// A value of an unexpected shape reached an operator.
    TypeMismatch {
        op: String,
        expected: String,
        found: String,
    },
    /// Arithmetic failure (division by zero, overflow).
    Arithmetic(String),
    /// A broken engine invariant: a lowered program the bytecode
    /// verifier rejected, or one that reads the store run without an
    /// evaluation context. No input should raise it.
    Internal(String),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Check(e) => write!(f, "check error: {e}"),
            ExecError::UndefinedObject(n) => write!(
                f,
                "object `{n}` has no value: assign it with an update (a function value \
                 is not kept across a reopen, so a view's defining update must be re-run)"
            ),
            ExecError::NoImpl(n) => write!(f, "no implementation for operator `{n}`"),
            ExecError::ImageMismatch {
                object,
                image,
                object_type,
            } => write!(
                f,
                "stored image of `{object}` is a {image} image, which does not fit its type {object_type}"
            ),
            ExecError::TypeMismatch {
                op,
                expected,
                found,
            } => write!(f, "`{op}` expected {expected}, found {found}"),
            ExecError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            ExecError::Internal(m) => write!(f, "internal error: {m}"),
            ExecError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<sos_storage::StorageError> for ExecError {
    fn from(e: sos_storage::StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<sos_core::CheckError> for ExecError {
    fn from(e: sos_core::CheckError) -> Self {
        ExecError::Check(e)
    }
}

pub type ExecResult<T> = Result<T, ExecError>;

/// Shorthand constructor for mismatch errors.
pub fn mismatch(op: &str, expected: &str, found: &impl std::fmt::Debug) -> ExecError {
    ExecError::TypeMismatch {
        op: op.to_string(),
        expected: expected.to_string(),
        found: format!("{found:?}"),
    }
}
