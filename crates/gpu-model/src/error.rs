//! Error codes of the simulated runtime, mirroring `hipError_t` /
//! `cudaError_t`.

use std::fmt;

/// Runtime error, the analogue of a non-success `hipError_t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Allocation exceeds remaining device memory
    /// (`hipErrorOutOfMemory`).
    OutOfMemory { requested_bytes: u64, free_bytes: u64 },
    /// Kernel launch geometry is invalid for the device
    /// (`hipErrorInvalidConfiguration`): zero-sized grid/block, block
    /// larger than the device maximum, or static shared memory exceeding
    /// the per-block limit.
    InvalidLaunch(String),
    /// An operation referenced an unknown stream
    /// (`hipErrorInvalidHandle`).
    InvalidHandle(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory { requested_bytes, free_bytes } => write!(
                f,
                "out of device memory: requested {requested_bytes} B, {free_bytes} B free"
            ),
            GpuError::InvalidLaunch(m) => write!(f, "invalid kernel launch: {m}"),
            GpuError::InvalidHandle(m) => write!(f, "invalid handle: {m}"),
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GpuError::OutOfMemory { requested_bytes: 100, free_bytes: 10 };
        assert!(e.to_string().contains("requested 100"));
        assert!(GpuError::InvalidLaunch("block too big".into())
            .to_string()
            .contains("block too big"));
    }
}
