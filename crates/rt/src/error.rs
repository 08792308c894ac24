//! Typed failures of the live runtime.
//!
//! The threaded cluster can fail in ways the simulator cannot: an OS
//! thread panics mid-run, or channels disconnect while a task is still
//! waiting. Both used to surface as a client-side panic (or, worse, a
//! hang on a silent queue); they now flow out as [`RtError`] so the lab
//! backend fails a run with a typed error instead of poisoning the
//! harness.

use std::fmt;

/// A live-runtime run failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtError {
    /// A server worker or the credits controller thread panicked mid-run. The cluster's
    /// panic flag is sticky: every in-flight and subsequent wait fails
    /// fast instead of blocking on replies that will never arrive.
    WorkerPanicked,
    /// The cluster shut down (or its reply channels disconnected) before
    /// the task resolved, or refused a dispatch after shutdown.
    ClusterDown,
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::WorkerPanicked => {
                write!(f, "a live worker or controller thread panicked mid-run")
            }
            RtError::ClusterDown => {
                write!(f, "the live cluster shut down before the task resolved")
            }
        }
    }
}

impl std::error::Error for RtError {}
