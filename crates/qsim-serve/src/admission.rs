//! Admission control: a global memory budget enforced at submit time.
//!
//! The budget is charged from qubit count × precision **before** a job
//! is queued, so the service's answer to an over-committed moment is a
//! typed rejection with a retry hint — backpressure — instead of a
//! worker OOM-aborting mid-run with a 16 GiB allocation half-faulted.
//! The result cache charges the same ledger ([`AdmissionController::try_charge`]),
//! so cached reports and live state buffers compete for one budget.
//!
//! The second admission axis — modeled memory *bandwidth* — is not here:
//! it is decided, charged and released inside [`crate::queue::JobQueue`],
//! under the lock dispatch reads it under. This module only names its
//! typed refusal, [`AdmissionError::Saturated`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The job can never fit: its state alone exceeds the whole budget.
    /// Retrying is pointless.
    TooLarge {
        /// State bytes the job needs.
        requested_bytes: u64,
        /// The service's total budget.
        budget_bytes: u64,
    },
    /// The budget is currently committed to other jobs. Retry after the
    /// hinted delay — backpressure, not failure.
    Rejected {
        /// State bytes the job needs.
        requested_bytes: u64,
        /// Budget bytes not currently reserved.
        available_bytes: u64,
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
    /// The queue already holds more modeled memory traffic than the
    /// service can drain promptly; the submission is shed instead of
    /// queued. Retry after the hinted delay.
    Saturated {
        /// The job's estimated traffic rate, bytes/s.
        demand_bytes_per_sec: u64,
        /// Aggregate rate of queued + running jobs, bytes/s.
        backlog_bytes_per_sec: u64,
        /// The backlog cap that was exceeded, bytes/s.
        limit_bytes_per_sec: u64,
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
}

impl AdmissionError {
    /// The back-off a client should obey before resubmitting, or `None`
    /// when retrying cannot help ([`AdmissionError::TooLarge`]).
    pub fn retry_after(&self) -> Option<Duration> {
        match *self {
            AdmissionError::TooLarge { .. } => None,
            AdmissionError::Rejected { retry_after, .. }
            | AdmissionError::Saturated { retry_after, .. } => Some(retry_after),
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TooLarge { requested_bytes, budget_bytes } => write!(
                f,
                "job needs {requested_bytes} B of state, over the service budget of {budget_bytes} B"
            ),
            AdmissionError::Rejected { requested_bytes, available_bytes, retry_after } => write!(
                f,
                "budget exhausted: job needs {requested_bytes} B, {available_bytes} B available; retry in {} ms",
                retry_after.as_millis()
            ),
            AdmissionError::Saturated {
                demand_bytes_per_sec,
                backlog_bytes_per_sec,
                limit_bytes_per_sec,
                retry_after,
            } => write!(
                f,
                "bandwidth backlog saturated: job models {demand_bytes_per_sec} B/s, \
                 backlog already {backlog_bytes_per_sec} B/s of {limit_bytes_per_sec} B/s; retry in {} ms",
                retry_after.as_millis()
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[derive(Debug)]
struct Ledger {
    budget_bytes: u64,
    reserved_bytes: AtomicU64,
}

/// RAII hold on a slice of the budget. Dropping it — whether the job
/// finished, failed, was cancelled or timed out — returns the bytes.
#[must_use = "dropping a Reservation returns its bytes to the budget at once"]
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    ledger: Arc<Ledger>,
}

impl Reservation {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.ledger.reserved_bytes.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// The gatekeeper: tracks reserved state bytes against a fixed budget.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    ledger: Arc<Ledger>,
}

/// Client back-off hint carried by [`AdmissionError::Rejected`]
/// ([`AdmissionError::Saturated`] hints four times as long: its backlog
/// is many run-times deep by construction).
pub const DEFAULT_RETRY_AFTER: Duration = Duration::from_millis(250);

impl AdmissionController {
    /// A controller over `budget_bytes` of state memory.
    pub fn new(budget_bytes: u64) -> Self {
        AdmissionController {
            ledger: Arc::new(Ledger { budget_bytes, reserved_bytes: AtomicU64::new(0) }),
        }
    }

    /// The one compare-and-swap loop: add `bytes` unless that overshoots
    /// the budget (concurrent callers must not jointly overshoot between
    /// the read and the add). `Err` carries the level that refused it.
    fn charge(&self, bytes: u64) -> Result<(), u64> {
        let budget = self.ledger.budget_bytes;
        self.ledger
            .reserved_bytes
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |reserved| {
                reserved.checked_add(bytes).filter(|&next| next <= budget)
            })
            .map(drop)
    }

    /// Try to reserve `bytes` of state memory. On success the returned
    /// [`Reservation`] holds the bytes until dropped.
    pub fn try_reserve(&self, bytes: u64) -> Result<Reservation, AdmissionError> {
        let budget_bytes = self.ledger.budget_bytes;
        if bytes > budget_bytes {
            return Err(AdmissionError::TooLarge { requested_bytes: bytes, budget_bytes });
        }
        match self.charge(bytes) {
            Ok(()) => Ok(Reservation { bytes, ledger: self.ledger.clone() }),
            Err(reserved) => Err(AdmissionError::Rejected {
                requested_bytes: bytes,
                available_bytes: budget_bytes - reserved,
                retry_after: DEFAULT_RETRY_AFTER,
            }),
        }
    }

    /// Charge `bytes` against the memory ledger without creating a
    /// [`Reservation`] — the non-RAII entry point the result cache uses
    /// for long-lived holds that outlive any one job. All-or-nothing:
    /// `false` means the budget could not fund it and nothing was
    /// charged. Pair every successful charge with
    /// [`AdmissionController::release`].
    pub fn try_charge(&self, bytes: u64) -> bool {
        self.charge(bytes).is_ok()
    }

    /// Return bytes charged via [`AdmissionController::try_charge`].
    /// Saturates at zero so a cache returning its whole occupancy on
    /// drop cannot wrap the ledger.
    pub fn release(&self, bytes: u64) {
        let _ = self.ledger.reserved_bytes.fetch_update(
            Ordering::AcqRel,
            Ordering::Acquire,
            |reserved| Some(reserved.saturating_sub(bytes)),
        );
    }

    /// The fixed budget.
    pub fn budget_bytes(&self) -> u64 {
        self.ledger.budget_bytes
    }

    /// Bytes currently reserved by admitted, unfinished jobs.
    pub fn reserved_bytes(&self) -> u64 {
        self.ledger.reserved_bytes.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_round_trip() {
        let ctl = AdmissionController::new(1000);
        let r = ctl.try_reserve(600).unwrap();
        assert_eq!(r.bytes(), 600);
        assert_eq!(ctl.reserved_bytes(), 600);
        drop(r);
        assert_eq!(ctl.reserved_bytes(), 0);
    }

    #[test]
    fn over_budget_is_backpressure_not_failure() {
        let ctl = AdmissionController::new(1000);
        let _held = ctl.try_reserve(800).unwrap();
        match ctl.try_reserve(300) {
            Err(AdmissionError::Rejected {
                requested_bytes: 300,
                available_bytes: 200,
                retry_after,
            }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        // The failed attempt must not leak a partial reservation.
        assert_eq!(ctl.reserved_bytes(), 800);
    }

    #[test]
    fn never_fits_is_a_permanent_rejection() {
        let ctl = AdmissionController::new(1000);
        assert!(matches!(
            ctl.try_reserve(2000),
            Err(AdmissionError::TooLarge { requested_bytes: 2000, budget_bytes: 1000 })
        ));
    }

    #[test]
    fn cache_charges_share_the_reservation_ledger() {
        let ctl = AdmissionController::new(1000);
        assert!(ctl.try_charge(700));
        // Cached bytes and job reservations compete for the same budget.
        assert!(ctl.try_reserve(400).is_err());
        let r = ctl.try_reserve(300).unwrap();
        assert!(!ctl.try_charge(1));
        ctl.release(700);
        assert_eq!(ctl.reserved_bytes(), 300);
        drop(r);
        // Over-release saturates instead of wrapping.
        ctl.release(10_000);
        assert_eq!(ctl.reserved_bytes(), 0);
    }

    #[test]
    fn concurrent_reservations_never_overshoot() {
        let ctl = AdmissionController::new(100);
        let barrier = std::sync::Barrier::new(16);
        let admitted: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(|| {
                        let r = ctl.try_reserve(10).ok();
                        // Hold every successful reservation until all 16
                        // attempts have resolved, so at most 10 can win.
                        barrier.wait();
                        r.is_some()
                    })
                })
                .collect();
            handles.into_iter().map(|h| matches!(h.join(), Ok(true))).filter(|&won| won).count()
        });
        assert!(admitted <= 10, "budget overshot: {admitted} × 10 B admitted against 100 B");
        assert_eq!(ctl.reserved_bytes(), 0, "all reservations must have released");
    }
}
