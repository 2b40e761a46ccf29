//! The job registry, sized by traffic rather than history: full records
//! for live jobs and the newest [`RETAINED_TERMINAL`] terminal ones, and
//! for every older job a [`Verdict`] of ≤ 8 bytes indexed by its id, so
//! `status` answers for every id ever accepted. Age is finish order:
//! every terminal transition passes through [`Registry::retire`] (see
//! DESIGN.md §9, *Registry retention*).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsim_backends::{Flavor, RunReport};
use qsim_core::cancel::CancelToken;

use crate::admission::Reservation;
use crate::job::{JobId, JobState, Priority};
use crate::service::{FinalState, JobStatus, ResultError, ResultKey};

/// Terminal records kept whole, newest by finish order. A client reads
/// a job's result within moments of its finish, so this is a window of
/// slack, not a cache: a thousand records is a fraction of a MiB, and
/// the result cache (not the registry) is what repeats are served from.
pub const RETAINED_TERMINAL: usize = 1024;

/// How long an undelivered terminal record is kept past the cap. A
/// record ages out only once its payload has been read — sample frames
/// written, `result` read or the state taken — because one worker can
/// finish several full gangs before an I/O thread polls its streams, and
/// a stream whose record aged out would never get its `last` frame. A
/// client that never reads anything must not pin memory forever, so a
/// record older than this ages out regardless.
pub(crate) const GRACE: Duration = Duration::from_secs(60);

/// Finish-queue entries examined per retirement: one pays for the new
/// record's own eventual compaction, the other for moving an undelivered
/// record from the front to the back. Amortised O(1) per job.
const AGE_STEPS: usize = 2;

/// The `error` an aged-out `Failed` job's status reads: its text was
/// dropped with the record.
pub const EXPIRED_ERROR: &str = "error text expired with the job's record";

#[derive(Debug)]
pub(crate) struct JobRecord {
    pub(crate) state: JobState,
    pub(crate) priority: Priority,
    pub(crate) flavor: Flavor,
    pub(crate) num_qubits: usize,
    pub(crate) devices: usize,
    pub(crate) cancel: CancelToken,
    /// One allocation per finished run: the result-cache entry and every
    /// later hit's record hold the same report.
    pub(crate) report: Option<Arc<RunReport>>,
    pub(crate) state_vector: Option<FinalState>,
    pub(crate) error: Option<String>,
    /// Budget hold, released (dropped) when the job reaches a terminal
    /// state, or, for a kept final state, when the state is taken or
    /// the record ages out.
    pub(crate) reservation: Option<Reservation>,
    /// Result-cache key the job's report is inserted under when it
    /// completes. `None` when the result is not cacheable (`keep_state`
    /// jobs, sharded jobs whose reports are device-count specific).
    pub(crate) result_key: Option<ResultKey>,
    /// Whether the terminal payload has been read once (see [`GRACE`]).
    pub(crate) delivered: bool,
}

/// What an aged-out job still answers `status` with.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    state: JobState,
    priority: Priority,
    flavor: Flavor,
    /// At most `statevec::MAX_QUBITS`, checked at submission.
    num_qubits: u8,
    /// At most `MAX_SHARD_DEVICES`.
    devices: u8,
}

const _: () = assert!(std::mem::size_of::<Option<Verdict>>() <= 8);

impl Verdict {
    fn of(record: &JobRecord) -> Verdict {
        Verdict {
            state: record.state,
            priority: record.priority,
            flavor: record.flavor,
            num_qubits: record.num_qubits as u8,
            devices: record.devices as u8,
        }
    }
}

/// The registry proper, behind `ServiceInner.registry`'s mutex.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    /// Live jobs and the retained terminal ones.
    records: HashMap<JobId, JobRecord>,
    /// Terminal ids still in `records`, in finish order (an undelivered
    /// one moves to the back), each with the instant it turned terminal.
    finished: VecDeque<(JobId, Instant)>,
    /// Verdicts of aged-out jobs at index `id - 1`: ids are issued
    /// densely from 1. `None` for a job that is live, retained, or was
    /// never accepted.
    verdicts: Vec<Option<Verdict>>,
    aged_out: u64,
}

impl Registry {
    /// The record of a live or retained job.
    pub(crate) fn record(&mut self, id: JobId) -> Option<&mut JobRecord> {
        self.records.get_mut(&id)
    }

    /// A `Done` job's report, or why there is none. Reading a terminal
    /// job's result delivers it.
    pub(crate) fn result(&mut self, id: JobId) -> Result<Arc<RunReport>, ResultError> {
        let Some(r) = self.records.get_mut(&id) else {
            return Err(self
                .verdict(id)
                .map_or(ResultError::UnknownJob, |v| ResultError::Expired(v.state)));
        };
        r.delivered |= r.state.is_terminal();
        r.report.clone().ok_or(ResultError::NoResult(r.state))
    }

    fn verdict(&self, id: JobId) -> Option<Verdict> {
        let index = usize::try_from(id.0).ok()?.checked_sub(1)?;
        self.verdicts.get(index).copied().flatten()
    }

    /// Enter accepted jobs; a result-cache hit is born terminal and
    /// retires at once.
    pub(crate) fn admit(&mut self, records: Vec<(JobId, JobRecord)>, now: Instant) {
        for (id, record) in records {
            let born_done = record.state.is_terminal();
            self.records.insert(id, record);
            if born_done {
                self.retire(id, now);
            }
        }
    }

    /// Roll back a job the queue refused (it is not terminal); dropping
    /// the record returns its reservation.
    pub(crate) fn remove(&mut self, id: JobId) {
        self.records.remove(&id);
    }

    /// Note that `id`'s record just turned terminal, and compact what
    /// that pushes past [`RETAINED_TERMINAL`]: the oldest delivered
    /// record, or an undelivered one past [`GRACE`]. A younger
    /// undelivered one moves to the back of the queue instead.
    pub(crate) fn retire(&mut self, id: JobId, now: Instant) {
        self.finished.push_back((id, now));
        for _ in 0..AGE_STEPS {
            if self.finished.len() <= RETAINED_TERMINAL {
                return;
            }
            let Some((old, at)) = self.finished.pop_front() else { return };
            match self.records.get(&old) {
                Some(r) if !r.delivered && now.saturating_duration_since(at) < GRACE => {
                    self.finished.push_back((old, at));
                }
                _ => self.compact(old),
            }
        }
    }

    /// Drop `id`'s record (its report, error, token, key, reservation and
    /// any kept state go with it) and log its verdict.
    fn compact(&mut self, id: JobId) {
        let Some(record) = self.records.remove(&id) else { return };
        let index = id.0 as usize - 1;
        if self.verdicts.len() <= index {
            self.verdicts.resize(index + 1, None);
        }
        self.verdicts[index] = Some(Verdict::of(&record));
        self.aged_out += 1;
    }

    /// The `status` of any job ever accepted. An aged-out `Failed` job's
    /// `error` reads [`EXPIRED_ERROR`].
    pub(crate) fn status(&self, id: JobId) -> Option<JobStatus> {
        let (v, error) = match self.records.get(&id) {
            Some(r) => (Verdict::of(r), r.error.clone()),
            None => {
                let v = self.verdict(id)?;
                (v, (v.state == JobState::Failed).then(|| EXPIRED_ERROR.to_string()))
            }
        };
        Some(JobStatus {
            id,
            state: v.state,
            priority: v.priority,
            flavor: v.flavor,
            num_qubits: v.num_qubits.into(),
            devices: v.devices.into(),
            error,
        })
    }

    /// `(records held, records aged out)` for the `metrics` verb.
    pub(crate) fn sizes(&self) -> (usize, u64) {
        (self.records.len(), self.aged_out)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use qsim_circuit::library;

    use super::{EXPIRED_ERROR, RETAINED_TERMINAL};
    use crate::job::{JobSpec, JobState};
    use crate::service::{ResultError, Service, ServiceConfig};
    use crate::worker::PANIC_SEED;

    /// A failed job keeps answering `Failed` once aged out; its error
    /// text is gone and `status` says so.
    #[test]
    fn an_aged_out_failure_keeps_its_state_and_says_its_error_expired() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let mut doomed = JobSpec::new(library::ghz(6));
        doomed.seed = PANIC_SEED;
        let doomed = service.submit(doomed).expect("submit");
        let status = service.wait(doomed, Duration::from_secs(60)).expect("known id");
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.unwrap().starts_with("worker panicked"));
        assert_eq!(service.result(doomed).err(), Some(ResultError::NoResult(JobState::Failed)));

        let mut hit = JobSpec::new(library::ghz(6));
        hit.seed = 1;
        let first = service.submit(hit.clone()).expect("submit");
        service.wait(first, Duration::from_secs(60));
        for _ in 0..=RETAINED_TERMINAL {
            let id = service.submit(hit.clone()).expect("cache hit");
            service.result(id).expect("born done");
        }
        assert_eq!(service.result(doomed).err(), Some(ResultError::Expired(JobState::Failed)));
        let status = service.status(doomed).expect("still answers");
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.error.as_deref(), Some(EXPIRED_ERROR));
        service.shutdown();
    }
}
