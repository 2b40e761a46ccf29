//! Job identity, specification and lifecycle states.

use std::time::Duration;

use qsim_backends::Flavor;
use qsim_core::types::Precision;
use qsim_fusion::FusionStrategy;

use crate::circuits::SharedCircuit;

/// Opaque job handle, unique per service instance and monotonically
/// increasing in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling class. Workers always drain `High` before `Normal` before
/// `Batch`; within a class, jobs run in submission (FIFO) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Interactive work (a user waiting at a prompt).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Throughput work that tolerates arbitrary queueing delay.
    Batch,
}

impl Priority {
    /// All classes, in drain order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// Queue index, 0 = drained first.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Wire-protocol name.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

impl std::str::FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "batch" => Ok(Priority::Batch),
            other => Err(format!("unknown priority '{other}' (expected high | normal | batch)")),
        }
    }
}

/// Everything needed to run one job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit to simulate, shared with every other spec the same
    /// circuit was given to (a `Circuit` converts with `into()`).
    pub circuit: SharedCircuit,
    /// Backend flavor to run on.
    pub flavor: Flavor,
    /// Working precision (determines amplitude bytes and buffer bucket).
    pub precision: Precision,
    /// Fusion strategy for planning.
    pub strategy: FusionStrategy,
    /// Maximum fused-gate qubits (validated by the submitter).
    pub max_fused: usize,
    /// PRNG seed for measurement gates and sampling.
    pub seed: u64,
    /// Bitstrings to sample from the final state.
    pub sample_count: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Deadline measured from submission: the job is cancelled at the
    /// next gate boundary once this much time has passed, whether it is
    /// still queued or already running. `None` = no deadline.
    pub timeout: Option<Duration>,
    /// Retain the final state vector on the job record (fetched once via
    /// `Service::take_state`) instead of recycling its allocation through
    /// the buffer pool. For in-process embedders and verification tests;
    /// not exposed on the wire protocol.
    pub keep_state: bool,
}

impl JobSpec {
    /// A default-shaped spec for the given circuit (normal priority,
    /// single precision, CPU flavor, greedy `-f 3`, no deadline). At
    /// `-f 3` serve-sized circuits (10–16 qubits) run in ≈ 0.7× the time
    /// they take at `-f 2`, without `-f 4`'s larger per-run tables; the
    /// paper CLIs keep qsim's `-f 2`.
    pub fn new(circuit: impl Into<SharedCircuit>) -> Self {
        JobSpec {
            circuit: circuit.into(),
            flavor: Flavor::CpuAvx,
            precision: Precision::Single,
            strategy: FusionStrategy::Greedy,
            max_fused: 3,
            seed: 0,
            sample_count: 0,
            priority: Priority::Normal,
            timeout: None,
            keep_state: false,
        }
    }

    /// Bytes of the state vector this job needs — the quantity admission
    /// control charges against the global budget.
    pub fn state_bytes(&self) -> u64 {
        (self.precision.amplitude_bytes() as u64) << self.circuit.num_qubits
    }
}

/// Lifecycle of a job. `Done`, `Failed`, `Cancelled` and `TimedOut` are
/// terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the report is available via the `result` verb.
    Done,
    /// The backend returned an error (recorded on the job).
    Failed,
    /// The `cancel` verb fired before completion.
    Cancelled,
    /// The job's deadline passed before completion.
    TimedOut,
}

impl JobState {
    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Wire-protocol name.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::library;

    #[test]
    fn priority_drain_order_and_labels() {
        assert_eq!(Priority::ALL.map(Priority::index), [0, 1, 2]);
        for p in Priority::ALL {
            assert_eq!(p.label().parse::<Priority>(), Ok(p));
        }
        assert!("urgent".parse::<Priority>().is_err());
    }

    #[test]
    fn state_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [JobState::Done, JobState::Failed, JobState::Cancelled, JobState::TimedOut] {
            assert!(s.is_terminal(), "{s:?}");
        }
    }

    #[test]
    fn default_budget_is_greedy_f3() {
        let spec = JobSpec::new(library::ghz(4));
        assert_eq!((spec.strategy, spec.max_fused), (FusionStrategy::Greedy, 3));
    }

    #[test]
    fn state_bytes_tracks_qubits_and_precision() {
        let mut spec = JobSpec::new(library::ghz(20));
        assert_eq!(spec.state_bytes(), 8 << 20);
        spec.precision = Precision::Double;
        assert_eq!(spec.state_bytes(), 16 << 20);
    }
}
