//! Batched multi-state execution: [`SimBackend::run_batch`].
//!
//! The serve layer's many-small-circuits regime is dominated by per-job
//! fixed costs — pre-run analysis, fusion accounting, matrix conversion,
//! SIMD/gate-plan construction, matrix uploads — not by amplitude
//! arithmetic. `run_batch` takes a gang of sub-jobs, groups them by
//! [`FusedCircuit::content_hash`], and hands each hash-equal group to the
//! plan walker ([`crate::walker`]) as one gang of states, so those costs
//! land once per gang. Results are bit-for-bit identical to N sequential
//! [`SimBackend::run_with`] calls (proven by `tests/batch_equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use qsim_core::types::Float;
use qsim_core::StateVector;
use qsim_fusion::FusedCircuit;

use crate::placement::Placer;
use crate::plan::FusionPlan;
use crate::report::{RunOptions, RunReport};
use crate::sim_backend::{RunContext, RunFailure, SimBackend};

/// Process-wide batch identifier source, so concurrent workers' gangs stay
/// distinguishable in metrics.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// One sub-job of a [`SimBackend::run_batch`] call: a fused circuit plus
/// the same per-run options and service-layer context `run_with` takes.
#[derive(Debug)]
pub struct BatchJob<'a, F: Float> {
    /// The fused circuit. Sub-jobs whose circuits are content-hash-equal
    /// are executed as one gang; distinct circuits fall back to sequential
    /// gangs within the same call.
    pub fused: &'a FusedCircuit,
    /// Seed and sample count for this sub-job.
    pub opts: RunOptions,
    /// Recycled buffer and cancel token for this sub-job.
    pub ctx: RunContext<F>,
}

impl<'a, F: Float> BatchJob<'a, F> {
    /// A sub-job with default options and context.
    pub fn new(fused: &'a FusedCircuit) -> Self {
        BatchJob { fused, opts: RunOptions::default(), ctx: RunContext::default() }
    }
}

/// One state's inputs to a walk: the per-run options and service-layer
/// context `run_with` takes.
pub type SubIn<F> = (RunOptions, RunContext<F>);

/// What one sub-job of a batch resolves to: exactly the
/// [`SimBackend::run_with`] contract (buffers ride back on failure).
pub type BatchResult<F> = Result<(StateVector<F>, RunReport), RunFailure<F>>;

impl SimBackend {
    /// Run one plan over a gang of states — the walk [`SimBackend::run_with`]
    /// makes with one state and `run_batch` makes per hash-equal group.
    /// One state is stamped `(None, 1)`, more share a fresh `batch_id`.
    pub fn run_gang<F: Float>(
        &self,
        plan: &FusionPlan,
        subs: Vec<SubIn<F>>,
    ) -> Vec<BatchResult<F>> {
        self.run_gang_placed(plan, subs, None)
    }

    /// [`SimBackend::run_gang`] over the placement `placer` builds
    /// (`None`: on this one device).
    pub fn run_gang_placed<F: Float>(
        &self,
        plan: &FusionPlan,
        subs: Vec<SubIn<F>>,
        placer: Option<&dyn Placer>,
    ) -> Vec<BatchResult<F>> {
        let batch = match subs.len() {
            0 | 1 => (None, 1),
            n => (Some(NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed)), n),
        };
        self.walk(plan, Some(subs), batch, placer).subs
    }

    /// Run N sub-jobs as a batch, returning one [`BatchResult`] per
    /// sub-job in input order. Hash-equal circuits form gangs that share
    /// one walk (pre-run check, matrix conversion + upload, and sweep-plan
    /// construction amortized across the gang); every report carries a
    /// shared `batch_id` and the call's `batch_size`.
    ///
    /// Each sub-job's functional result — final state, measurement
    /// outcomes, samples — is bit-for-bit what `run_with` would produce
    /// for the same plan, options, and context. Modeled-time fields are
    /// the gang's shares: the whole gang's simulated time divided by its
    /// completed sub-jobs.
    pub fn run_batch<F: Float>(&self, jobs: Vec<BatchJob<'_, F>>) -> Vec<BatchResult<F>> {
        let batch_size = jobs.len();
        let batch_id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<Option<BatchResult<F>>> = Vec::new();
        out.resize_with(batch_size, || None);

        // Group by plan content, preserving submission order within and
        // across groups (first occurrence fixes a group's rank).
        type Member<F> = (usize, SubIn<F>);
        let mut groups: Vec<(u64, &FusedCircuit, Vec<Member<F>>)> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let h = job.fused.content_hash();
            match groups.iter_mut().find(|(gh, _, _)| *gh == h) {
                Some((_, _, subs)) => subs.push((i, (job.opts, job.ctx))),
                None => groups.push((h, job.fused, vec![(i, (job.opts, job.ctx))])),
            }
        }
        for (_, fused, members) in groups {
            let (at, subs): (Vec<usize>, Vec<SubIn<F>>) = members.into_iter().unzip();
            let plan = self.check(fused, F::PRECISION);
            let walked = self.walk(&plan, Some(subs), (Some(batch_id), batch_size), None);
            for (i, result) in at.into_iter().zip(walked.subs) {
                out[i] = Some(result);
            }
        }
        out.into_iter().map(|r| r.expect("every batch sub-job resolves")).collect()
    }
}
