//! The plan walker: the one traversal of a fused circuit on a modeled
//! device — or on several, under a qubit placement.
//!
//! One generic loop serves all four flavors (exactly as the hipified HIP
//! backend is a line-for-line port of the CUDA backend): per fused gate it
//!
//! 1. uploads the gate matrix with an async copy on the backend's copy
//!    stream (the `hipMemcpyAsync` activity of Figures 1 and 6),
//! 2. makes the compute stream wait on the copy stream,
//! 3. launches `ApplyGateH_Kernel` or `ApplyGateL_Kernel` depending on
//!    whether the gate touches a qubit below index 5 (qsim's shared-memory
//!    tile design), with the flavor's block geometry.
//!
//! Every launch and copy is charged to the device model's virtual
//! timeline; kernel bodies run on host threads **only when the walk is
//! handed states**. The three entry points differ in nothing else:
//! [`SimBackend::estimate`] walks with no states,
//! [`SimBackend::run_with`] with a gang of one, and
//! [`SimBackend::run_batch`] with one gang per hash-equal group of
//! sub-jobs — the cuQuantum-style batched gate application, where
//! analysis runs once, each gate's matrix is converted and uploaded once,
//! and one [`qsim_core::sweep::PreparedRun`] per cache-blocked run is swept
//! across every state. A launch over `k` states is charged `k` states'
//! bytes and flops; the dry walk is charged as one state.
//!
//! Kernel bodies run on the **live prefix** of each state: a state born
//! `|0…0⟩` is exact `+0` above its highest touched qubit, so the walk
//! carries `live = max(floor, highest qubit touched so far + 1)` and hands
//! every application, measurement and sampling scan `amps[..1 << live]` as
//! a `live`-qubit register (DESIGN.md §5.1). The modeled device is charged
//! full passes regardless — only host work on known zeros is skipped, and
//! [`RunReport::amp_updates`] counts what was left.
//!
//! **Several devices.** Under a [`Placement`] (built by a [`Placer`], the
//! multi-GCD backend) the state is sharded over `D` devices of `m` local
//! qubits each. The host still holds each state once, in physical order;
//! the timeline is one representative device, charged at shard width `m`
//! — the shards run in lockstep, so `D` timelines would only repeat it.
//! Before a gate, its exchange epochs swap index bits in place and charge
//! their link time, serialized on the compute stream or pipelined on the
//! comm stream; the gate runs on its sorted physical slots; a measurement
//! reads the measured qubits' slots; and at the end the layout is undone
//! in place, so sampling and the returned state are in logical order.
//!
//! Per-state arithmetic is the single-state kernels' ([`apply_run_gang`] /
//! [`apply_gate_gang`]), each state has its own seeded RNG for
//! measurements and sampling, and cancellation stays per state: a fired
//! token extracts that slot's buffer mid-gang while the rest keep running.
//! Whatever stops a state — cancellation, a bad buffer, a modeled-runtime
//! error — its allocation rides back in [`RunFailure::buffer`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gpu_model::runtime::{KernelDesc, KernelWork, StreamId};
use gpu_model::trace::SpanKind;
use gpu_model::GpuError;
use qsim_circuit::gates::permute_matrix_bits;
use qsim_core::batch::{apply_gate_gang, apply_run_gang, PushError, StateBatch};
use qsim_core::cancel::CancelToken;
use qsim_core::kernels::PAR_GRAIN_AMPS;
use qsim_core::statespace::{measure, norm_sqr, sample};
use qsim_core::sweep::{PassTracker, SweepExecutor};
use qsim_core::types::{Cplx, Float, Precision};
use qsim_core::{GateMatrix, StateVector};
use qsim_fusion::{FusedGate, FusedOp};

use crate::batch_run::{BatchResult, SubIn};
use crate::placement::{swap_index_bits, Placement, Placer, QubitLayout, EXCHANGE_KERNEL};
use crate::plan::{gate_kernel_desc, init_kernel_desc, sample_kernel_desc, FusionPlan};
use crate::report::{GateClassCount, KernelStat, RunOptions, RunReport};
use crate::sim_backend::{BackendError, RunFailure, SimBackend};

/// The pending run of block-local gates: charged when met, applied
/// together when the run flushes.
type PendingRun<'a, F> = Vec<(Cow<'a, [usize]>, GateMatrix<F>)>;

/// What a walk produced.
pub(crate) struct Walked<F: Float> {
    /// The modeled report of the walk, as one completed state's share
    /// (without any per-state outcome), or the error that stopped it.
    pub report: Result<RunReport, BackendError>,
    /// One result per state handed in, in input order (empty for a dry
    /// walk).
    pub subs: Vec<BatchResult<F>>,
}

/// A walk refused before any state was acquired: every recycled buffer
/// goes straight back to its caller.
fn rejected<F: Float>(error: BackendError, subs_in: Option<Vec<SubIn<F>>>) -> Walked<F> {
    let subs = subs_in
        .into_iter()
        .flatten()
        .map(|(_, ctx)| Err(RunFailure { error: error.clone(), buffer: ctx.reuse_buffer }))
        .collect();
    Walked { report: Err(error), subs }
}

/// Per-state bookkeeping while its amplitudes live in the gang.
struct Sub {
    /// Position in the caller's list of states (and in [`Walked::subs`]).
    job: usize,
    opts: RunOptions,
    rng: StdRng,
    reused: bool,
    measurements: Vec<(Vec<usize>, usize)>,
    samples: Vec<u64>,
}

/// The functional side of a walk: the states kernel bodies run on.
struct Gang<F: Float> {
    batch: StateBatch<F>,
    /// Indexed by batch slot, as is `cancels`.
    subs: Vec<Sub>,
    cancels: Vec<Option<CancelToken>>,
    /// Indexed by caller position; `None` while the state is still live.
    out: Vec<Option<BatchResult<F>>>,
}

impl<F: Float> Gang<F> {
    /// Move every state into the gang as `|0…0⟩`, recycling the caller's
    /// buffers. A buffer of the wrong size, or a fresh one the host cannot
    /// provide, resolves its state at once.
    fn acquire(n: usize, subs_in: Vec<SubIn<F>>) -> Self {
        let mut gang = Gang {
            batch: StateBatch::new(n),
            subs: Vec::new(),
            cancels: Vec::new(),
            out: Vec::new(),
        };
        gang.out.resize_with(subs_in.len(), || None);
        for (job, (opts, ctx)) in subs_in.into_iter().enumerate() {
            let reused = ctx.reuse_buffer.is_some();
            match gang.batch.push_state(ctx.reuse_buffer) {
                Ok(_) => {
                    gang.cancels.push(ctx.cancel);
                    gang.subs.push(Sub {
                        job,
                        rng: StdRng::seed_from_u64(opts.seed),
                        opts,
                        reused,
                        measurements: Vec::new(),
                        samples: Vec::new(),
                    });
                }
                Err(PushError::WrongSize(buf)) => {
                    gang.out[job] = Some(Err(RunFailure {
                        error: BackendError::InvalidCircuit(format!(
                            "recycled buffer has {} amplitudes, want 2^{n}",
                            buf.len()
                        )),
                        buffer: Some(buf),
                    }));
                }
                // The modeled device admitted the state; the host did not.
                Err(PushError::Alloc) => {
                    let requested_bytes = (F::PRECISION.amplitude_bytes() as u64) << n;
                    let oom = GpuError::OutOfMemory { requested_bytes, free_bytes: 0 };
                    gang.out[job] = Some(Err(RunFailure { error: oom.into(), buffer: None }));
                }
            }
        }
        gang
    }

    /// Resolve `slot` as failed, handing its buffer back.
    fn fail(&mut self, slot: usize, error: BackendError) {
        let buffer = self.batch.take(slot);
        self.out[self.subs[slot].job] = Some(Err(RunFailure { error, buffer }));
    }

    /// The cooperative-cancellation boundary: between fused gate
    /// applications (never inside a kernel). A service's timeout watchdog
    /// and its `cancel` verb both land here.
    fn poll_cancels(&mut self, at_op: usize) {
        for slot in 0..self.subs.len() {
            if !self.batch.is_active(slot) {
                continue;
            }
            if let Some(cause) = self.cancels[slot].as_ref().and_then(CancelToken::cause) {
                self.fail(slot, BackendError::Cancelled { cause, at_op });
            }
        }
    }

    /// Apply and clear the pending run of block-local gates across the
    /// `2^live`-amplitude prefix of the whole gang: one
    /// [`SweepExecutor::prepare_run`] (each gate planned once), swept over
    /// every live state. Each state's token is polled at every sweep cache
    /// block; a state cancelled mid-run fails with `at_op`.
    fn flush(
        &mut self,
        sweep: &SweepExecutor,
        pending: &mut PendingRun<'_, F>,
        live: usize,
        at_op: usize,
    ) {
        if pending.is_empty() {
            return;
        }
        let prepared = sweep.prepare_run(1 << live, pending.iter().map(|(q, m)| (&**q, m)));
        for (slot, cause) in apply_run_gang(&prepared, &mut self.batch, &self.cancels) {
            self.fail(slot, BackendError::Cancelled { cause, at_op });
        }
        pending.clear();
        self.debug_assert_norms(live, "cache-blocked sweep run");
    }

    /// Swap index bits `a < b` of every live state in place: one pair of
    /// an exchange epoch, or one step of undoing the layout. Bits at or
    /// above `live` hold only zeros, so a swap of two of them moves
    /// nothing, and a swap that lifts a live bit widens `live` to cover it.
    fn swap_bits(&mut self, live: &mut usize, a: usize, b: usize) {
        if a >= *live {
            return;
        }
        *live = (*live).max(b + 1);
        self.batch.for_each_active(1 << *live, |_, amps| swap_index_bits(amps, a, b));
    }

    /// Debug-build invariant checked on every live state after every
    /// fused-gate application: the plan's unitaries passed the pre-run
    /// analysis, so any norm drift beyond rounding means a kernel bug, not
    /// a bad circuit. The whole norm sits in the `2^live` prefix. Compiles
    /// to nothing in release builds.
    fn debug_assert_norms(&self, live: usize, what: &str) {
        if cfg!(debug_assertions) {
            let tol = if F::PRECISION == Precision::Double { 1e-9 } else { 1e-3 };
            for amps in (0..self.subs.len()).filter_map(|slot| self.batch.state(slot)) {
                let norm = norm_sqr(&amps[..1 << live]);
                assert!((norm - 1.0).abs() < tol, "state norm² drifted to {norm} after {what}");
            }
        }
    }

    /// Resolve every state still live: with the walk's report it completed
    /// (its amplitudes move out instead of being copied, and its report is
    /// the walk's plus its own outcomes); with the walk's error it failed
    /// and its buffer rides back.
    fn finish(self, walk: &Result<RunReport, BackendError>) -> Vec<BatchResult<F>> {
        let Gang { mut batch, subs, mut out, .. } = self;
        for (slot, sub) in subs.into_iter().enumerate() {
            let Some(amps) = batch.take(slot) else { continue };
            out[sub.job] = Some(match walk {
                Ok(report) => Ok((
                    StateVector::from_amplitudes(amps),
                    RunReport {
                        measurements: sub.measurements,
                        samples: sub.samples,
                        buffer_reused: sub.reused,
                        ..report.clone()
                    },
                )),
                Err(error) => Err(RunFailure { error: error.clone(), buffer: Some(amps) }),
            });
        }
        out.into_iter().map(|r| r.expect("every state of a walk resolves")).collect()
    }
}

/// States a launch covers: the gang's live states, or one for a dry walk.
fn width<F: Float>(gang: &Option<Gang<F>>) -> usize {
    gang.as_ref().map_or(1, |g| g.batch.active_count())
}

/// Multiply a kernel descriptor's charged work by the states it covers:
/// one batched launch moves N states' bytes and flops.
fn scale_for_gang(desc: &mut KernelDesc, gang: usize) {
    let k = gang as f64;
    desc.work.bytes *= k;
    desc.work.flops *= k;
    desc.work.passes *= k;
    desc.blocks = desc.blocks.saturating_mul(gang as u64).max(1);
}

fn bump(stats: &mut BTreeMap<String, (u64, f64)>, name: &str, dur_us: f64) {
    let entry = stats.entry(name.to_string()).or_insert((0, 0.0));
    entry.0 += 1;
    entry.1 += dur_us;
}

/// A gate's sorted physical slots under `layout` and, for a functional
/// walk, its matrix at `F` re-expressed over them. Without a layout the
/// slots are the gate's own qubits, borrowed.
fn physical_gate<'a, F: Float>(
    g: &'a FusedGate,
    layout: Option<&QubitLayout>,
    functional: bool,
) -> (Cow<'a, [usize]>, Option<GateMatrix<F>>) {
    let Some(layout) = layout else {
        return (Cow::Borrowed(&g.qubits), functional.then(|| g.matrix_as()));
    };
    let slots: Vec<usize> = g.qubits.iter().map(|&q| layout.slot_of(q)).collect();
    let mut sorted = slots.clone();
    sorted.sort_unstable();
    let matrix = functional.then(|| {
        if sorted == slots {
            return g.matrix_as();
        }
        let perm: Vec<usize> = slots
            .iter()
            .map(|s| sorted.iter().position(|x| x == s).expect("slot present"))
            .collect();
        permute_matrix_bits(g.matrix(), &perm).cast()
    });
    (Cow::Owned(sorted), matrix)
}

/// The `i`-th of `chunks` slices of a gate kernel, blocks and work
/// divided proportionally (remainder blocks land on early chunks).
fn chunk_desc(desc: &KernelDesc, i: usize, chunks: usize) -> KernelDesc {
    let total = desc.blocks.max(1);
    let base = total / chunks as u64;
    let rem = total % chunks as u64;
    let blocks = base + u64::from((i as u64) < rem);
    let share = blocks as f64 / total as f64;
    KernelDesc {
        name: desc.name.clone(),
        blocks,
        work: KernelWork {
            bytes: desc.work.bytes * share,
            flops: desc.work.flops * share,
            passes: desc.work.passes * share,
        },
        ..*desc
    }
}

impl SimBackend {
    /// Walk `plan` at precision `F`: over the states of `subs_in` when
    /// given, as a dry run otherwise, and over the placement `placer`
    /// builds when given, on this one device otherwise. `batch` is the
    /// `(batch_id, batch_size)` stamped on every report.
    pub(crate) fn walk<F: Float>(
        &self,
        plan: &FusionPlan,
        subs_in: Option<Vec<SubIn<F>>>,
        batch: (Option<u64>, usize),
        placer: Option<&dyn Placer>,
    ) -> Walked<F> {
        let n = plan.fused.num_qubits;
        if n == 0 || n > qsim_core::statevec::MAX_QUBITS {
            let error = BackendError::InvalidCircuit(format!("unsupported qubit count {n}"));
            return rejected(error, subs_in);
        }
        // A rejected plan stops here, before any state is allocated.
        let analysis_warnings = match plan.verdict(self.launch_policy(F::PRECISION).sweep) {
            Ok(w) => w,
            Err(error) => return rejected(error, subs_in),
        };
        let wall_start = Instant::now();
        let placement = match placer.map(|p| p.place(plan, F::PRECISION)).transpose() {
            Ok(placement) => placement,
            Err(error) => return rejected(error, subs_in),
        };

        // Modeled-memory admission (this is where a 31-qubit double run
        // genuinely exceeds the modeled A100's 40 GB): state buffers are
        // host allocations flowing pool → gang → pool, outside the device
        // model's allocator, so each device's share of the footprint is
        // checked against the modeled capacity explicitly (conservatively
        // counting states that may yet fail buffer validation).
        let state_bytes = (F::PRECISION.amplitude_bytes() as u64) << n;
        let gang_bytes = subs_in.as_ref().map_or(1, Vec::len) as u64 * state_bytes;
        let device_bytes = gang_bytes / placement.as_ref().map_or(1, |p| p.sharding.devices) as u64;
        let capacity = self.gpu.spec().memory_bytes;
        if device_bytes > capacity {
            let oom = GpuError::OutOfMemory { requested_bytes: device_bytes, free_bytes: capacity };
            return rejected(BackendError::Gpu(oom), subs_in);
        }

        let mut gang = subs_in.map(|subs| Gang::acquire(n, subs));
        let report = if width(&gang) == 0 {
            // Every state was refused at acquisition: nothing is launched
            // or charged.
            Err(BackendError::InvalidCircuit("no state left to walk".into()))
        } else {
            self.walk_timeline(
                plan,
                &mut gang,
                placement,
                wall_start,
                gang_bytes,
                analysis_warnings,
                batch,
            )
            .map_err(BackendError::Gpu)
        };
        let subs = gang.map_or_else(Vec::new, |g| g.finish(&report));
        Walked { report, subs }
    }

    /// The timed region of a walk, and its report. Like the paper's, the
    /// region includes the gate-fusion step, charged at its modeled host
    /// cost; fusion and every per-gate fixed cost land once per gang. A
    /// modeled-runtime error (bad launch, matrix-buffer OOM) stops the
    /// walk for every state still live.
    #[allow(clippy::too_many_arguments)]
    fn walk_timeline<'a, F: Float>(
        &self,
        plan: &'a FusionPlan,
        gang: &mut Option<Gang<F>>,
        mut placement: Option<Placement>,
        wall_start: Instant,
        gang_bytes: u64,
        analysis_warnings: Vec<String>,
        batch: (Option<u64>, usize),
    ) -> Result<RunReport, GpuError> {
        let fused = &plan.fused;
        let n = fused.num_qubits;
        // Every charge is one device's: the whole state, or one shard.
        let m = placement.as_ref().map_or(n, |p| p.layout.local_qubits());
        let len = 1usize << m;
        let amp_bytes = F::PRECISION.amplitude_bytes();
        let policy = self.launch_policy(F::PRECISION);
        let mut kernel_stats: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let isa = qsim_core::simd::active_isa();
        // Per-walk peak-memory accounting (the device may be long-lived).
        self.gpu.reset_peak_memory();
        let t0 = self.gpu.synchronize();
        let fusion_stats = fused.stats();
        // ROADMAP 8(iii): a sharded walk charges no modeled fusion time,
        // though its cost model's single-device sibling does.
        let fusion_us = if placement.is_none() { Self::fusion_cost_us(&fusion_stats) } else { 0.0 };
        self.gpu.advance_host_us(fusion_us);

        // One batched init launch covers the whole gang (acquisition
        // already wrote |0…0⟩ into every slot).
        let mut init = init_kernel_desc(&policy, len, F::PRECISION);
        scale_for_gang(&mut init, width(gang));
        let (s, e) = self.gpu.charge_launch(&init, StreamId::DEFAULT)?;
        bump(&mut kernel_stats, &init.name, e - s);
        let setup_seconds = if gang.is_some() { wall_start.elapsed().as_secs_f64() } else { 0.0 };

        // Matrix uploads overlap compute on the copy stream (Figures 1
        // and 6). ROADMAP 8(iii): a sharded walk uploads no matrices,
        // though the GPU policies price them.
        let copy_stream =
            (policy.uploads_matrices && placement.is_none()).then_some(self.copy_stream);

        // Cache-blocked sweep state: block-local gates are charged to the
        // modeled timeline as usual but their functional application is
        // deferred so a whole run applies to each cache block in one pass
        // (no sweeping on GPU flavors or under a placement — their policy
        // disables it, the tracker then marks every gate a barrier and
        // `pending` stays empty, also across exchanges).
        let mut tracker = PassTracker::new(&policy.sweep, n);
        let mut pending: PendingRun<'a, F> = Vec::new();

        // Live width: every amplitude with a bit set at or above `live` is
        // still the `+0` acquisition wrote, so kernel bodies run on
        // `amps[..1 << live]` only. The floor keeps a prefix on the same
        // ladder rung and sweep block as the full state (below
        // `PAR_GRAIN_AMPS` the dispatching entry takes the scalar
        // reference, which rounds differently), so results are the
        // full-width run's bit for bit; it also covers every block-local
        // gate, so only barrier gates, exchanges and measurements widen
        // `live`.
        let floor = policy.sweep.block_qubits(n).max(PAR_GRAIN_AMPS.trailing_zeros() as usize);
        let mut live = floor.min(n);
        let mut amp_updates = 0u64;

        for (op_index, op) in fused.ops.iter().enumerate() {
            if let Some(gang) = gang.as_mut() {
                gang.poll_cancels(op_index);
                if gang.batch.active_count() == 0 {
                    pending.clear();
                    break;
                }
            }
            match op {
                FusedOp::Unitary(g) => {
                    // The op's exchange epochs move its global qubits
                    // local: in the layout, and in the data as index-bit
                    // swaps.
                    let exchange_us = placement.as_mut().map_or(0.0, |p| {
                        let exchange = &p.exchanges[op_index];
                        for &(local, global) in &exchange.pairs {
                            if let Some(gang) = gang.as_mut() {
                                gang.swap_bits(&mut live, local, global);
                            }
                            p.layout.swap_slots(local, global);
                        }
                        exchange.link_us
                    });
                    // Converted once, uploaded once, applied N times —
                    // the batched amortization.
                    let layout = placement.as_ref().map(|p| &p.layout);
                    let (slots, matrix) = physical_gate::<F>(g, layout, gang.is_some());
                    if let Some(cs) = copy_stream {
                        // Ship the fused matrix to the device; a dry walk
                        // has no matrix to move and charges the same copy.
                        match &matrix {
                            Some(m) => {
                                let mut mbuf = self.gpu.malloc::<Cplx<F>>(m.dim() * m.dim())?;
                                self.gpu.memcpy_h2d_async(&mut mbuf, m.as_slice(), cs)?;
                            }
                            None => {
                                let dim = 1usize << g.qubits.len();
                                let bytes = (dim * dim * amp_bytes) as u64;
                                self.gpu.charge_memcpy(SpanKind::MemcpyH2D, bytes, cs)?;
                            }
                        }
                        self.gpu.stream_wait_stream(StreamId::DEFAULT, cs)?;
                    }
                    let opens_pass = tracker.on_gate(&slots);
                    let mut desc =
                        gate_kernel_desc(self.flavor, &policy, m, &slots, F::PRECISION, opens_pass);
                    scale_for_gang(&mut desc, width(gang));
                    let in_run = tracker.in_run();
                    if !in_run {
                        // Barrier gate: flush the open run at the width it
                        // was met at, widen, then go through the ordinary
                        // strided kernel. (Block-local gates sit below the
                        // floor, so for them `live` stands.)
                        if let Some(gang) = gang.as_mut() {
                            gang.flush(&self.sweep, &mut pending, live, op_index);
                        }
                        live = live.max(slots.last().map_or(0, |q| q + 1));
                    }
                    // Like the launch, the exchange moves every state's
                    // shard.
                    let exchange_us = exchange_us * width(gang) as f64;
                    let overlap = placement.as_ref().and_then(|p| p.overlap);
                    self.charge_gate(&desc, exchange_us, overlap, &mut kernel_stats)?;
                    match (gang.as_mut(), matrix) {
                        // Applied with the rest of the run when it flushes.
                        (Some(_), Some(matrix)) if in_run => pending.push((slots, matrix)),
                        (Some(gang), Some(matrix)) => {
                            apply_gate_gang(&mut gang.batch, live, &slots, &matrix);
                            gang.debug_assert_norms(live, &desc.name);
                        }
                        _ => {}
                    }
                    amp_updates += 1 << live;
                }
                FusedOp::Measurement { qubits, .. } => {
                    tracker.on_barrier();
                    if let Some(gang) = gang.as_mut() {
                        gang.flush(&self.sweep, &mut pending, live, op_index);
                    }
                    // The slots holding the measured qubits, in the
                    // qubits' order, so bit `j` of the outcome is
                    // `qubits[j]`'s and the outcome per seed is the
                    // single-device walk's.
                    let slots = match &placement {
                        None => Cow::Borrowed(qubits.as_slice()),
                        Some(p) => qubits.iter().map(|&q| p.layout.slot_of(q)).collect(),
                    };
                    // Collapse never widens the support; the prefix only
                    // has to hold the measured qubits.
                    live = live.max(slots.iter().max().map_or(0, |q| q + 1));
                    // qsim measures on-device; we model the equivalent
                    // traffic as a D2H + H2D round trip, once per gang at
                    // the aggregate size, with the host waiting on the
                    // D2H before it measures. Each state collapses in
                    // place with its own RNG.
                    let bytes = (len * amp_bytes * width(gang)) as u64;
                    self.gpu.charge_memcpy(SpanKind::MemcpyD2H, bytes, StreamId::DEFAULT)?;
                    self.gpu.sync_stream(StreamId::DEFAULT)?;
                    if let Some(gang) = gang.as_mut() {
                        for (slot, sub) in gang.subs.iter_mut().enumerate() {
                            if let Some(amps) = gang.batch.state_mut(slot) {
                                let outcome = measure(&mut amps[..1 << live], &slots, &mut sub.rng);
                                sub.measurements.push((qubits.clone(), outcome));
                            }
                        }
                    }
                    self.gpu.charge_memcpy(SpanKind::MemcpyH2D, bytes, StreamId::DEFAULT)?;
                    bump(&mut kernel_stats, "Measure(D2H+H2D)", 0.0);
                }
            }
        }
        tracker.on_barrier();
        if let Some(gang) = gang.as_mut() {
            gang.flush(&self.sweep, &mut pending, live, fused.ops.len());
        }
        // Undo the layout in place, so sampling and the returned states
        // are in logical order: step `q` brings logical qubit `q` home.
        if let (Some(p), Some(gang)) = (placement.as_mut(), gang.as_mut()) {
            for q in 0..n {
                let at = p.layout.slot_of(q);
                if at != q {
                    gang.swap_bits(&mut live, q, at);
                    p.layout.swap_slots(q, at);
                }
            }
        }

        // Final sampling on-device: one gang-scaled launch, each state
        // drawing with its own RNG.
        let sampling = gang.as_ref().map_or(0, |g| {
            let draws = |slot: &usize| g.subs[*slot].opts.sample_count > 0;
            (0..g.subs.len()).filter(|slot| g.batch.is_active(*slot)).filter(draws).count()
        });
        if let (Some(gang), true) = (gang.as_mut(), sampling > 0) {
            let mut desc = sample_kernel_desc(&policy, len, F::PRECISION);
            scale_for_gang(&mut desc, sampling);
            let (s, e, ()) = self.gpu.launch(&desc, StreamId::DEFAULT, || {
                for (slot, sub) in gang.subs.iter_mut().enumerate() {
                    let draws = sub.opts.sample_count;
                    if let Some(amps) = gang.batch.state(slot).filter(|_| draws > 0) {
                        sub.samples = sample(&amps[..1 << live], draws, &mut sub.rng);
                    }
                }
            })?;
            bump(&mut kernel_stats, &desc.name, e - s);
        }
        let t_end = self.gpu.synchronize();

        // Modeled and wall durations are shares: the whole walk's divided
        // across the states that completed.
        let completed = width(gang).max(1) as f64;
        let kernels = kernel_stats
            .into_iter()
            .map(|(name, (count, time_us))| KernelStat { name, count, time_us })
            .collect();
        let device = &self.gpu.spec().name;
        let sharding = placement.map(|p| p.sharding);
        Ok(RunReport {
            backend: self.flavor.label().into(),
            device: match &sharding {
                Some(s) => format!("{}x {device}", s.devices),
                None => device.clone(),
            },
            precision: F::PRECISION,
            num_qubits: n,
            max_fused_qubits: fused.max_fused_qubits,
            fused_gates: fused.num_unitaries(),
            fusion_strategy: plan.strategy.label().into(),
            predicted_cost_seconds: plan.predicted_cost_seconds,
            fusion_stats,
            simulated_seconds: (t_end - t0) * 1e-6 / completed,
            fusion_seconds: fusion_us * 1e-6 / completed,
            wall_seconds: wall_start.elapsed().as_secs_f64() / completed,
            setup_seconds: setup_seconds / completed,
            kernels,
            measurements: Vec::new(),
            samples: Vec::new(),
            state_bytes: (amp_bytes as u64) << n,
            // The states, plus the widest transient in the device model's
            // allocator (matrix upload buffers).
            peak_state_bytes: gang_bytes + self.gpu.memory_usage().1,
            buffer_reused: false,
            state_passes: tracker.stats().full_passes,
            amp_updates,
            analysis_warnings,
            isa: isa.name().into(),
            gate_class_counts: GateClassCount::tally(fused, isa.lane_qubits(F::PRECISION)),
            batch_id: batch.0,
            batch_size: batch.1,
            sharding,
        })
    }

    /// Charge one gate launch to the compute stream, preceded by
    /// `exchange_us` of link time when the gate's exchange epochs moved
    /// data. Serialized (`overlap` is `None`), the exchange runs ahead of
    /// the kernel on the compute stream. Overlapped (`overlap` = the comm
    /// stream and pipeline depth), both split into chunks: exchange chunk
    /// `i` runs on the comm stream and the matching kernel chunk waits for
    /// it, so chunk `i+1`'s link time hides behind chunk `i`'s compute.
    fn charge_gate(
        &self,
        desc: &KernelDesc,
        exchange_us: f64,
        overlap: Option<(StreamId, usize)>,
        stats: &mut BTreeMap<String, (u64, f64)>,
    ) -> Result<(), GpuError> {
        let (gpu, compute) = (&self.gpu, StreamId::DEFAULT);
        if exchange_us <= 0.0 {
            let (s, e) = gpu.charge_launch(desc, compute)?;
            bump(stats, &desc.name, e - s);
            return Ok(());
        }
        let (link, chunks) = overlap.unwrap_or((compute, 1));
        let chunks = chunks.clamp(1, desc.blocks.max(1) as usize);
        // The exchange reads amplitudes the previous kernel wrote.
        gpu.stream_wait_stream(link, compute)?;
        let (mut xt, mut kt) = (0.0, 0.0);
        for i in 0..chunks {
            let us = exchange_us / chunks as f64;
            let (xs, xe) = gpu.charge_custom(EXCHANGE_KERNEL, SpanKind::MemcpyD2D, link, us)?;
            gpu.stream_wait_stream(compute, link)?;
            let (s, e) = gpu.charge_launch(&chunk_desc(desc, i, chunks), compute)?;
            xt += xe - xs;
            kt += e - s;
        }
        bump(stats, EXCHANGE_KERNEL, xt);
        bump(stats, &desc.name, kt);
        Ok(())
    }
}
