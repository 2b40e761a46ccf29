//! Cache-blocked multi-gate sweep executor for the CPU path.
//!
//! Every gate kernel in [`crate::kernels`] streams the whole `2^n`-amplitude
//! state through memory once — on bandwidth-bound hardware the pass count
//! *is* the cost, which is why gate fusion helps (paper §2.2). This module
//! pushes the same idea one level further, the CPU analogue of qsim's
//! shared-memory `ApplyGateL_Kernel` design: partition the amplitude array
//! into contiguous, aligned, cache-sized blocks and apply a *run* of
//! consecutive fused gates to each block while it is cache-resident, so the
//! run costs one pass over main memory instead of one pass per gate.
//!
//! **Run formation rule.** A fused gate joins the current run iff all its
//! target qubits are `< log2(block_len)`: the amplitude groups of such a
//! gate differ only in target-qubit bits, so every group lies inside one
//! aligned block and the gate can be applied block-locally. A gate touching
//! a qubit `≥ log2(block_len)` mixes amplitudes across blocks; it is a
//! **sweep barrier** — the pending run is flushed, and the gate itself goes
//! through the ordinary strided kernels as its own pass.
//!
//! Because aligned blocks are disjoint `&mut` sub-slices, the block-parallel
//! path is plain `par_chunks_mut` — safe code, unlike the raw-pointer
//! group-parallel bridge the strided kernels need.
//!
//! The default block of [`DEFAULT_BLOCK_AMPS`] amplitudes (2^16 ≈ 0.5–1 MiB)
//! fits a per-core L2 slice with room for the matrices; qubits 0..=15 then
//! resolve in cache.

use rayon::prelude::*;

use crate::cancel::{CancelCause, CancelToken};
use crate::kernels::{self, PreparedGate, PAR_GRAIN_AMPS};
use crate::matrix::GateMatrix;
use crate::types::{Cplx, Float};

/// Default sweep block size in amplitudes: 2^16 amplitudes = 512 KiB in
/// single precision, 1 MiB in double — sized for a per-core L2 slice.
pub const DEFAULT_BLOCK_AMPS: usize = 1 << 16;

/// Configuration of the cache-blocked sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Block length in amplitudes (power of two, ≥ 2). Gates whose targets
    /// are all `< log2(block_amps)` apply block-locally.
    pub block_amps: usize,
    /// When false, every gate runs as its own full pass (the pre-sweep
    /// behavior).
    pub enabled: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { block_amps: DEFAULT_BLOCK_AMPS, enabled: true }
    }
}

impl SweepConfig {
    /// Sweep with a custom block size (power of two, ≥ 2).
    pub fn with_block_amps(block_amps: usize) -> Self {
        assert!(
            block_amps.is_power_of_two() && block_amps >= 2,
            "sweep block must be a power of two ≥ 2 amplitudes, got {block_amps}"
        );
        SweepConfig { block_amps, enabled: true }
    }

    /// Sweep turned off: per-gate passes, as without this module.
    pub fn disabled() -> Self {
        SweepConfig { enabled: false, ..SweepConfig::default() }
    }

    /// Effective block qubit count for an `n`-qubit register: a block
    /// never exceeds the state, so this is `min(log2(block_amps), n)`.
    /// Targets below this index are block-local.
    pub fn block_qubits(&self, n: usize) -> usize {
        debug_assert!(self.block_amps.is_power_of_two() && self.block_amps >= 2);
        (self.block_amps.trailing_zeros() as usize).min(n)
    }
}

/// Whether a gate on (sorted) `qubits` applies block-locally for blocks of
/// `2^block_qubits` amplitudes: all its targets must sit below the block
/// boundary, confining every amplitude group to one aligned block.
pub fn is_block_local(qubits: &[usize], block_qubits: usize) -> bool {
    qubits.iter().all(|&q| q < block_qubits)
}

/// Pass accounting of one swept gate sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Unitary gates processed.
    pub gates: u64,
    /// Gates applied block-locally inside a run.
    pub block_local_gates: u64,
    /// Gates that acted as sweep barriers (strided pass of their own).
    pub barrier_gates: u64,
    /// Runs of ≥ 1 block-local gates formed.
    pub runs: u64,
    /// Full passes over the state: one per run plus one per barrier gate.
    /// Without the sweep this equals `gates`.
    pub full_passes: u64,
}

impl SweepStats {
    /// Passes the sweep avoided versus per-gate execution.
    pub fn passes_saved(&self) -> u64 {
        self.gates - self.full_passes
    }
}

/// Incremental run-formation state.
///
/// Both the functional executor and the backends' launch/pass accounting
/// walk gate sequences through this one type, so the modeled "passes over
/// state" counter and the actual blocked execution can never disagree on
/// where runs begin and end.
#[derive(Debug, Clone, Copy)]
pub struct PassTracker {
    block_qubits: usize,
    enabled: bool,
    in_run: bool,
    stats: SweepStats,
}

impl PassTracker {
    /// Tracker for an `n`-qubit register under `config`.
    pub fn new(config: &SweepConfig, n: usize) -> Self {
        PassTracker {
            block_qubits: config.block_qubits(n),
            enabled: config.enabled,
            in_run: false,
            stats: SweepStats::default(),
        }
    }

    /// Account one gate; returns `true` when it begins a new pass over the
    /// state (a barrier gate, or the first gate of a fresh run).
    pub fn on_gate(&mut self, qubits: &[usize]) -> bool {
        self.stats.gates += 1;
        if self.enabled && is_block_local(qubits, self.block_qubits) {
            self.stats.block_local_gates += 1;
            if self.in_run {
                false
            } else {
                self.in_run = true;
                self.stats.runs += 1;
                self.stats.full_passes += 1;
                true
            }
        } else {
            self.stats.barrier_gates += 1;
            self.in_run = false;
            self.stats.full_passes += 1;
            true
        }
    }

    /// Whether the last accounted gate joined/opened a run (i.e. would be
    /// applied block-locally).
    pub fn in_run(&self) -> bool {
        self.in_run
    }

    /// A non-gate barrier (measurement, sampling, end of circuit) closes
    /// any open run.
    pub fn on_barrier(&mut self) {
        self.in_run = false;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// Pass accounting for a whole gate sequence without executing it
/// (`None` items are non-gate barriers such as measurements).
pub fn sweep_stats<'a, I>(gates: I, config: &SweepConfig, n: usize) -> SweepStats
where
    I: IntoIterator<Item = Option<&'a [usize]>>,
{
    let mut tracker = PassTracker::new(config, n);
    for g in gates {
        match g {
            Some(qubits) => {
                tracker.on_gate(qubits);
            }
            None => tracker.on_barrier(),
        }
    }
    tracker.stats()
}

/// The cache-blocked executor: a [`SweepConfig`] and the run walker over
/// it. It holds no other state — every gate of a run is planned when the
/// run is prepared ([`SweepExecutor::prepare_run`]).
pub struct SweepExecutor {
    config: SweepConfig,
}

impl SweepExecutor {
    pub fn new(config: SweepConfig) -> Self {
        SweepExecutor { config }
    }

    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Apply one run of consecutive block-local gates in a single pass:
    /// each aligned block receives the whole run while cache-hot. Blocks
    /// are disjoint `&mut` chunks, processed with safe `par_chunks_mut`.
    ///
    /// Every gate must satisfy [`is_block_local`] for this executor's
    /// block size (run formation guarantees it; debug-asserted here).
    pub fn apply_run<'g, F, I>(&self, amps: &mut [Cplx<F>], gates: I)
    where
        F: Float + 'g,
        I: IntoIterator<Item = (&'g [usize], &'g GateMatrix<F>)>,
    {
        // Without a token the run cannot be interrupted.
        let done = self.prepare_run(amps.len(), gates).apply_to(amps, None);
        debug_assert!(done.is_ok());
    }

    /// Build the per-run execution plan for a run of block-local gates on
    /// a `state_len`-amplitude register, without applying it: one
    /// [`PreparedGate`] per gate, planned at block size. The returned
    /// [`PreparedRun`] can be applied to any number of `state_len`-sized
    /// states — the batched gang executor in [`crate::batch`] builds it
    /// once and sweeps it across every state vector of a gang, which is
    /// the whole point of batched multi-state execution.
    pub fn prepare_run<'g, F, I>(&self, state_len: usize, gates: I) -> PreparedRun<'g, F>
    where
        F: Float + 'g,
        I: IntoIterator<Item = (&'g [usize], &'g GateMatrix<F>)>,
    {
        assert!(state_len.is_power_of_two() && state_len >= 2, "state length must be 2^n");
        let block = self.config.block_amps.min(state_len);
        let block_qubits = block.trailing_zeros() as usize;

        let gates: Vec<PreparedGate<'g, F>> = gates
            .into_iter()
            .map(|(qubits, matrix)| {
                debug_assert!(
                    is_block_local(qubits, block_qubits),
                    "gate on {qubits:?} is not local to 2^{block_qubits}-amplitude blocks"
                );
                PreparedGate::new(block_qubits, qubits, &[], 0, matrix)
            })
            .collect();
        PreparedRun { state_len, block, gates }
    }

    /// Execute a full fused-gate sequence over `amps`: block-local gates
    /// batch into runs applied by [`SweepExecutor::apply_run`]; barrier
    /// gates flush the pending run and go through the strided parallel
    /// kernel. Returns the pass accounting.
    pub fn execute<F: Float>(
        &self,
        amps: &mut [Cplx<F>],
        gates: &[(Vec<usize>, GateMatrix<F>)],
    ) -> SweepStats {
        let n = amps.len().trailing_zeros() as usize;
        let mut tracker = PassTracker::new(&self.config, n);
        let mut pending: Vec<usize> = Vec::new();
        for (i, (qubits, matrix)) in gates.iter().enumerate() {
            tracker.on_gate(qubits);
            if tracker.in_run() {
                pending.push(i);
            } else {
                self.flush(amps, gates, &mut pending);
                kernels::apply_gate_par(amps, qubits, matrix);
            }
        }
        self.flush(amps, gates, &mut pending);
        tracker.on_barrier();
        tracker.stats()
    }

    fn flush<F: Float>(
        &self,
        amps: &mut [Cplx<F>],
        gates: &[(Vec<usize>, GateMatrix<F>)],
        pending: &mut Vec<usize>,
    ) {
        if !pending.is_empty() {
            self.apply_run(amps, pending.iter().map(|&i| (gates[i].0.as_slice(), &gates[i].1)));
            pending.clear();
        }
    }
}

/// A run of block-local gates, fully planned and ready to sweep over any
/// state of the length it was prepared for. Built by
/// [`SweepExecutor::prepare_run`]; reusable across states, which is what
/// lets a gang of state vectors share one set of [`PreparedGate`]s per run.
pub struct PreparedRun<'g, F: Float> {
    state_len: usize,
    block: usize,
    gates: Vec<PreparedGate<'g, F>>,
}

impl<'g, F: Float> PreparedRun<'g, F> {
    /// Whether the run contains no gates (applying it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of gates in the run.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// The state length this run was prepared for.
    pub fn state_len(&self) -> usize {
        self.state_len
    }

    /// Apply the whole run to one state: each aligned cache block receives
    /// every gate while cache-hot ([`SweepExecutor::apply_run`] is
    /// implemented on top of this). The cancel token, when present, is
    /// polled once per cache block before the run is applied to it; on
    /// cancellation the remaining blocks are skipped and the cause is
    /// returned — the state is then partially updated and only good for
    /// recycling, which is exactly the service-shutdown / job-timeout path
    /// this exists for.
    pub fn apply_to(
        &self,
        amps: &mut [Cplx<F>],
        cancel: Option<&CancelToken>,
    ) -> Result<(), CancelCause> {
        assert_eq!(
            amps.len(),
            self.state_len,
            "run prepared for {} amplitudes applied to {}",
            self.state_len,
            amps.len()
        );
        if self.gates.is_empty() {
            return Ok(());
        }
        let apply_block = |chunk: &mut [Cplx<F>]| {
            // Poll once per cache block: a 2^16-amplitude block is a few
            // hundred µs of work, so cancellation latency stays far below
            // any deadline a service would set, and the check is one
            // atomic load against a full block of arithmetic.
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return;
            }
            for g in &self.gates {
                g.apply_seq(chunk);
            }
        };
        if amps.len() < PAR_GRAIN_AMPS || amps.len() <= self.block {
            for chunk in amps.chunks_mut(self.block) {
                apply_block(chunk);
            }
        } else {
            amps.par_chunks_mut(self.block).for_each(apply_block);
        }
        match cancel.and_then(CancelToken::cause) {
            Some(cause) => Err(cause),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::apply_gate_seq;
    use crate::statespace;
    use crate::StateVector;

    fn h_matrix() -> GateMatrix<f64> {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    fn cz_matrix() -> GateMatrix<f64> {
        let mut m = GateMatrix::<f64>::identity(4);
        m.set(3, 3, -Cplx::one());
        m
    }

    /// A deterministic mixed circuit over n qubits: low/high/diagonal
    /// gates interleaved.
    fn mixed_gates(n: usize) -> Vec<(Vec<usize>, GateMatrix<f64>)> {
        let mut gates = Vec::new();
        for q in 0..n {
            gates.push((vec![q], h_matrix()));
        }
        for q in 0..n - 1 {
            gates.push((vec![q, q + 1], cz_matrix()));
        }
        gates.push((vec![0, n - 1], cz_matrix()));
        for q in (0..n).rev() {
            gates.push((vec![q], h_matrix()));
        }
        gates
    }

    fn reference_state(n: usize, gates: &[(Vec<usize>, GateMatrix<f64>)]) -> StateVector<f64> {
        let mut sv = StateVector::<f64>::new(n);
        for (qs, m) in gates {
            apply_gate_seq(sv.amplitudes_mut(), qs, m);
        }
        sv
    }

    #[test]
    fn sweep_matches_per_gate_across_block_sizes() {
        let n = 10;
        let gates = mixed_gates(n);
        let reference = reference_state(n, &gates);
        // Blocks from 4 amplitudes up to 4× the state size (= one block).
        for block_pow in [2usize, 4, 6, 8, 10, 12] {
            let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << block_pow));
            let mut sv = StateVector::<f64>::new(n);
            let stats = exec.execute(sv.amplitudes_mut(), &gates);
            let diff = reference.max_abs_diff(&sv);
            assert!(diff < 1e-12, "block 2^{block_pow}: diff {diff}");
            assert_eq!(stats.gates as usize, gates.len());
            assert_eq!(stats.block_local_gates + stats.barrier_gates, stats.gates);
            assert_eq!(stats.full_passes, stats.runs + stats.barrier_gates);
            assert!((norm(&sv) - 1.0).abs() < 1e-12);
        }
    }

    fn norm(sv: &StateVector<f64>) -> f64 {
        statespace::norm_sqr(sv)
    }

    #[test]
    fn cancelled_run_stops_and_reports_cause() {
        use crate::cancel::{CancelCause, CancelToken};

        let n = 10;
        // Gates on qubits 0..4 only: block-local to the 2^4-amplitude
        // blocks below, so the whole set forms one run over 64 blocks.
        let gates: Vec<(Vec<usize>, GateMatrix<f64>)> =
            (0..4).map(|q| (vec![q], h_matrix())).collect();
        let runs: Vec<(&[usize], &GateMatrix<f64>)> =
            gates.iter().map(|(q, m)| (q.as_slice(), m)).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 4));

        // A live token does not perturb the result.
        let token = CancelToken::new();
        let mut sv = StateVector::<f64>::new(n);
        exec.prepare_run(1 << n, runs.iter().copied())
            .apply_to(sv.amplitudes_mut(), Some(&token))
            .expect("live token must not cancel");
        let reference = reference_state(n, &gates);
        assert!(reference.max_abs_diff(&sv) < 1e-12);

        // A pre-cancelled token skips every block and reports why.
        token.cancel();
        let mut sv = StateVector::<f64>::new(n);
        let err = exec
            .prepare_run(1 << n, runs.iter().copied())
            .apply_to(sv.amplitudes_mut(), Some(&token))
            .unwrap_err();
        assert_eq!(err, CancelCause::Requested);
        // No block was touched: still |0…0⟩.
        assert!((sv.amplitude(0).re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn full_state_block_is_one_run() {
        // Block ≥ state: every gate is block-local, the whole circuit is a
        // single pass.
        let n = 8;
        let gates = mixed_gates(n);
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 12));
        let mut sv = StateVector::<f64>::new(n);
        let stats = exec.execute(sv.amplitudes_mut(), &gates);
        assert_eq!(stats.barrier_gates, 0);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.full_passes, 1);
        assert_eq!(stats.passes_saved(), stats.gates - 1);
    }

    #[test]
    fn all_barrier_circuit_degenerates_to_per_gate() {
        // Blocks of 2 amplitudes: only qubit 0 is block-local; a circuit
        // on qubits ≥ 1 is all barriers.
        let gates: Vec<_> = (1..6).map(|q| (vec![q], h_matrix())).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(2));
        let mut sv = StateVector::<f64>::new(6);
        let stats = exec.execute(sv.amplitudes_mut(), &gates);
        assert_eq!(stats.block_local_gates, 0);
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.full_passes, stats.gates);
        assert_eq!(stats.passes_saved(), 0);
        let reference = reference_state(6, &gates);
        assert!(reference.max_abs_diff(&sv) < 1e-13);
    }

    #[test]
    fn disabled_sweep_counts_one_pass_per_gate() {
        let gates = mixed_gates(6);
        let exec = SweepExecutor::new(SweepConfig::disabled());
        let mut sv = StateVector::<f64>::new(6);
        let stats = exec.execute(sv.amplitudes_mut(), &gates);
        assert_eq!(stats.full_passes, stats.gates);
        assert_eq!(stats.block_local_gates, 0);
        let reference = reference_state(6, &gates);
        assert!(reference.max_abs_diff(&sv) < 1e-13);
    }

    #[test]
    fn tracker_pass_sequence() {
        let cfg = SweepConfig::with_block_amps(1 << 4);
        let mut t = PassTracker::new(&cfg, 20);
        assert!(t.on_gate(&[0, 1])); // opens run 1
        assert!(!t.on_gate(&[2])); // joins run 1
        assert!(t.on_gate(&[3, 17])); // barrier
        assert!(t.on_gate(&[1])); // opens run 2
        t.on_barrier(); // e.g. a measurement
        assert!(t.on_gate(&[1])); // opens run 3
        let s = t.stats();
        assert_eq!(s.gates, 5);
        assert_eq!(s.barrier_gates, 1);
        assert_eq!(s.runs, 3);
        assert_eq!(s.full_passes, 4);
        assert_eq!(s.passes_saved(), 1);
    }

    #[test]
    fn sweep_stats_helper_matches_tracker() {
        let cfg = SweepConfig::default();
        let g1 = [0usize, 3];
        let g2 = [20usize];
        let seq: Vec<Option<&[usize]>> = vec![Some(&g1), None, Some(&g1), Some(&g2)];
        let s = sweep_stats(seq, &cfg, 24);
        assert_eq!(s.gates, 3);
        assert_eq!(s.runs, 2);
        assert_eq!(s.barrier_gates, 1);
        assert_eq!(s.full_passes, 3);
    }

    #[test]
    fn parallel_block_path_matches_sequential() {
        // State large enough to trigger par_chunks_mut with several blocks.
        let n = 14;
        let gates: Vec<_> = (0..6).map(|q| (vec![q, q + 1], cz_matrix())).collect();
        let mut gates = gates;
        for q in 0..8 {
            gates.push((vec![q], h_matrix()));
        }
        let reference = reference_state(n, &gates);
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 9));
        let mut sv = StateVector::<f64>::new(n);
        let stats = exec.execute(sv.amplitudes_mut(), &gates);
        assert_eq!(stats.barrier_gates, 0, "all targets < 9");
        assert_eq!(stats.full_passes, 1);
        assert!(reference.max_abs_diff(&sv) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_rejected() {
        let _ = SweepConfig::with_block_amps(1000);
    }

    #[test]
    fn block_qubits_clamps_to_register() {
        let cfg = SweepConfig::default();
        assert_eq!(cfg.block_qubits(30), 16);
        assert_eq!(cfg.block_qubits(10), 10);
        assert_eq!(SweepConfig::with_block_amps(4).block_qubits(30), 2);
    }
}
