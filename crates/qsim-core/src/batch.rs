//! Batched multi-state execution: one gate, N state vectors.
//!
//! The serve layer's many-small-circuits regime (thousands of ≤16-qubit
//! jobs) is dominated by per-job fixed costs — planning, analysis, matrix
//! conversion, SIMD plan construction — not by amplitude arithmetic. The
//! cuQuantum SDK's batched gate application amortizes those costs by
//! applying each gate to a *gang* of state vectors at once; this module is
//! the host-side analogue. A [`StateBatch`] holds N same-size state
//! vectors in a bucket-pooled arena (one recyclable [`AlignedAmps`] per
//! slot, so a cancelled sub-job's buffer can leave the gang mid-run), and the
//! gang entry points [`apply_run_gang`] / [`apply_gate_gang`] reuse the
//! [`crate::sweep`] block walker and [`crate::simd`] lane kernels so a
//! single [`crate::sweep::PreparedRun`] — one
//! [`kernels::PreparedGate`] per gate — is built once and swept across
//! every state.
//!
//! Both entry points take the width to apply at: the walker hands them the
//! live prefix of the states (a state born `|0…0⟩` is exact zeros above
//! its highest touched qubit — DESIGN.md §5.1), the whole state being the
//! widest prefix.
//!
//! Per-state arithmetic is exactly the single-state path's
//! ([`PreparedRun::apply_to`] for runs, [`kernels::apply_gate_par`]
//! for barrier gates), and states never read each other, so a gang run is
//! bit-for-bit identical to N sequential runs regardless of how the
//! cross-state parallelism interleaves.

use rayon::prelude::*;

use crate::amps::AlignedAmps;
use crate::cancel::{CancelCause, CancelToken};
use crate::kernels;
use crate::sweep::PreparedRun;
use crate::types::{Cplx, Float};

/// Minimum amplitudes of per-piece work before a gang sweep forks across
/// threads. The offline rayon shim spawns (and joins) scoped OS threads on
/// every parallel-iterator drive, so forking a 16-member gang of 2^12-amp
/// states per gate costs far more than the arithmetic it distributes; such
/// gangs run inline and rely on worker-level parallelism instead. 2^17
/// amplitudes (~2 MiB of f64 pairs) per piece keeps the spawn cost under a
/// percent of the sweep it covers.
const GANG_PIECE_AMPS: usize = 1 << 17;

/// N same-size state vectors, each in its own recyclable allocation.
///
/// Slots are bucket-pooled rather than one contiguous arena so that each
/// sub-job's buffer flows pool → gang → pool independently: a cancelled or
/// finished sub-job's allocation is extracted with [`StateBatch::take`]
/// while the rest of the gang keeps running.
#[derive(Debug)]
pub struct StateBatch<F: Float> {
    num_qubits: usize,
    slots: Vec<Option<AlignedAmps<F>>>,
}

/// Why [`StateBatch::push_state`] added no state.
#[derive(Debug)]
pub enum PushError<F> {
    /// The recycled buffer does not hold `state_len` amplitudes; it comes
    /// back unchanged, so the caller's pool keeps it.
    WrongSize(AlignedAmps<F>),
    /// The host could not provide a fresh buffer.
    Alloc,
}

impl<F: Float> StateBatch<F> {
    /// An empty gang of `num_qubits`-qubit states.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits >= 1, "a state needs at least one qubit");
        StateBatch { num_qubits, slots: Vec::new() }
    }

    /// Amplitudes per state (`2^num_qubits`).
    pub fn state_len(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Qubits per state.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total slots ever pushed (active or taken).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no state was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slots still holding a state.
    pub fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether slot `i` still holds a state.
    pub fn is_active(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(Option::is_some)
    }

    /// Add one state initialised to `|0…0⟩`, recycling `reuse` when given
    /// (it must hold exactly `state_len` amplitudes, and is cleared in
    /// full), else in a fresh buffer, which is born zero and only gets its
    /// first amplitude written. Returns the slot index.
    pub fn push_state(&mut self, reuse: Option<AlignedAmps<F>>) -> Result<usize, PushError<F>> {
        let len = self.state_len();
        let mut amps = match reuse {
            Some(mut buf) if buf.len() == len => {
                buf.fill(Cplx::zero());
                buf
            }
            Some(buf) => return Err(PushError::WrongSize(buf)),
            None => AlignedAmps::try_zeroed(len).ok_or(PushError::Alloc)?,
        };
        amps[0] = Cplx::one();
        self.slots.push(Some(amps));
        Ok(self.slots.len() - 1)
    }

    /// Slot `i`'s amplitudes, if still active.
    pub fn state(&self, i: usize) -> Option<&[Cplx<F>]> {
        self.slots.get(i).and_then(|s| s.as_deref())
    }

    /// Slot `i`'s amplitudes, mutable, if still active.
    pub fn state_mut(&mut self, i: usize) -> Option<&mut [Cplx<F>]> {
        self.slots.get_mut(i).and_then(|s| s.as_deref_mut())
    }

    /// Extract slot `i`'s allocation (for recycling or as the final
    /// state), leaving the slot inactive. The rest of the gang is
    /// untouched — this is the mid-batch cancellation path.
    pub fn take(&mut self, i: usize) -> Option<AlignedAmps<F>> {
        self.slots.get_mut(i).and_then(Option::take)
    }

    /// Run `op` over the first `len` amplitudes of every active slot and
    /// collect `(slot, result)` pairs. States are processed in parallel
    /// only when each piece carries at least `GANG_PIECE_AMPS` (2^17)
    /// amplitudes of work — below that, fork/join overhead (the offline
    /// rayon spawns scoped threads per call) dwarfs the arithmetic of a
    /// small gang, and the gang runs inline on the calling worker thread,
    /// whose outer-level parallelism (many workers, many gangs) is the one
    /// that pays.
    pub fn for_each_active<R, OP>(&mut self, len: usize, op: OP) -> Vec<(usize, R)>
    where
        R: Send,
        OP: Fn(usize, &mut [Cplx<F>]) -> R + Sync,
    {
        assert!(0 < len && len <= self.state_len(), "no {len}-amplitude prefix of the state");
        let grain_states = (GANG_PIECE_AMPS / len).max(1);
        let mut results: Vec<Option<R>> = (0..self.slots.len()).map(|_| None).collect();
        self.slots
            .par_iter_mut()
            .zip(results.par_iter_mut())
            .enumerate()
            .with_min_len(grain_states)
            .for_each(|(i, (slot, out))| {
                if let Some(amps) = slot.as_deref_mut() {
                    *out = Some(op(i, &mut amps[..len]));
                }
            });
        results.into_iter().enumerate().filter_map(|(i, r)| r.map(|r| (i, r))).collect()
    }
}

/// Apply one prepared run of block-local gates to every active state of
/// the gang: the [`PreparedRun`] (one [`kernels::PreparedGate`] per gate)
/// is shared by all states. A run prepared for fewer amplitudes than a
/// state holds applies to that **live prefix** of every slot — a state
/// born `|0…0⟩` is exact zeros above its highest touched qubit, so the
/// rest has nothing to update (DESIGN.md §5.1). Each state's cancel token —
/// `cancels[i]`, when the slice is long enough — is polled per cache block
/// exactly as in the single-state path; slots whose token fired are
/// returned with the cause (their states are partially updated, good only
/// for recycling).
pub fn apply_run_gang<F: Float>(
    run: &PreparedRun<'_, F>,
    batch: &mut StateBatch<F>,
    cancels: &[Option<CancelToken>],
) -> Vec<(usize, CancelCause)> {
    if run.is_empty() {
        return Vec::new();
    }
    batch
        .for_each_active(run.state_len(), |i, amps| {
            run.apply_to(amps, cancels.get(i).and_then(Option::as_ref))
        })
        .into_iter()
        .filter_map(|(i, r)| r.err().map(|cause| (i, cause)))
        .collect()
}

/// Apply one barrier (non-block-local) gate to the `2^live`-amplitude live
/// prefix of every active state (`live` = the state's qubit count for the
/// whole state) through the ordinary strided parallel kernel. The gate is
/// prepared once by the caller — for the same result as the single-state
/// run loop's [`kernels::apply_gate_par`], as
/// [`kernels::PreparedGate::dispatching`] at `live` — and shared across the
/// gang.
pub fn apply_gate_gang<F: Float>(
    batch: &mut StateBatch<F>,
    live: usize,
    gate: &kernels::PreparedGate<'_, F>,
) {
    batch.for_each_active(1 << live, |_, amps| gate.apply_par(amps));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::PreparedGate;
    use crate::matrix::GateMatrix;
    use crate::sweep::tests::prepare_run;
    use crate::sweep::{SweepConfig, SweepExecutor};
    use crate::StateVector;

    fn h_matrix() -> GateMatrix<f64> {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    /// A Hadamard on each of qubits `0..k`.
    fn h_gates(k: usize) -> Vec<(Vec<usize>, GateMatrix<f64>)> {
        (0..k).map(|q| (vec![q], h_matrix())).collect()
    }

    #[test]
    fn push_reuses_exact_size_buffers_and_rejects_others() {
        let mut batch = StateBatch::<f32>::new(4);
        let buf = AlignedAmps::from(vec![Cplx::<f32>::one(); 16]);
        let addr = buf.as_ptr();
        let slot = batch.push_state(Some(buf)).unwrap();
        assert_eq!(slot, 0);
        let amps = batch.state(0).unwrap();
        assert_eq!(amps.as_ptr(), addr, "must adopt the same allocation");
        assert!((amps[0].re - 1.0).abs() < 1e-6 && amps[1].re == 0.0, "reinitialised to |0…0⟩");

        let wrong = AlignedAmps::from(vec![Cplx::<f32>::zero(); 8]);
        let Err(PushError::WrongSize(back)) = batch.push_state(Some(wrong)) else {
            panic!("a mismatched buffer must be refused");
        };
        assert_eq!(back.len(), 8, "mismatched buffer comes back unchanged");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn fresh_and_recycled_slots_are_aligned_zero_kets() {
        let mut batch = StateBatch::<f64>::new(5);
        batch.push_state(None).unwrap();
        let dirty = AlignedAmps::from(vec![Cplx::new(0.5, -0.5); 32]);
        batch.push_state(Some(dirty)).unwrap();
        for i in 0..2 {
            let amps = batch.state(i).unwrap();
            assert!(amps.as_ptr().addr().is_multiple_of(crate::amps::ALIGN), "slot {i}");
            assert_eq!(amps[0], Cplx::one(), "slot {i}");
            assert!(amps[1..].iter().all(|a| a.re.to_bits() == 0 && a.im.to_bits() == 0));
        }
    }

    #[test]
    fn take_deactivates_one_slot_only() {
        let mut batch = StateBatch::<f64>::new(3);
        for _ in 0..3 {
            batch.push_state(None).unwrap();
        }
        let buf = batch.take(1).expect("slot 1 active");
        assert_eq!(buf.len(), 8);
        assert!(batch.take(1).is_none(), "already taken");
        assert_eq!(batch.active_count(), 2);
        assert!(batch.is_active(0) && !batch.is_active(1) && batch.is_active(2));
    }

    #[test]
    fn gang_matches_sequential_single_state_path() {
        let n = 6;
        let gates = h_gates(4);
        let runs: Vec<(&[usize], &GateMatrix<f64>)> =
            gates.iter().map(|(q, m)| (q.as_slice(), m)).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 4));

        // Reference: the single-state executor.
        let mut reference = StateVector::<f64>::new(n);
        exec.apply_run(reference.amplitudes_mut(), runs.iter().copied());
        kernels::apply_gate_par(reference.amplitudes_mut(), &[5], &h_matrix());

        // Gang of 3: same run + barrier gate on every state.
        let mut batch = StateBatch::<f64>::new(n);
        for _ in 0..3 {
            batch.push_state(None).unwrap();
        }
        let gates = prepare_run(&exec, 1 << n, &runs);
        let cancelled = apply_run_gang(&exec.run(1 << n, &gates), &mut batch, &[]);
        assert!(cancelled.is_empty());
        let h = h_matrix();
        apply_gate_gang(&mut batch, n, &PreparedGate::dispatching(n, &[5], &[], 0, &h));

        for i in 0..3 {
            let amps = batch.state(i).unwrap();
            for (a, b) in amps.iter().zip(reference.amplitudes()) {
                assert_eq!((a.re, a.im), (b.re, b.im), "slot {i} must be bit-identical");
            }
        }
    }

    #[test]
    fn per_slot_cancellation_leaves_the_rest_of_the_gang_alone() {
        let n = 8;
        let gates = h_gates(4);
        let runs: Vec<(&[usize], &GateMatrix<f64>)> =
            gates.iter().map(|(q, m)| (q.as_slice(), m)).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 4));

        let mut batch = StateBatch::<f64>::new(n);
        for _ in 0..3 {
            batch.push_state(None).unwrap();
        }
        let dead = CancelToken::new();
        dead.cancel();
        let cancels = vec![None, Some(dead), None];

        let gates = prepare_run(&exec, 1 << n, &runs);
        let cancelled = apply_run_gang(&exec.run(1 << n, &gates), &mut batch, &cancels);
        assert_eq!(cancelled, vec![(1, CancelCause::Requested)]);

        let mut reference = StateVector::<f64>::new(n);
        exec.apply_run(reference.amplitudes_mut(), runs.iter().copied());
        for i in [0usize, 2] {
            let amps = batch.state(i).unwrap();
            for (a, b) in amps.iter().zip(reference.amplitudes()) {
                assert_eq!((a.re, a.im), (b.re, b.im), "slot {i} unaffected by slot 1's cancel");
            }
        }
        // Slot 1 was skipped entirely (pre-cancelled token): still |0…0⟩.
        assert!((batch.state(1).unwrap()[0].re - 1.0).abs() < 1e-15);
    }

    /// A run and a barrier gate applied to the live prefix of every slot
    /// equal the full-width application (`==` per component: the full
    /// width may write `-0` where the prefix leaves `+0`), and nothing
    /// above the prefix is read or written — a sentinel planted there
    /// survives.
    #[test]
    fn batch_live_prefix_matches_full_width_and_leaves_the_rest_alone() {
        let (n, live) = (7, 5);
        let gates = h_gates(4);
        let runs: Vec<(&[usize], &GateMatrix<f64>)> =
            gates.iter().map(|(q, m)| (q.as_slice(), m)).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 4));

        let mut reference = StateVector::<f64>::new(n);
        exec.apply_run(reference.amplitudes_mut(), runs.iter().copied());
        kernels::apply_gate_par(reference.amplitudes_mut(), &[live], &h_matrix());

        let mut batch = StateBatch::<f64>::new(n);
        for _ in 0..2 {
            batch.push_state(None).unwrap();
        }
        let sentinel = Cplx::new(7.0, -7.0);
        batch.state_mut(1).unwrap()[1 << (live + 1)] = sentinel;

        let gates = prepare_run(&exec, 1 << live, &runs);
        assert!(apply_run_gang(&exec.run(1 << live, &gates), &mut batch, &[]).is_empty());
        // The barrier gate on qubit `live` widens the prefix by one qubit.
        let (h, wider) = (h_matrix(), [live]);
        apply_gate_gang(
            &mut batch,
            live + 1,
            &PreparedGate::dispatching(live + 1, &wider, &[], 0, &h),
        );

        let slot1 = batch.state_mut(1).unwrap();
        assert_eq!(slot1[1 << (live + 1)], sentinel, "written above the live prefix");
        slot1[1 << (live + 1)] = Cplx::zero();
        for i in 0..2 {
            assert_eq!(batch.state(i).unwrap(), reference.amplitudes(), "slot {i}");
        }
    }

    /// Cancelling one slot between two prefix applications takes only that
    /// slot out; the others go on to the full-width result.
    #[test]
    fn batch_live_prefix_cancel_between_widths_takes_one_slot() {
        let (n, live) = (6, 4);
        let gates = h_gates(3);
        let runs: Vec<(&[usize], &GateMatrix<f64>)> =
            gates.iter().map(|(q, m)| (q.as_slice(), m)).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << 3));

        let mut batch = StateBatch::<f64>::new(n);
        for _ in 0..3 {
            batch.push_state(None).unwrap();
        }
        let token = CancelToken::new();
        let cancels = vec![None, Some(token.clone()), None];
        let narrow = prepare_run(&exec, 1 << live, &runs);
        assert!(apply_run_gang(&exec.run(1 << live, &narrow), &mut batch, &cancels).is_empty());
        let (h, top) = (h_matrix(), [n - 1]);
        apply_gate_gang(&mut batch, n, &PreparedGate::dispatching(n, &top, &[], 0, &h));

        token.cancel();
        let wide = prepare_run(&exec, 1 << n, &runs);
        let cancelled = apply_run_gang(&exec.run(1 << n, &wide), &mut batch, &cancels);
        assert_eq!(cancelled, vec![(1, CancelCause::Requested)]);
        assert_eq!(batch.take(1).map(|b| b.len()), Some(1 << n));

        let mut reference = StateVector::<f64>::new(n);
        exec.apply_run(reference.amplitudes_mut(), runs.iter().copied());
        kernels::apply_gate_par(reference.amplitudes_mut(), &[n - 1], &h_matrix());
        exec.apply_run(reference.amplitudes_mut(), runs.iter().copied());
        for i in [0, 2] {
            assert_eq!(batch.state(i).unwrap(), reference.amplitudes(), "slot {i}");
        }
    }

    // ---- Prepared once, applied on every walk ----------------------------

    /// Where a gate's tile plan comes from: the portable lanes, or a host
    /// tier.
    type Tier = Option<crate::simd::Isa>;

    fn tile_plan<F: Float>(
        tier: Tier,
        n: usize,
        (qubits, controls, values): (&[usize], &[usize], usize),
        matrix: &GateMatrix<F>,
    ) -> Option<crate::simd::SimdPlan<F>> {
        use crate::simd::SimdPlan;
        match tier {
            None => SimdPlan::new_portable(n, qubits, controls, values, matrix),
            Some(isa) => SimdPlan::new_with_isa(isa, n, qubits, controls, values, matrix),
        }
    }

    /// One gate at width `width` on tier `tier`; `per_lane` builds its
    /// tables lane by lane, as every run prepared them before a plan kept
    /// its gates.
    fn gate_on<'g, F: Float>(
        tier: Tier,
        width: usize,
        shape: (&'g [usize], &'g [usize], usize),
        matrix: &'g GateMatrix<F>,
        per_lane: bool,
    ) -> PreparedGate<'g, F> {
        let tiles = tile_plan(tier, width, shape, matrix);
        let tiles = tiles.map(|t| match per_lane {
            true => t.with_per_lane_tables(tier, shape.0, shape.1, shape.2, matrix),
            false => t,
        });
        PreparedGate::with_tiles(width, shape.0, shape.1, shape.2, matrix, tiles)
    }

    /// Gate classes of [`prepared_once_equals_prepared_per_run`].
    #[derive(Debug, Clone, Copy)]
    enum Class {
        Uniform,
        Mixed,
        Diagonal,
        Controlled,
    }

    /// A gate of class `class` on `k` qubits of a `live`-qubit prefix,
    /// its targets below `top` (a sweep block's width for a run gate).
    fn draw_gate<F: Float>(
        rng: &mut proptest::TestRng,
        class: Class,
        k: usize,
        top: usize,
    ) -> (Vec<usize>, Vec<usize>, usize, GateMatrix<F>) {
        // Uniform gates sit above the widest lane boundary (16 lanes).
        let low = if matches!(class, Class::Uniform) { 4 } else { 0 };
        let mut pool: Vec<usize> = (low..top).collect();
        let mut take =
            |rng: &mut proptest::TestRng| pool.swap_remove(rng.below(pool.len() as u64) as usize);
        let mut qubits: Vec<usize> = (0..k).map(|_| take(rng)).collect();
        if matches!(class, Class::Mixed) && !qubits.contains(&0) {
            qubits[0] = 0;
        }
        qubits.sort_unstable();
        let controls: Vec<usize> = match class {
            Class::Controlled => (0..2).map(|_| take(rng)).collect(),
            _ => Vec::new(),
        };
        let values = rng.below(1 << controls.len()) as usize;
        let dim = 1usize << k;
        let scale = 1.0 / (dim as f64).sqrt();
        let entries: Vec<Cplx<F>> = (0..dim * dim)
            .map(|i| match class {
                Class::Diagonal if i % (dim + 1) != 0 => Cplx::zero(),
                _ => Cplx::from_f64(
                    (rng.unit_f64() * 2.0 - 1.0) * scale,
                    (rng.unit_f64() * 2.0 - 1.0) * scale,
                ),
            })
            .collect();
        (qubits, controls, values, GateMatrix::from_slice(dim, &entries))
    }

    /// The states of a gang, one per seed, each a random unit-ish vector.
    fn gang_states<F: Float>(n: usize, members: usize, seed: u64) -> Vec<Vec<Cplx<F>>> {
        let mut rng = proptest::TestRng::from_seed(seed);
        let mut amp = || Cplx::from_f64(rng.unit_f64() - 0.5, rng.unit_f64() - 0.5);
        (0..members).map(|_| (0..1usize << n).map(|_| amp()).collect()).collect()
    }

    type Outcomes = (Vec<(u64, u64)>, usize, Vec<u64>);

    /// Amplitude bits of the `2^live` prefix, then a measurement and
    /// samples drawn from it under one seed.
    fn outcomes<F: Float>(amps: &mut [Cplx<F>], live: usize) -> Outcomes {
        use rand::SeedableRng;
        let bits =
            (amps.iter()).map(|a| (a.re.to_f64().to_bits(), a.im.to_f64().to_bits())).collect();
        let prefix = &mut amps[..1 << live];
        let norm = crate::statespace::norm_sqr(prefix).sqrt();
        let inv = Cplx::from_f64(1.0 / norm, 0.0);
        prefix.iter_mut().for_each(|a| *a *= inv);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let measured = crate::statespace::measure(prefix, &[0, live - 1], &mut rng);
        (bits, measured, crate::statespace::sample(prefix, 8, &mut rng))
    }

    /// Two walks over one gate, on a gang's `2^live` prefixes: the gate
    /// prepared once (scalar uniform tables, owned) and shared by the
    /// gang, against the gate prepared afresh — per-lane tables, borrowed
    /// — for every state of every walk. As a barrier gate through
    /// [`apply_gate_gang`], and, when the gate fits a sweep block, as a
    /// one-gate run through [`apply_run_gang`].
    fn check_prepared_once<F: Float>(
        tier: Tier,
        class: Class,
        k: usize,
        members: usize,
        seed: u64,
    ) {
        let n = 12;
        let mut rng = proptest::TestRng::from_seed(seed);
        let live = if rng.below(2) == 0 { n } else { 10 };
        let block = live - 1;
        let as_run = !matches!(class, Class::Uniform) && rng.below(2) == 0;
        let top = if as_run { block } else { live };
        let (qubits, controls, values, matrix) = draw_gate::<F>(&mut rng, class, k, top);
        let shape = (qubits.as_slice(), controls.as_slice(), values);
        let width = if as_run { block } else { live };
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << block));
        let what = format!("{tier:?} {class:?} {qubits:?} {controls:?} live {live} run {as_run}");

        let kept = gate_on(tier, width, shape, &matrix, false).into_owned();
        let mut batch = StateBatch::<F>::new(n);
        let states = gang_states::<F>(n, members, seed);
        for state in &states {
            let slot = batch.push_state(None).unwrap();
            batch.state_mut(slot).unwrap().copy_from_slice(state);
        }
        let mut fresh = states;
        for _walk in 0..2 {
            if as_run {
                let run = exec.run(1 << live, std::slice::from_ref(&kept));
                assert!(apply_run_gang(&run, &mut batch, &[]).is_empty());
            } else {
                apply_gate_gang(&mut batch, live, &kept);
            }
            for state in &mut fresh {
                let gate = gate_on(tier, width, shape, &matrix, true);
                if as_run {
                    let run = exec.run(1 << live, std::slice::from_ref(&gate));
                    run.apply_to(&mut state[..1 << live], None).unwrap();
                } else {
                    gate.apply_par(&mut state[..1 << live]);
                }
            }
        }
        for (slot, state) in fresh.iter_mut().enumerate() {
            let kept = outcomes(batch.state_mut(slot).unwrap(), live);
            assert!(kept == outcomes(state, live), "member {slot}: {what}");
        }
    }

    /// The portable lanes and every tier the host has.
    fn tiers() -> Vec<Tier> {
        use crate::simd::{detected_isa, Isa};
        let host = [Isa::Avx2, Isa::Avx512].into_iter().filter(|&isa| isa <= detected_isa());
        std::iter::once(None).chain(host.map(Some)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A gate prepared once and applied on every walk is the gate
        /// prepared per run, bit for bit: amplitudes, a measurement and
        /// samples, on every tier, at f32 and f64, for uniform, mixed,
        /// diagonal and controlled gates of 1–6 qubits, on a live prefix
        /// below and at full width, for a gang of 1 and of 4.
        #[test]
        fn prepared_once_equals_prepared_per_run(
            seed in 0u64..u64::MAX,
            class in 0usize..4,
            k in 1usize..=6,
            gang in 0usize..2,
        ) {
            let class = [Class::Uniform, Class::Mixed, Class::Diagonal, Class::Controlled][class];
            let members = [1, 4][gang];
            for tier in tiers() {
                check_prepared_once::<f32>(tier, class, k, members, seed);
                check_prepared_once::<f64>(tier, class, k, members, seed);
            }
        }
    }
}
