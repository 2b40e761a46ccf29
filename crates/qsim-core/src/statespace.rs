//! State-space operations — the Rust analogue of qsim's `StateSpace`
//! class: norms, inner products, probabilities, sampling, measurement with
//! collapse, and element-wise vector arithmetic. These are the operations
//! the paper's `state_space_cuda_kernels.h → state_space_hip_kernels.h`
//! port contains (reductions, element setting, add/multiply, sampling).
//!
//! The functions the backends run on pooled buffers and gang slots
//! ([`norm_sqr`], [`normalize`], [`sample`], [`measure`]) take an amplitude
//! slice; a [`StateVector`] derefs to one, so `f(&state)` works for both.

use rayon::prelude::*;

use std::ops::Range;

use rand::Rng;

use crate::matrix::extract_bits;
use crate::statevec::StateVector;
use crate::types::{Cplx, Float};

/// Below this state size `probabilities` runs sequentially: the whole
/// state fits in cache and thread fan-out would dominate.
const PAR_THRESHOLD_AMPS: usize = 1 << 12;

/// Chunk length for parallel two-level cumulative scans.
const SCAN_CHUNK_AMPS: usize = 1 << 14;

/// Chunks whose add chains a scan runs side by side. One chain is one
/// dependent `f64` add per amplitude, so alone it waits on the adder's
/// latency; eight in lockstep keep it busy, and each still adds its own
/// amplitudes in index order.
const CHAINS: usize = 8;

/// The index ranges of chunk group `g` (chunks `g·CHAINS..`), clipped to
/// `len` amplitudes: the last group may hold fewer chunks, and a state
/// shorter than one chunk has one short chunk.
fn group_ranges(g: usize, chunks: usize, chunk: usize, len: usize) -> Vec<Range<usize>> {
    (g * CHAINS..((g + 1) * CHAINS).min(chunks))
        .map(|ci| ci * chunk..((ci + 1) * chunk).min(len))
        .collect()
}

/// Per-chunk `Σ|c_i|²` partial sums (in `f64`), computed in parallel.
///
/// Sampling and measurement fold these **in chunk order**: each sum is one
/// add chain over a fixed index range, so the fold is the same on any
/// thread count (a rayon reduction associates by piece) and on any
/// zero-extension of `amps` — trailing `+0` chunks add nothing. That is
/// what lets a backend scan only the live prefix of a state and a sharded
/// run scan the gathered whole, and both draw the same outcomes.
fn chunk_norm_sums<F: Float>(amps: &[Cplx<F>], chunk: usize) -> Vec<f64> {
    let chunks = amps.len().div_ceil(chunk);
    let mut sums = vec![0.0f64; chunks];
    sums.par_chunks_mut(CHAINS).enumerate().with_min_len(1).for_each(|(g, sums)| {
        let ranges = group_ranges(g, chunks, chunk, amps.len());
        let even = ranges.iter().all(|r| r.len() == ranges[0].len());
        match ranges.len() {
            8 if even => norm_chains::<F, 8>(amps, &ranges, sums),
            4 if even => norm_chains::<F, 4>(amps, &ranges, sums),
            2 if even => norm_chains::<F, 2>(amps, &ranges, sums),
            _ => {
                for (r, s) in ranges.chunks(1).zip(sums.chunks_mut(1)) {
                    norm_chains::<F, 1>(amps, r, s);
                }
            }
        }
    });
    sums
}

/// `Σ|c_i|²` over each of `K` equally long `ranges` into `sums`, the `K`
/// add chains in lockstep.
fn norm_chains<F: Float, const K: usize>(
    amps: &[Cplx<F>],
    ranges: &[Range<usize>],
    sums: &mut [f64],
) {
    let rows: [&[Cplx<F>]; K] = std::array::from_fn(|c| &amps[ranges[c].clone()]);
    let len = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == len), "chains of one length");
    let mut acc = [0.0f64; K];
    for i in 0..len {
        for (acc, row) in acc.iter_mut().zip(&rows) {
            *acc += row[i].norm_sqr().to_f64();
        }
    }
    sums.copy_from_slice(&acc);
}

/// Squared 2-norm `Σ|c_i|²` (1.0 for a valid quantum state). Parallel
/// reduction, accumulated in `f64` regardless of state precision.
pub fn norm_sqr<F: Float>(amps: &[Cplx<F>]) -> f64 {
    amps.par_iter().with_min_len(4096).map(|a| a.norm_sqr().to_f64()).sum()
}

/// Rescale the state to unit norm (taken in chunk order, see
/// `chunk_norm_sums`). Panics on the zero vector.
pub fn normalize<F: Float>(amps: &mut [Cplx<F>]) {
    let n: f64 = chunk_norm_sums(amps, SCAN_CHUNK_AMPS).iter().sum();
    assert!(n > 0.0, "cannot normalize the zero vector");
    let inv = F::from_f64(1.0 / n.sqrt());
    amps.par_iter_mut().with_min_len(4096).for_each(|a| *a = a.scale(inv));
}

/// Inner product `⟨a|b⟩ = Σ conj(a_i)·b_i`, accumulated in `f64`.
pub fn inner_product<F: Float>(a: &StateVector<F>, b: &StateVector<F>) -> Cplx<f64> {
    assert_eq!(a.len(), b.len(), "inner product requires equal-size states");
    let (re, im) = a
        .amplitudes()
        .par_iter()
        .zip(b.amplitudes().par_iter())
        .with_min_len(4096)
        .map(|(x, y)| {
            let p = x.to_f64().conj() * y.to_f64();
            (p.re, p.im)
        })
        .reduce(|| (0.0, 0.0), |u, v| (u.0 + v.0, u.1 + v.1));
    Cplx::new(re, im)
}

/// Fidelity `|⟨a|b⟩|²` between two (normalized) states.
pub fn fidelity<F: Float>(a: &StateVector<F>, b: &StateVector<F>) -> f64 {
    inner_product(a, b).norm_sqr()
}

/// Element-wise `dst += src` (qsim's `Add`).
pub fn add_assign<F: Float>(dst: &mut StateVector<F>, src: &StateVector<F>) {
    assert_eq!(dst.len(), src.len(), "add requires equal-size states");
    dst.amplitudes_mut()
        .par_iter_mut()
        .zip(src.amplitudes().par_iter())
        .with_min_len(4096)
        .for_each(|(d, s)| *d += *s);
}

/// Scale every amplitude by a real factor (qsim's `Multiply`).
pub fn scale<F: Float>(state: &mut StateVector<F>, factor: f64) {
    let f = F::from_f64(factor);
    state.amplitudes_mut().par_iter_mut().with_min_len(4096).for_each(|a| *a = a.scale(f));
}

/// Probability that measuring `qubit` yields `|1⟩`.
pub fn prob_one<F: Float>(state: &StateVector<F>, qubit: usize) -> f64 {
    assert!(qubit < state.num_qubits(), "qubit out of range");
    let mask = 1usize << qubit;
    state
        .amplitudes()
        .par_iter()
        .enumerate()
        .with_min_len(4096)
        .filter(|(i, _)| i & mask != 0)
        .map(|(_, a)| a.norm_sqr().to_f64())
        .sum()
}

/// Expectation value of Pauli-Z on `qubit`: `P(0) - P(1)`.
pub fn expectation_z<F: Float>(state: &StateVector<F>, qubit: usize) -> f64 {
    1.0 - 2.0 * prob_one(state, qubit)
}

/// Full probability distribution over basis states (allocates `2^n`
/// doubles — mind the memory at large `n`). Parallel above
/// a small-state threshold.
pub fn probabilities<F: Float>(state: &StateVector<F>) -> Vec<f64> {
    let amps = state.amplitudes();
    if amps.len() < PAR_THRESHOLD_AMPS {
        return amps.iter().map(|a| a.norm_sqr().to_f64()).collect();
    }
    let mut out = vec![0.0f64; amps.len()];
    out.par_iter_mut()
        .zip(amps.par_iter())
        .with_min_len(4096)
        .for_each(|(p, a)| *p = a.norm_sqr().to_f64());
    out
}

/// Draw `num_samples` basis-state indices distributed as `|c_i|²` — the
/// RQC *sampling* step of the paper's benchmark. Sorting the uniforms
/// first makes this a single cumulative pass over the state (qsim's
/// `SampleKernel` strategy), O(N + m·log m).
///
/// Two passes, both chunk-parallel: per-chunk probability masses, whose
/// prefix in chunk order gives the state's total mass and assigns each
/// sorted target to its chunk; then the chunks resolve their own targets
/// concurrently. The uniforms are scaled by the total once (slightly
/// unnormalized states are tolerated) rather than every amplitude divided
/// by it. The result is the same on any thread count and on any
/// zero-extension of `amps`.
pub fn sample<F: Float, R: Rng + ?Sized>(
    amps: &[Cplx<F>],
    num_samples: usize,
    rng: &mut R,
) -> Vec<u64> {
    if num_samples == 0 {
        return Vec::new();
    }
    let chunk = SCAN_CHUNK_AMPS;
    let sums = chunk_norm_sums(amps, chunk);
    // Exclusive prefix of the chunk masses: chunk `ci` owns cumulative
    // range [starts[ci], starts[ci + 1]).
    let mut starts = Vec::with_capacity(sums.len() + 1);
    let mut total = 0.0f64;
    for s in &sums {
        starts.push(total);
        total += s;
    }
    starts.push(total);

    // (uniform scaled to the total mass, original position), sorted.
    let mut targets: Vec<(f64, usize)> =
        (0..num_samples).map(|s| (rng.gen::<f64>() * total, s)).collect();
    targets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("uniforms are finite"));

    // Each chunk resolves its own target range (disjoint by construction)
    // into (original sample position, basis index) pairs. A group's chunks
    // that own targets run side by side, each until its last target
    // resolves; the order of a chunk's own adds is the sequential one.
    let chunks = sums.len();
    let mut per_chunk: Vec<Vec<(usize, u64)>> = vec![Vec::new(); chunks];
    per_chunk.par_chunks_mut(CHAINS).enumerate().with_min_len(1).for_each(|(g, resolved)| {
        let mut open: Vec<Chain<'_, F>> = Vec::with_capacity(CHAINS);
        for (slot, r) in group_ranges(g, chunks, chunk, amps.len()).into_iter().enumerate() {
            let ci = g * CHAINS + slot;
            let t0 = targets.partition_point(|t| t.0 < starts[ci]);
            // The last chunk also absorbs round-off targets ≥ the total mass.
            let t1 = if ci + 1 == chunks {
                num_samples
            } else {
                targets.partition_point(|t| t.0 < starts[ci + 1])
            };
            if t0 < t1 {
                resolved[slot].reserve(t1 - t0);
                let (at, rest) = (r.start, &amps[r]);
                open.push(Chain { slot, rest, at, cum: starts[ci], t: t0, t1 });
            }
        }
        while !open.is_empty() {
            match open.len() {
                8.. => advance::<F, 8>(&mut open[..8], &targets, resolved),
                4..=7 => advance::<F, 4>(&mut open[..4], &targets, resolved),
                2 | 3 => advance::<F, 2>(&mut open[..2], &targets, resolved),
                _ => advance::<F, 1>(&mut open[..1], &targets, resolved),
            }
            open.retain(|ch| {
                if ch.t < ch.t1 && !ch.rest.is_empty() {
                    return true;
                }
                // In-chunk round-off tail → the chunk's last amplitude.
                let last = (ch.at - 1) as u64;
                resolved[ch.slot].extend(targets[ch.t..ch.t1].iter().map(|&(_, pos)| (pos, last)));
                false
            });
        }
    });
    let mut out = vec![0u64; num_samples];
    for (pos, idx) in per_chunk.into_iter().flatten() {
        out[pos] = idx;
    }
    out
}

/// A chunk resolving its sorted targets `t..t1`: the amplitudes it has yet
/// to add, the first at basis index `at`, and its running mass.
struct Chain<'a, F> {
    slot: usize,
    rest: &'a [Cplx<F>],
    at: usize,
    cum: f64,
    t: usize,
    t1: usize,
}

/// Advance `K` open chains side by side until one resolves its last
/// target or runs out of amplitudes, pushing `(sample position, basis
/// index)` pairs into `resolved[slot]`.
fn advance<F: Float, const K: usize>(
    chains: &mut [Chain<'_, F>],
    targets: &[(f64, usize)],
    resolved: &mut [Vec<(usize, u64)>],
) {
    let chains: &mut [Chain<'_, F>; K] = chains.try_into().expect("K open chains");
    let steps = chains.iter().map(|ch| ch.rest.len()).min().unwrap_or(0);
    let mut cum: [f64; K] = std::array::from_fn(|c| chains[c].cum);
    let mut next: [f64; K] = std::array::from_fn(|c| targets[chains[c].t].0);
    let mut s = 0;
    while s < steps {
        let mut closed = false;
        for (c, ch) in chains.iter_mut().enumerate() {
            cum[c] += ch.rest[s].norm_sqr().to_f64();
            if next[c] < cum[c] {
                while ch.t < ch.t1 && targets[ch.t].0 < cum[c] {
                    resolved[ch.slot].push((targets[ch.t].1, (ch.at + s) as u64));
                    ch.t += 1;
                }
                match targets[ch.t..ch.t1].first() {
                    Some(t) => next[c] = t.0,
                    None => closed = true,
                }
            }
        }
        s += 1;
        if closed {
            break;
        }
    }
    for (ch, cum) in chains.iter_mut().zip(cum) {
        ch.cum = cum;
        ch.rest = &ch.rest[s..];
        ch.at += s;
    }
}

/// Measure `qubits` (distinct, in any order), collapse the state
/// accordingly, and return the measured bits (bit `j` of the result =
/// outcome of `qubits[j]`). This is qsim's destructive `Measure`.
///
/// The outcome is drawn by inverse-CDF over the **marginal** distribution
/// of the measured qubits, so for a fixed rng draw it depends only on the
/// measured qubits' reduced state — unitaries on the other qubits (in
/// particular gates a fusion plan legally hoists across the measurement
/// barrier) cannot change which outcome a given seed produces.
pub fn measure<F: Float, R: Rng + ?Sized>(
    amps: &mut [Cplx<F>],
    qubits: &[usize],
    rng: &mut R,
) -> usize {
    let n = amps.len().trailing_zeros() as usize;
    assert!(!qubits.is_empty(), "measure requires at least one qubit");
    assert!(qubits.iter().all(|&q| q < n), "qubit out of range");
    let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
    assert_eq!(mask.count_ones() as usize, qubits.len(), "measured qubits must be distinct");

    // Accumulate the per-outcome ("sector") masses of the measured qubits'
    // marginal distribution, then inverse-CDF over the 2^k sectors. Drawing
    // from the marginal — rather than picking a full basis state from the
    // joint distribution — keeps the outcome for a given rng draw invariant
    // under unitaries acting on the unmeasured qubits, so differently fused
    // plans of one circuit reproduce identical measurement records.
    let sectors = 1usize << qubits.len();
    // Per-chunk sector masses, folded in chunk order for the reason
    // `chunk_norm_sums` gives. Chunks grow with the sector count so the
    // per-chunk tables stay under a sixteenth of the amplitudes.
    let chunk = SCAN_CHUNK_AMPS.max(sectors << 4);
    let mut per_chunk = vec![0.0f64; amps.len().div_ceil(chunk) * sectors];
    per_chunk.par_chunks_mut(sectors).enumerate().with_min_len(1).for_each(|(ci, m)| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(amps.len());
        for (i, a) in amps[lo..hi].iter().enumerate() {
            m[extract_bits(lo + i, qubits)] += a.norm_sqr().to_f64();
        }
    });
    let mut masses = vec![0.0f64; sectors];
    for m in per_chunk.chunks(sectors) {
        for (x, y) in masses.iter_mut().zip(m) {
            *x += y;
        }
    }
    let r: f64 = rng.gen::<f64>() * masses.iter().sum::<f64>();
    let mut outcome = usize::MAX;
    let mut cum = 0.0;
    for (s, &m) in masses.iter().enumerate() {
        cum += m;
        if r < cum {
            outcome = s;
            break;
        }
    }
    if outcome == usize::MAX || masses[outcome] == 0.0 {
        // Round-off overshoot: land on the last sector that carries mass.
        outcome = masses.iter().rposition(|&m| m > 0.0).unwrap_or(0);
    }

    // Collapse: zero every amplitude whose measured bits differ.
    let want: usize = qubits.iter().enumerate().map(|(j, &q)| ((outcome >> j) & 1) << q).sum();
    amps.par_iter_mut().enumerate().with_min_len(4096).for_each(|(i, a)| {
        if i & mask != want {
            *a = Cplx::zero();
        }
    });
    normalize(amps);
    outcome
}

/// Linear cross-entropy benchmarking fidelity estimator used for RQC
/// sampling experiments: `F_XEB = 2^n · ⟨P(s)⟩ - 1` over measured
/// bitstrings `s`, where `P` is the ideal output distribution. Equal to
/// ~1 for samples drawn from the ideal simulation of a deep random
/// circuit, ~0 for uniform noise.
pub fn linear_xeb<F: Float>(state: &StateVector<F>, samples: &[u64]) -> f64 {
    assert!(!samples.is_empty(), "XEB requires samples");
    let n = state.num_qubits() as f64;
    let mean_p: f64 =
        samples.iter().map(|&s| state.amplitude(s as usize).norm_sqr().to_f64()).sum::<f64>()
            / samples.len() as f64;
    2f64.powf(n) * mean_p - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::apply_gate_seq;
    use crate::matrix::GateMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type SV = StateVector<f64>;

    fn h_matrix() -> GateMatrix<f64> {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    /// Every index `sample` draws, digested over a one-chunk state (10
    /// qubits), a partial group of chunks (16 qubits: 4 chunks), whole
    /// groups (18 and 20 qubits), and a 14-qubit state zero-extended to 17,
    /// at both precisions and 1 / 32 / 1 000 / 20 000 shots. Recorded
    /// before the scans ran their chunks side by side: a chunk whose adds
    /// change order moves it.
    #[test]
    fn sample_digest_matches_the_recorded_golden() {
        use std::hash::Hasher;
        const GOLDEN: u64 = 7440263836180011019;
        fn state<F: Float>(n: usize, live: usize, seed: u64) -> Vec<Cplx<F>> {
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            (0..1usize << n)
                .map(|i| if i < 1 << live { Cplx::from_f64(next(), next()) } else { Cplx::zero() })
                .collect()
        }
        let mut digest = crate::stablehash::StableHasher::new();
        for (n, live) in [(10, 10), (16, 16), (18, 18), (20, 20), (17, 14)] {
            for shots in [1, 32, 1_000, 20_000] {
                let seed = (n * 100_000 + shots) as u64;
                let drawn = [
                    sample(&state::<f64>(n, live, seed), shots, &mut StdRng::seed_from_u64(seed)),
                    sample(&state::<f32>(n, live, seed), shots, &mut StdRng::seed_from_u64(seed)),
                ];
                for samples in drawn {
                    digest.write_u64(samples.len() as u64);
                    samples.iter().for_each(|&s| digest.write_u64(s));
                }
            }
        }
        assert_eq!(digest.finish(), GOLDEN);
    }

    #[test]
    fn fresh_state_has_unit_norm() {
        assert!((norm_sqr(&SV::new(5)) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_scales_correctly() {
        let mut sv = SV::new(3);
        scale(&mut sv, 3.0);
        assert!((norm_sqr(&sv) - 9.0).abs() < 1e-12);
        normalize(&mut sv);
        assert!((norm_sqr(&sv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let mut a = SV::new(2);
        let mut b = SV::new(2);
        a.set_basis_state(1);
        b.set_basis_state(2);
        assert_eq!(inner_product(&a, &b), Cplx::new(0.0, 0.0));
        assert_eq!(inner_product(&a, &a), Cplx::new(1.0, 0.0));
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut sv = SV::new(4);
        for q in 0..4 {
            apply_gate_seq(&mut sv, &[q], &h_matrix());
        }
        assert!((fidelity(&sv, &sv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let mut a = SV::new(2);
        let b = SV::new(2);
        add_assign(&mut a, &b);
        assert_eq!(a.amplitude(0), Cplx::new(2.0, 0.0));
        scale(&mut a, 0.5);
        assert_eq!(a.amplitude(0), Cplx::new(1.0, 0.0));
    }

    #[test]
    fn prob_one_on_basis_states() {
        let mut sv = SV::new(3);
        sv.set_basis_state(0b101);
        assert_eq!(prob_one(&sv, 0), 1.0);
        assert_eq!(prob_one(&sv, 1), 0.0);
        assert_eq!(prob_one(&sv, 2), 1.0);
        assert_eq!(expectation_z(&sv, 1), 1.0);
        assert_eq!(expectation_z(&sv, 0), -1.0);
    }

    #[test]
    fn prob_one_after_hadamard_is_half() {
        let mut sv = SV::new(2);
        apply_gate_seq(&mut sv, &[1], &h_matrix());
        assert!((prob_one(&sv, 1) - 0.5).abs() < 1e-15);
        assert!((prob_one(&sv, 0)).abs() < 1e-15);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut sv = SV::new(5);
        for q in 0..5 {
            apply_gate_seq(&mut sv, &[q], &h_matrix());
        }
        let p = probabilities(&sv);
        assert_eq!(p.len(), 32);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_deterministic_state() {
        let mut sv = SV::new(3);
        sv.set_basis_state(5);
        let mut rng = StdRng::seed_from_u64(7);
        let s = sample(&sv, 100, &mut rng);
        assert!(s.iter().all(|&x| x == 5));
    }

    #[test]
    fn sampling_matches_distribution() {
        // H on qubit 0 of 1-qubit state: P(0)=P(1)=1/2.
        let mut sv = SV::new(1);
        apply_gate_seq(&mut sv, &[0], &h_matrix());
        let mut rng = StdRng::seed_from_u64(42);
        let s = sample(&sv, 20_000, &mut rng);
        let ones = s.iter().filter(|&&x| x == 1).count() as f64;
        let frac = ones / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "fraction of ones {frac}");
    }

    #[test]
    fn sample_zero_requests() {
        let sv = SV::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample(&sv, 0, &mut rng).is_empty());
    }

    #[test]
    fn measure_collapses_state() {
        let mut sv = SV::new(2);
        apply_gate_seq(&mut sv, &[0], &h_matrix());
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = measure(&mut sv, &[0], &mut rng);
        // After collapse, state must be the pure basis state |outcome⟩.
        assert!((norm_sqr(&sv) - 1.0).abs() < 1e-12);
        assert!((sv.amplitude(outcome).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_statistics() {
        // Measuring qubit 0 of H|0⟩ must give ~50/50 over many seeds.
        let mut ones = 0;
        for seed in 0..400 {
            let mut sv = SV::new(1);
            apply_gate_seq(&mut sv, &[0], &h_matrix());
            let mut rng = StdRng::seed_from_u64(seed);
            ones += measure(&mut sv, &[0], &mut rng);
        }
        let frac = ones as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.1, "fraction {frac}");
    }

    #[test]
    fn measure_multiple_qubits_of_bell_state() {
        // Bell state: measured bits of qubits {0,1} must be equal.
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let amps =
            vec![Cplx::new(h, 0.0), Cplx::new(0.0, 0.0), Cplx::new(0.0, 0.0), Cplx::new(h, 0.0)];
        for seed in 0..50 {
            let mut sv = SV::from_amplitudes(amps.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let m = measure(&mut sv, &[0, 1], &mut rng);
            assert!(m == 0b00 || m == 0b11, "Bell measurement gave {m:02b}");
        }
    }

    /// Measuring qubits where a bit permutation moved them — their new
    /// positions listed in the qubits' order — draws the outcome the
    /// unpermuted state draws for the same seed, and collapses alike: how
    /// a sharded walk measures qubits wherever their slots now are.
    #[test]
    fn measuring_moved_qubits_in_their_order_matches_the_unmoved_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let amps: Vec<Cplx<f64>> = (0..8).map(|_| Cplx::new(rng.gen(), rng.gen())).collect();
        // Qubits 0 and 2 trade places: index bits 0 and 2 swap.
        let moved = |i: usize| i & 0b010 | (i & 1) << 2 | (i >> 2) & 1;
        for seed in 0..20 {
            let mut home = SV::from_amplitudes(amps.clone());
            let mut away = SV::from_amplitudes((0..8).map(|i| amps[moved(i)]).collect::<Vec<_>>());
            let a = measure(&mut home, &[0, 2], &mut StdRng::seed_from_u64(seed));
            let b = measure(&mut away, &[2, 0], &mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b, "seed {seed}");
            assert!((0..8).all(|i| away.amplitude(i) == home.amplitude(moved(i))));
        }
    }

    #[test]
    fn xeb_of_ideal_samples_is_near_one_for_random_state() {
        // A Porter-Thomas-like state: every amplitude random normal.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        let n = 10;
        let mut sv = SV::new(n);
        for a in sv.amplitudes_mut() {
            // Box-Muller normals
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            *a = Cplx::new(
                r * (2.0 * std::f64::consts::PI * u2).cos(),
                r * (2.0 * std::f64::consts::PI * u2).sin(),
            );
        }
        normalize(&mut sv);
        let samples = sample(&sv, 5000, &mut rng);
        let xeb = linear_xeb(&sv, &samples);
        assert!(xeb > 0.7 && xeb < 1.4, "ideal-sample XEB should be ~1, got {xeb}");

        // Uniform (wrong) samples score ~0.
        let uniform: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..(1u64 << n))).collect();
        let xeb0 = linear_xeb(&sv, &uniform);
        assert!(xeb0.abs() < 0.3, "uniform-sample XEB should be ~0, got {xeb0}");
    }

    #[test]
    fn parallel_sampling_matches_distribution_on_large_state() {
        // 16 qubits = 4 chunks of the two-level scan. A basis state with
        // known nonuniform probabilities: H on the top two qubits after
        // an X-like rotation is overkill — just craft amplitudes.
        let n = 16;
        let len = 1usize << n;
        let mut sv = SV::new(n);
        // Mass 1/2 on index 0, 1/2 spread uniformly over the upper half.
        let h = (0.5f64).sqrt();
        let u = (0.5f64 / (len / 2) as f64).sqrt();
        {
            let amps = sv.amplitudes_mut();
            amps[0] = Cplx::new(h, 0.0);
            for a in amps[len / 2..].iter_mut() {
                *a = Cplx::new(u, 0.0);
            }
        }
        let mut rng = StdRng::seed_from_u64(9);
        let s = sample(&sv, 40_000, &mut rng);
        let zeros = s.iter().filter(|&&x| x == 0).count() as f64 / 40_000.0;
        let upper = s.iter().filter(|&&x| x >= (len / 2) as u64).count() as f64 / 40_000.0;
        assert!((zeros - 0.5).abs() < 0.02, "P(0) sampled at {zeros}");
        assert!((upper - 0.5).abs() < 0.02, "P(upper half) sampled at {upper}");
        assert_eq!(zeros + upper, 1.0, "no sample outside the support");
    }

    #[test]
    fn parallel_sampling_deterministic_large_state() {
        // Every target lands in one chunk; all others resolve nothing.
        let n = 15;
        let mut sv = SV::new(n);
        sv.set_basis_state(29_999);
        let mut rng = StdRng::seed_from_u64(7);
        let s = sample(&sv, 1000, &mut rng);
        assert!(s.iter().all(|&x| x == 29_999));
    }

    #[test]
    fn parallel_measure_matches_statistics_on_large_state() {
        // Measure the top qubit of H|0⟩ ⊗ |0…0⟩ on a 13-qubit state (big
        // enough for the two-level pick path).
        let n = 13;
        let mut ones = 0;
        for seed in 0..200 {
            let mut sv = SV::new(n);
            apply_gate_seq(&mut sv, &[n - 1], &h_matrix());
            let mut rng = StdRng::seed_from_u64(seed);
            ones += measure(&mut sv, &[n - 1], &mut rng);
            assert!((norm_sqr(&sv) - 1.0).abs() < 1e-12);
        }
        let frac = ones as f64 / 200.0;
        assert!((frac - 0.5).abs() < 0.12, "fraction {frac}");
    }

    /// Sampling and measurement see only chunk-ordered sums, so a state and
    /// its zero-extension (what a backend's live prefix is to the whole
    /// buffer) draw the same samples and collapse to the same bits — on
    /// any thread count.
    #[test]
    fn sample_and_measure_ignore_a_zero_extension() {
        use rand::Rng;
        let (n, wide) = (15, 18); // two scan chunks, extended to sixteen
        let mut rng = StdRng::seed_from_u64(5);
        let mut prefix = SV::new(n);
        for a in prefix.amplitudes_mut() {
            *a = Cplx::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
        }
        normalize(&mut prefix);
        let mut full = SV::new(wide);
        full.amplitudes_mut()[..1 << n].copy_from_slice(prefix.amplitudes());

        let draw = |sv: &SV| sample(sv, 500, &mut StdRng::seed_from_u64(21));
        assert_eq!(draw(&prefix), draw(&full));

        let qubits = [3, 9, 14];
        let (mut r1, mut r2) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        assert_eq!(measure(&mut prefix, &qubits, &mut r1), measure(&mut full, &qubits, &mut r2));
        assert_eq!(prefix.amplitudes(), &full.amplitudes()[..1 << n]);
        assert!(full.amplitudes()[1 << n..].iter().all(|a| *a == Cplx::zero()));
    }

    #[test]
    fn probabilities_parallel_path_matches_sequential() {
        let n = 13; // above the parallel threshold
        let mut sv = SV::new(n);
        for q in 0..n {
            apply_gate_seq(&mut sv, &[q], &h_matrix());
        }
        let p = probabilities(&sv);
        assert_eq!(p.len(), 1 << n);
        let expect = 1.0 / (1 << n) as f64;
        assert!(p.iter().all(|&x| (x - expect).abs() < 1e-15));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-size")]
    fn inner_product_size_mismatch() {
        let _ = inner_product(&SV::new(2), &SV::new(3));
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_vector_panics() {
        let mut sv = SV::new(2);
        scale(&mut sv, 0.0);
        normalize(&mut sv);
    }
}
