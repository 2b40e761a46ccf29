//! Golden amplitudes for the SIMD tile kernel, pinned bit for bit.
//!
//! The tile kernel's contract is that every output amplitude is the sum of
//! its gate columns in ascending order, two FMAs per column per part, so a
//! change to how the kernel blocks rows, groups or registers must not move
//! one bit. `kernel_golden.txt` holds one line per cell — lane tier ×
//! precision × gate class `(k, number of low targets)` × control placement —
//! with a [`StableHasher`] hash of the amplitudes after the gate, recorded
//! before the kernel became a register-blocked micro-kernel. State sizes
//! cycle so that a cell's tile-group count is 1, 2, 4, 8 or 16: below,
//! at and above every block shape.
//!
//! Rows of a hardware tier the host lacks are skipped with a printed note;
//! the portable rows run everywhere — under miri those of at most
//! [`MIRI_MAX_QUBITS`] qubits, which still reach every class.
//!
//! To re-record after an intended change, run the test and replace the
//! tier's rows with the table the failure prints.

use std::fmt::Write as _;
use std::hash::Hasher;

use qsim_core::simd::{detected_isa, Isa, SimdPlan};
use qsim_core::stablehash::StableHasher;
use qsim_core::types::{Cplx, Float};
use qsim_core::GateMatrix;

/// Largest cell the interpreter is asked to apply.
const MIRI_MAX_QUBITS: usize = 9;

fn in_scope(n: usize) -> bool {
    !cfg!(miri) || n <= MIRI_MAX_QUBITS
}

/// The lane backend a row was recorded on.
#[derive(Clone, Copy)]
enum Tier {
    Portable,
    Hardware(Isa),
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Hardware(isa) => isa.name(),
        }
    }

    /// Qubits that live inside one tile at precision `F`.
    fn lane_qubits<F: Float>(self) -> usize {
        match self {
            Tier::Portable => 2,
            Tier::Hardware(isa) => isa.lane_qubits(F::PRECISION),
        }
    }

    fn plan<F: Float>(
        self,
        n: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> Option<SimdPlan<F>> {
        match self {
            Tier::Portable => SimdPlan::new_portable(n, qubits, controls, control_values, matrix),
            Tier::Hardware(isa) => {
                SimdPlan::new_with_isa(isa, n, qubits, controls, control_values, matrix)
            }
        }
    }
}

/// Deterministic generator: the tables must not depend on a crate version.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn next_f64(&mut self) -> f64 {
        self.next_u64() as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// `count` distinct values of `lo..hi`, in draw order.
    fn pick(&mut self, lo: usize, hi: usize, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (lo..hi).collect();
        (0..count).map(|_| pool.swap_remove(self.next_u64() as usize % pool.len())).collect()
    }
}

fn amp_hash<F: Float>(amps: &[Cplx<F>]) -> u64 {
    let mut h = StableHasher::new();
    for a in amps {
        h.write_u64(a.re.to_f64().to_bits());
        h.write_u64(a.im.to_f64().to_bits());
    }
    h.finish()
}

/// One tier × precision block of the table.
fn rows<F: Float>(tier: Tier, out: &mut String) {
    let lambda = tier.lane_qubits::<F>();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ lambda as u64);
    let mut cell = 0usize;
    for k in 1..=6usize {
        for low in 0..=k.min(lambda) {
            for ctrl in ["none", "low", "high", "both"] {
                let low_ctrl = usize::from(ctrl == "low" || ctrl == "both");
                let high_ctrl = usize::from(ctrl == "high" || ctrl == "both");
                if low + low_ctrl > lambda {
                    continue;
                }
                let kh = k - low;
                let n = lambda + kh + high_ctrl + cell % 5;
                cell += 1;

                let lows = rng.pick(0, lambda, low + low_ctrl);
                let highs = rng.pick(lambda, n, kh + high_ctrl);
                let mut qubits: Vec<usize> =
                    lows[..low].iter().chain(&highs[..kh]).copied().collect();
                qubits.sort_unstable();
                let controls: Vec<usize> =
                    lows[low..].iter().chain(&highs[kh..]).copied().collect();
                let control_values = rng.next_u64() as usize & ((1 << controls.len()) - 1);

                let dim = 1usize << k;
                let scale = 1.0 / (dim as f64).sqrt();
                let entries: Vec<Cplx<F>> = (0..dim * dim)
                    .map(|_| Cplx::from_f64(rng.next_f64() * scale, rng.next_f64() * scale))
                    .collect();
                let matrix = GateMatrix::from_slice(dim, &entries);
                let mut amps: Vec<Cplx<F>> = (0..1usize << n)
                    .map(|_| Cplx::from_f64(rng.next_f64(), rng.next_f64()))
                    .collect();
                let mut par = amps.clone();
                // Out-of-scope cells still draw, so later cells keep theirs.
                if !in_scope(n) {
                    continue;
                }

                let plan = tier
                    .plan(n, &qubits, &controls, control_values, &matrix)
                    .expect("every cell is sized to tile");
                plan.apply_seq(&mut amps);
                plan.apply_par(&mut par);
                let hash = amp_hash(&amps);
                assert_eq!(hash, amp_hash(&par), "apply_par differs from apply_seq");
                let _ = writeln!(
                    out,
                    "{} {} k={k} low={low} ctrl={ctrl} n={n} q={qubits:?} c={controls:?}/{control_values} hash={hash:016x}",
                    tier.name(),
                    F::PRECISION,
                );
            }
        }
    }
}

fn check(tier: Tier) {
    if let Tier::Hardware(isa) = tier {
        if isa > detected_isa() {
            println!("kernel_golden: host lacks {}, its rows are skipped", isa.name());
            return;
        }
    }
    let mut actual = String::new();
    rows::<f32>(tier, &mut actual);
    rows::<f64>(tier, &mut actual);
    let prefix = format!("{} ", tier.name());
    let golden: String = include_str!("kernel_golden.txt")
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .filter(|l| {
            let n = l.split(' ').find_map(|f| f.strip_prefix("n=")).expect("row has n=");
            in_scope(n.parse().expect("n= is a number"))
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    if golden != actual {
        for (i, (g, a)) in golden.lines().zip(actual.lines()).enumerate() {
            if g != a {
                eprintln!("first differing row ({i}):\n  golden: {g}\n  actual: {a}");
                break;
            }
        }
        panic!(
            "{} kernel amplitudes moved ({} golden rows, {} actual). Actual table:\n{actual}",
            tier.name(),
            golden.lines().count(),
            actual.lines().count()
        );
    }
}

#[test]
fn portable_simd_kernels_match_golden() {
    check(Tier::Portable);
}

#[test]
fn avx2_simd_kernels_match_golden() {
    check(Tier::Hardware(Isa::Avx2));
}

#[test]
fn avx512_simd_kernels_match_golden() {
    check(Tier::Hardware(Isa::Avx512));
}
