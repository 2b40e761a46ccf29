//! Time-sliced quantum circuits.
//!
//! A [`Circuit`] is an ordered list of [`GateOp`]s over `num_qubits`
//! qubits. Each op carries a *time slice* (qsim's first column): gates in
//! the same slice act on disjoint qubits and commute; the fuser and the
//! simulators rely on ops being sorted by time.

use qsim_core::diag::{Diagnostic, Span};
use qsim_core::matrix::GateMatrix;
use qsim_core::types::Float;

use crate::gates::{permute_matrix_bits, GateKind};

/// One gate application in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOp {
    /// Time slice (qsim's leading column; monotone non-decreasing in a
    /// valid circuit).
    pub time: usize,
    /// Which gate.
    pub kind: GateKind,
    /// Target qubits in the gate's listed order (e.g. `[control, target]`
    /// for `cnot`).
    pub qubits: Vec<usize>,
    /// Optional extra control qubits (C++-API-level controls; qsim's text
    /// format has none, so the parser always leaves this empty).
    pub controls: Vec<usize>,
}

impl GateOp {
    /// Uncontrolled gate op.
    pub fn new(time: usize, kind: GateKind, qubits: Vec<usize>) -> Self {
        GateOp { time, kind, qubits, controls: Vec::new() }
    }

    /// Gate op with extra control qubits (all required to be `|1⟩`).
    pub fn with_controls(
        time: usize,
        kind: GateKind,
        qubits: Vec<usize>,
        controls: Vec<usize>,
    ) -> Self {
        GateOp { time, kind, qubits, controls }
    }

    /// Whether this is a measurement pseudo-gate.
    pub fn is_measurement(&self) -> bool {
        self.kind == GateKind::Measurement
    }

    /// The gate's unitary re-expressed over **sorted** target qubits:
    /// returns `(sorted_qubits, matrix)` in the convention the kernels
    /// require (bit `j` ↔ `sorted_qubits[j]`). `None` for measurement.
    pub fn sorted_matrix<F: Float>(&self) -> Option<(Vec<usize>, GateMatrix<F>)> {
        let m = self.kind.matrix::<F>()?;
        let mut sorted = self.qubits.clone();
        sorted.sort_unstable();
        if sorted == self.qubits {
            return Some((sorted, m));
        }
        // perm[j] = position of qubits[j] in the sorted list.
        let perm: Vec<usize> = self
            .qubits
            .iter()
            .map(|q| sorted.iter().position(|s| s == q).expect("qubit present"))
            .collect();
        Some((sorted, permute_matrix_bits(&m, &perm)))
    }
}

/// An `n`-qubit circuit: an ordered gate list plus metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    /// Number of qubits.
    pub num_qubits: usize,
    /// Gate operations in execution order.
    pub ops: Vec<GateOp>,
}

impl Circuit {
    /// Empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, ops: Vec::new() }
    }

    /// Append a gate at an explicit time slice.
    pub fn add(&mut self, time: usize, kind: GateKind, qubits: &[usize]) -> &mut Self {
        self.ops.push(GateOp::new(time, kind, qubits.to_vec()));
        self
    }

    /// Append a gate one time slice after the current last op.
    pub fn push(&mut self, kind: GateKind, qubits: &[usize]) -> &mut Self {
        let t = self.ops.last().map_or(0, |op| op.time + 1);
        self.add(t, kind, qubits)
    }

    /// Total gate count (including measurements).
    pub fn num_gates(&self) -> usize {
        self.ops.len()
    }

    /// Number of distinct time slices used.
    pub fn depth(&self) -> usize {
        let mut times: Vec<usize> = self.ops.iter().map(|op| op.time).collect();
        times.sort_unstable();
        times.dedup();
        times.len()
    }

    /// `(single_qubit, two_qubit, measurement)` gate counts — the workload
    /// statistics the benchmark harnesses report.
    pub fn gate_counts(&self) -> (usize, usize, usize) {
        let mut one = 0;
        let mut two = 0;
        let mut meas = 0;
        for op in &self.ops {
            if op.is_measurement() {
                meas += 1;
            } else if op.qubits.len() == 1 {
                one += 1;
            } else {
                two += 1;
            }
        }
        (one, two, meas)
    }

    /// Order-sensitive structural hash of the circuit: qubit count and,
    /// per op, time, gate kind (with bit-exact rotation parameters),
    /// targets, and controls. Circuits with equal hashes describe the
    /// same computation, so the serve layer can treat hash-equal
    /// Batch-class submissions as one gang (the parameters are hashed via
    /// `f64::to_bits`, so `Rz(0.1)` and `Rz(0.1 + 1e-17)` differ).
    ///
    /// Every variable-length field is hashed with an explicit length
    /// prefix (`write_u64` of the count before the elements) so adjacent
    /// fields cannot alias: without the prefixes, `qubits=[1,2],
    /// controls=[3]` and `qubits=[1], controls=[2,3]` would feed the
    /// hasher identical byte streams, as would a gate whose mnemonic is a
    /// prefix of another's concatenated with its first operand bytes.
    /// Injectivity of the encoding must not lean on `Hash` impl details
    /// of `str`/`Vec` (str's 0xFF terminator, slice length prefixes) —
    /// those are std implementation details, not contracts.
    ///
    /// The hasher is [`qsim_core::stablehash::StableHasher`], not
    /// `DefaultHasher`: these hashes are cache keys in the serve
    /// layer's plan and result caches, so they must be identical across
    /// platforms, toolchains and process restarts — SipHash is only
    /// "deterministic until std changes it".
    pub fn content_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = qsim_core::stablehash::StableHasher::new();
        h.write_u64(self.num_qubits as u64);
        h.write_u64(self.ops.len() as u64);
        for op in &self.ops {
            h.write_u64(op.time as u64);
            // The mnemonic is unique per gate kind, and parameters are
            // hashed bit-exact, so this is injective on (discriminant,
            // parameter bits) up to NaN payloads. Hashing the static
            // mnemonic beats formatting the Debug form: submit-side
            // hashing is on the serve layer's hot path.
            let name = op.kind.name();
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            let (params, count) = op.kind.params_fixed();
            h.write_u64(count as u64);
            for p in &params[..count] {
                h.write_u64(p.to_bits());
            }
            h.write_u64(op.qubits.len() as u64);
            for &q in &op.qubits {
                h.write_u64(q as u64);
            }
            h.write_u64(op.controls.len() as u64);
            for &c in &op.controls {
                h.write_u64(c as u64);
            }
        }
        h.finish()
    }

    /// Validate structural invariants, reporting **every** violation as a
    /// typed [`Diagnostic`]: qubits in range and distinct per op, gate
    /// arity matching, times monotone non-decreasing, and no two gates
    /// sharing a qubit within one time slice.
    ///
    /// Diagnostic codes emitted here (all [`qsim_core::diag::Severity::Error`]):
    ///
    /// | Code | Invariant |
    /// |---|---|
    /// | `QC0001` | gate arity matches its operand count |
    /// | `QC0002` | every qubit index is `< num_qubits` |
    /// | `QC0003` | no qubit is repeated within one op's operands |
    /// | `QC0004` | control qubits do not overlap target qubits |
    /// | `QC0005` | op times are monotone non-decreasing |
    /// | `QC0006` | no qubit is touched twice within one time slice |
    pub fn validate(&self) -> Result<(), Vec<Diagnostic>> {
        let mut diags = Vec::new();
        let mut last_time = 0usize;
        let mut slice_qubits: Vec<usize> = Vec::new();
        let mut slice_time = usize::MAX;
        // One op's sorted targets, then its sorted targets ∪ controls.
        let mut qs: Vec<usize> = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let span = Span::op(i, op.time);
            if !op.is_measurement() && op.qubits.len() != op.kind.num_qubits() {
                diags.push(Diagnostic::error(
                    codes::ARITY_MISMATCH,
                    span,
                    format!(
                        "gate '{}' expects {} qubit(s), got {}",
                        op.kind.name(),
                        op.kind.num_qubits(),
                        op.qubits.len()
                    ),
                ));
            }
            for &q in op.qubits.iter().chain(op.controls.iter()) {
                if q >= self.num_qubits {
                    diags.push(
                        Diagnostic::error(
                            codes::QUBIT_OUT_OF_RANGE,
                            span,
                            format!("qubit {q} out of range (n={})", self.num_qubits),
                        )
                        .with_help(format!("the circuit declares {} qubit(s)", self.num_qubits)),
                    );
                }
            }
            qs.clear();
            qs.extend_from_slice(&op.qubits);
            qs.sort_unstable();
            if qs.windows(2).any(|w| w[0] == w[1]) {
                diags.push(Diagnostic::error(
                    codes::DUPLICATE_QUBIT,
                    span,
                    format!("repeated qubit in operands {:?}", op.qubits),
                ));
            }
            if let Some(&c) = op.controls.iter().find(|c| op.qubits.contains(c)) {
                diags.push(
                    Diagnostic::error(
                        codes::CONTROL_TARGET_OVERLAP,
                        span,
                        format!("control qubit {c} is also a target"),
                    )
                    .with_help("a gate cannot be controlled on a qubit it acts on"),
                );
            }
            if op.time < last_time {
                diags.push(Diagnostic::error(
                    codes::TIME_REGRESSION,
                    span,
                    format!("time {} decreases (previous op at {})", op.time, last_time),
                ));
            }
            if op.time != slice_time {
                slice_time = op.time;
                slice_qubits.clear();
            }
            qs.extend_from_slice(&op.controls);
            qs.sort_unstable();
            qs.dedup();
            for &q in &qs {
                if slice_qubits.contains(&q) {
                    diags.push(Diagnostic::error(
                        codes::SLICE_CONFLICT,
                        span,
                        format!("qubit {q} used twice in time slice {}", op.time),
                    ));
                }
                slice_qubits.push(q);
            }
            last_time = last_time.max(op.time);
        }
        if diags.is_empty() {
            Ok(())
        } else {
            Err(diags)
        }
    }
}

/// Stable diagnostic codes for [`Circuit::validate`] (range `QC00xx`; see
/// [`qsim_core::diag`] for the allocation scheme).
pub mod codes {
    /// Gate arity does not match its operand count.
    pub const ARITY_MISMATCH: &str = "QC0001";
    /// Qubit index `>= num_qubits`.
    pub const QUBIT_OUT_OF_RANGE: &str = "QC0002";
    /// Qubit repeated within one op's target operands.
    pub const DUPLICATE_QUBIT: &str = "QC0003";
    /// Control qubit also appears as a target.
    pub const CONTROL_TARGET_OVERLAP: &str = "QC0004";
    /// Op time decreases relative to a preceding op.
    pub const TIME_REGRESSION: &str = "QC0005";
    /// Qubit touched by two ops in the same time slice.
    pub const SLICE_CONFLICT: &str = "QC0006";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_advances_time() {
        let mut c = Circuit::new(2);
        c.push(GateKind::H, &[0]).push(GateKind::Cz, &[0, 1]);
        assert_eq!(c.ops[0].time, 0);
        assert_eq!(c.ops[1].time, 1);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn gate_counts_split() {
        let mut c = Circuit::new(3);
        c.add(0, GateKind::H, &[0]);
        c.add(0, GateKind::H, &[1]);
        c.add(1, GateKind::Cz, &[0, 1]);
        c.add(2, GateKind::Measurement, &[2]);
        assert_eq!(c.gate_counts(), (2, 1, 1));
    }

    #[test]
    fn content_hash_is_stable_and_param_sensitive() {
        let mut a = Circuit::new(3);
        a.add(0, GateKind::H, &[0]);
        a.add(1, GateKind::Rz(0.25), &[1]);
        let mut b = Circuit::new(3);
        b.add(0, GateKind::H, &[0]);
        b.add(1, GateKind::Rz(0.25), &[1]);
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = Circuit::new(3);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Rz(0.25 + 1e-15), &[1]);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn content_hash_does_not_alias_qubits_into_controls() {
        // Same gate kind, same concatenated operand list [1, 2, 3] — only
        // the qubits/controls boundary differs. Without explicit length
        // prefixes the two ops would feed the hasher the same stream.
        let mut a = Circuit::new(4);
        a.ops.push(GateOp::with_controls(0, GateKind::H, vec![1, 2], vec![3]));
        let mut b = Circuit::new(4);
        b.ops.push(GateOp::with_controls(0, GateKind::H, vec![1], vec![2, 3]));
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_does_not_alias_across_mnemonic_boundaries() {
        // "s" and "sw" share a prefix; with naive concatenation the gate
        // name's end and the operand list's start could trade bytes. The
        // explicit name-length prefix keeps the encodings disjoint.
        let mut a = Circuit::new(2);
        a.add(0, GateKind::S, &[0]);
        let mut b = Circuit::new(2);
        b.add(0, GateKind::Swap, &[0, 1]);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn validate_accepts_good_circuit() {
        let mut c = Circuit::new(3);
        c.add(0, GateKind::H, &[0]);
        c.add(0, GateKind::X, &[1]);
        c.add(1, GateKind::Cz, &[0, 2]);
        assert!(c.validate().is_ok());
    }

    /// The codes of every diagnostic `validate()` reports for `c`.
    fn codes_of(c: &Circuit) -> Vec<&'static str> {
        c.validate().unwrap_err().iter().map(|d| d.code).collect()
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[2]);
        assert_eq!(codes_of(&c), vec![codes::QUBIT_OUT_OF_RANGE]);
        let d = &c.validate().unwrap_err()[0];
        assert_eq!(d.span.op_index, Some(0));
        assert!(d.message.contains("out of range"));
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let mut c = Circuit::new(2);
        c.ops.push(GateOp::new(0, GateKind::Cz, vec![0]));
        assert_eq!(codes_of(&c), vec![codes::ARITY_MISMATCH]);
    }

    #[test]
    fn validate_rejects_time_regression() {
        let mut c = Circuit::new(2);
        c.add(1, GateKind::H, &[0]);
        c.add(0, GateKind::H, &[1]);
        assert_eq!(codes_of(&c), vec![codes::TIME_REGRESSION]);
    }

    #[test]
    fn validate_rejects_slice_conflict() {
        let mut c = Circuit::new(3);
        c.add(0, GateKind::H, &[0]);
        c.add(0, GateKind::Cz, &[0, 1]);
        assert_eq!(codes_of(&c), vec![codes::SLICE_CONFLICT]);
    }

    #[test]
    fn validate_rejects_repeated_qubit() {
        let mut c = Circuit::new(3);
        c.ops.push(GateOp::new(0, GateKind::Cz, vec![1, 1]));
        assert_eq!(codes_of(&c), vec![codes::DUPLICATE_QUBIT]);
    }

    #[test]
    fn validate_rejects_control_target_overlap() {
        let mut c = Circuit::new(3);
        c.ops.push(GateOp::with_controls(0, GateKind::H, vec![1], vec![1]));
        // The shared qubit is reported once as an overlap, not as a
        // duplicate target.
        assert_eq!(codes_of(&c), vec![codes::CONTROL_TARGET_OVERLAP]);
    }

    #[test]
    fn validate_collects_every_violation() {
        let mut c = Circuit::new(2);
        c.add(1, GateKind::H, &[5]); // out of range
        c.add(0, GateKind::H, &[0]); // time regression
        let codes = codes_of(&c);
        assert_eq!(codes, vec![codes::QUBIT_OUT_OF_RANGE, codes::TIME_REGRESSION]);
    }

    #[test]
    fn sorted_matrix_on_sorted_qubits_is_kind_matrix() {
        let op = GateOp::new(0, GateKind::Cz, vec![1, 4]);
        let (qs, m) = op.sorted_matrix::<f64>().unwrap();
        assert_eq!(qs, vec![1, 4]);
        assert!(m.max_abs_diff(&GateKind::Cz.matrix().unwrap()) < 1e-15);
    }

    #[test]
    fn sorted_matrix_permutes_cnot() {
        // cnot with control 3, target 1: sorted qubits [1, 3]; bit 0 ↔
        // target 1, bit 1 ↔ control 3 ⇒ swap indices 2 and 3.
        let op = GateOp::new(0, GateKind::Cnot, vec![3, 1]);
        let (qs, m) = op.sorted_matrix::<f64>().unwrap();
        assert_eq!(qs, vec![1, 3]);
        assert_eq!(m.get(2, 3), qsim_core::types::Cplx::one());
        assert_eq!(m.get(3, 2), qsim_core::types::Cplx::one());
        assert_eq!(m.get(0, 0), qsim_core::types::Cplx::one());
    }

    #[test]
    fn measurement_has_no_sorted_matrix() {
        let op = GateOp::new(0, GateKind::Measurement, vec![0, 1]);
        assert!(op.sorted_matrix::<f64>().is_none());
        assert!(op.is_measurement());
    }
}
