//! The built-in lint rules.
//!
//! Circuit rules ([`Structure`], [`Unitarity`], [`IdentityGate`],
//! [`GateAfterMeasurement`], [`EmptyCircuit`]) walk the raw gate list;
//! plan rules ([`PlanShape`], [`PlanUnitarity`], [`PlanMeasurementOrder`],
//! [`PlanSourceAccounting`], [`PlanSweep`], [`PlanEquivalence`]) walk the
//! fuser's output. Every rule is independent: it appends findings and never
//! stops the pass. Rules are defensive — a malformed input produces
//! diagnostics, not panics, so one rule's subject matter never crashes
//! another rule.

use qsim_circuit::gates::GateKind;
use qsim_core::diag::{Diagnostic, Span};
use qsim_core::kernels::{self, MAX_GATE_QUBITS};
use qsim_core::matrix::GateMatrix;
use qsim_core::StateVector;
use qsim_fusion::{FusedGate, FusedOp};

use crate::{
    codes, CircuitCtx, CircuitRule, PlanCtx, PlanRule, EQUIVALENCE_MAX_QUBITS, EQUIVALENCE_TOL,
    PLAN_UNITARY_TOL_F64, UNITARY_TOL_F32, UNITARY_TOL_F64,
};

// ---------------------------------------------------------------- circuit

/// Structural invariants: arity, qubit ranges, duplicate operands,
/// control/target overlap, time monotonicity — delegated to
/// [`qsim_circuit::Circuit::validate`], which owns the `QC00xx` codes.
pub struct Structure;

impl CircuitRule for Structure {
    fn name(&self) -> &'static str {
        "circuit-structure"
    }

    fn check(&self, ctx: &CircuitCtx<'_>, out: &mut Vec<Diagnostic>) {
        if let Err(diags) = ctx.circuit.validate() {
            out.extend(diags);
        }
    }
}

/// Every gate matrix must be unitary: exactly the property that makes a
/// state-vector simulation norm-preserving. Checked at `f64` (error) and
/// after casting to `f32` (warning — the precision axis of the paper's
/// Figure 8).
pub struct Unitarity;

impl CircuitRule for Unitarity {
    fn name(&self) -> &'static str {
        "gate-unitarity"
    }

    fn check(&self, ctx: &CircuitCtx<'_>, out: &mut Vec<Diagnostic>) {
        for (i, op) in ctx.circuit.ops.iter().enumerate() {
            let Some(m) = op.kind.matrix::<f64>() else {
                continue; // measurements have no matrix
            };
            let span = Span::op(i, op.time);
            match m.unitarity_deviation(UNITARY_TOL_F64) {
                None => out.push(
                    Diagnostic::error(
                        codes::NON_UNITARY_GATE,
                        span,
                        format!("gate '{}' is not unitary within {UNITARY_TOL_F64:.0e}", op.kind.name()),
                    )
                    .with_help("a non-unitary gate does not preserve the state norm; check the matrix entries"),
                ),
                Some(dev) if !f32_unitary(m.dim(), dev, || m.cast()) => out.push(
                    Diagnostic::warning(
                        codes::UNITARITY_F32_LOSS,
                        span,
                        format!(
                            "gate '{}' loses unitarity beyond {UNITARY_TOL_F32:.0e} in single precision",
                            op.kind.name()
                        ),
                    )
                    .with_help("run this circuit in double precision (f64)"),
                ),
                Some(_) => {}
            }
        }
    }
}

/// Dead gates: an explicit `id` (warning) or a parametrized gate whose
/// matrix collapses to the identity, e.g. `rz 0` (note). Either way the
/// gate costs a pass (or widens a fused product) without doing anything.
pub struct IdentityGate;

impl CircuitRule for IdentityGate {
    fn name(&self) -> &'static str {
        "identity-gate"
    }

    fn check(&self, ctx: &CircuitCtx<'_>, out: &mut Vec<Diagnostic>) {
        for (i, op) in ctx.circuit.ops.iter().enumerate() {
            let span = Span::op(i, op.time);
            if op.kind == GateKind::Id {
                out.push(
                    Diagnostic::warning(codes::IDENTITY_GATE, span, "explicit identity gate")
                        .with_help("remove it; it costs a pass over the state without effect"),
                );
                continue;
            }
            let Some(m) = op.kind.matrix::<f64>() else {
                continue;
            };
            if m.is_identity(1e-12) {
                out.push(Diagnostic::note(
                    codes::IDENTITY_GATE,
                    span,
                    format!(
                        "gate '{}' acts as the identity (zero-angle rotation?)",
                        op.kind.name()
                    ),
                ));
            }
        }
    }
}

/// A unitary gate touching a qubit *after* that qubit was measured: legal
/// for the simulator (measurement collapses, the gate then acts on the
/// collapsed state) but almost always a circuit-authoring mistake in the
/// amplitude-query workloads this simulator targets.
pub struct GateAfterMeasurement;

impl CircuitRule for GateAfterMeasurement {
    fn name(&self) -> &'static str {
        "gate-after-measurement"
    }

    fn check(&self, ctx: &CircuitCtx<'_>, out: &mut Vec<Diagnostic>) {
        let n = ctx.circuit.num_qubits;
        let mut measured_at: Vec<Option<usize>> = vec![None; n];
        for (i, op) in ctx.circuit.ops.iter().enumerate() {
            if op.is_measurement() {
                for &q in &op.qubits {
                    if q < n {
                        measured_at[q] = Some(i);
                    }
                }
                continue;
            }
            let shadowed = op
                .qubits
                .iter()
                .chain(op.controls.iter())
                .find(|&&q| q < n && measured_at[q].is_some());
            if let Some(&q) = shadowed {
                let m_idx = measured_at[q].unwrap_or_default();
                out.push(
                    Diagnostic::warning(
                        codes::GATE_AFTER_MEASUREMENT,
                        Span::op(i, op.time),
                        format!(
                            "gate '{}' acts on qubit {q}, which was measured at op {m_idx}",
                            op.kind.name()
                        ),
                    )
                    .with_help(
                        "gates after measurement act on the collapsed state; move the \
                         measurement to the end if amplitudes are queried",
                    ),
                );
            }
        }
    }
}

/// An empty circuit is executable but almost certainly a loading mistake.
pub struct EmptyCircuit;

impl CircuitRule for EmptyCircuit {
    fn name(&self) -> &'static str {
        "empty-circuit"
    }

    fn check(&self, ctx: &CircuitCtx<'_>, out: &mut Vec<Diagnostic>) {
        if ctx.circuit.ops.is_empty() {
            out.push(Diagnostic::warning(
                codes::EMPTY_CIRCUIT,
                Span::whole_circuit(),
                format!(
                    "circuit declares {} qubits but contains no operations",
                    ctx.circuit.num_qubits
                ),
            ));
        }
    }
}

// ------------------------------------------------------------------ plan

/// Well-formedness of each fused gate: sorted distinct in-range qubits,
/// matrix dimension `2^width`, width within kernel support, fusion-budget
/// legality, and a non-inverted source-time range.
pub struct PlanShape;

impl PlanRule for PlanShape {
    fn name(&self) -> &'static str {
        "plan-shape"
    }

    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let plan = ctx.plan;
        if !(1..=MAX_GATE_QUBITS).contains(&plan.max_fused_qubits) {
            out.push(Diagnostic::error(
                codes::PLAN_FUSION_BUDGET_EXCEEDED,
                Span::whole_circuit(),
                format!(
                    "plan declares max_fused_qubits = {}, outside the supported 1..={MAX_GATE_QUBITS}",
                    plan.max_fused_qubits
                ),
            ));
        }
        for (i, op) in plan.ops.iter().enumerate() {
            let FusedOp::Unitary(g) = op else { continue };
            let span = Span::op(i, g.time_range.0);
            let w = g.width();
            if g.qubits.is_empty()
                || !g.qubits.windows(2).all(|p| p[0] < p[1])
                || g.qubits.iter().any(|&q| q >= plan.num_qubits)
            {
                out.push(
                    Diagnostic::error(
                        codes::PLAN_MALFORMED_QUBITS,
                        span,
                        format!(
                            "fused gate has malformed qubit set {:?} for a {}-qubit register",
                            g.qubits, plan.num_qubits
                        ),
                    )
                    .with_help("qubits must be sorted, distinct, and < num_qubits"),
                );
                continue; // width/dim checks would only repeat the confusion
            }
            let (dim, expected) = (g.dim(), dim_of(w));
            if expected != Some(dim) {
                let expected = expected.map_or(format!("2^{w}×2^{w}"), |e| format!("{e}×{e}"));
                out.push(Diagnostic::error(
                    codes::PLAN_MATRIX_DIM_MISMATCH,
                    span,
                    format!("fused gate on {w} qubit(s) carries a {dim}×{dim} matrix (expected {expected})"),
                ));
            }
            if w > MAX_GATE_QUBITS {
                out.push(Diagnostic::error(
                    codes::PLAN_WIDTH_EXCEEDS_KERNEL,
                    span,
                    format!(
                        "fused gate spans {w} qubits; kernels support at most {MAX_GATE_QUBITS}"
                    ),
                ));
            } else if g.source_gates > 1 && w > plan.max_fused_qubits {
                // A single wide gate legitimately passes through unfused;
                // a *merged* product must respect the budget.
                out.push(Diagnostic::error(
                    codes::PLAN_FUSION_BUDGET_EXCEEDED,
                    span,
                    format!(
                        "{} source gates were merged into a {w}-qubit product, beyond the \
                         max_fused_qubits = {} budget",
                        g.source_gates, plan.max_fused_qubits
                    ),
                ));
            }
            if g.time_range.0 > g.time_range.1 {
                out.push(Diagnostic::error(
                    codes::PLAN_TIME_RANGE_INVERTED,
                    Span::op_only(i),
                    format!(
                        "fused gate time range ({}, {}) is inverted",
                        g.time_range.0, g.time_range.1
                    ),
                ));
            }
        }
    }
}

/// Norm preservation of the fused products: fusing unitaries by matrix
/// product and qubit-set expansion must yield unitaries. Checked at `f64`
/// (error) and after the backend's `f32` cast (warning). A product whose
/// certificate proves it unitary is taken in O(1) (`certified_deviation`);
/// any other is measured by its Gram matrix.
pub struct PlanUnitarity;

impl PlanRule for PlanUnitarity {
    fn name(&self) -> &'static str {
        "plan-unitarity"
    }

    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        for (i, op) in ctx.plan.ops.iter().enumerate() {
            let FusedOp::Unitary(g) = op else { continue };
            if dim_of(g.width()) != Some(g.dim()) {
                continue; // PlanShape reports the dimension mismatch
            }
            let span = Span::op(i, g.time_range.0);
            let deviation = certified_deviation(g)
                .or_else(|| g.matrix().unitarity_deviation(PLAN_UNITARY_TOL_F64));
            match deviation {
                None => out.push(
                    Diagnostic::error(
                        codes::PLAN_NON_UNITARY,
                        span,
                        format!(
                            "fused product of {} gate(s) on qubits {:?} is not unitary within {PLAN_UNITARY_TOL_F64:.0e}",
                            g.source_gates, g.qubits
                        ),
                    )
                    .with_help("the plan would not preserve the state norm; refuse to execute it"),
                ),
                Some(dev) if !f32_unitary(g.dim(), dev, || g.matrix_as()) => out.push(
                    Diagnostic::warning(
                        codes::PLAN_UNITARITY_F32_LOSS,
                        span,
                        format!(
                            "fused product on qubits {:?} loses unitarity beyond {UNITARY_TOL_F32:.0e} in single precision",
                            g.qubits
                        ),
                    )
                    .with_help("run in double precision or lower max_fused_qubits"),
                ),
                // Unitary, but trivially so: the folded gates cancelled.
                Some(_) if g.is_identity(1e-12) => out.push(
                    Diagnostic::warning(
                        codes::PLAN_IDENTITY_PASS,
                        span,
                        format!(
                            "fused product of {} gate(s) on qubits {:?} is the identity",
                            g.source_gates, g.qubits
                        ),
                    )
                    .with_help("the gates cancel; this pass streams the whole state for no effect"),
                ),
                Some(_) => {}
            }
        }
    }
}

/// Measurement barriers must appear in non-decreasing time order: the
/// fuser keeps them in place, so a regression means the plan was edited
/// or mis-built.
pub struct PlanMeasurementOrder;

impl PlanRule for PlanMeasurementOrder {
    fn name(&self) -> &'static str {
        "plan-measurement-order"
    }

    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let mut last: Option<usize> = None;
        for (i, op) in ctx.plan.ops.iter().enumerate() {
            let FusedOp::Measurement { time, .. } = op else { continue };
            if let Some(prev) = last {
                if *time < prev {
                    out.push(Diagnostic::error(
                        codes::PLAN_MEASUREMENT_ORDER,
                        Span::op(i, *time),
                        format!(
                            "measurement at time {time} appears after a measurement at time {prev}"
                        ),
                    ));
                }
            }
            last = Some((*time).max(last.unwrap_or(0)));
        }
    }
}

/// Cross-check the plan against its source circuit: same register width,
/// every non-measurement source gate folded exactly once, every
/// measurement barrier preserved. No-op when the source is unavailable.
pub struct PlanSourceAccounting;

impl PlanRule for PlanSourceAccounting {
    fn name(&self) -> &'static str {
        "plan-source-accounting"
    }

    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let Some(src) = ctx.source else { return };
        let plan = ctx.plan;
        if src.num_qubits != plan.num_qubits {
            out.push(Diagnostic::error(
                codes::PLAN_SOURCE_MISMATCH,
                Span::whole_circuit(),
                format!(
                    "plan is for {} qubits but its source circuit declares {}",
                    plan.num_qubits, src.num_qubits
                ),
            ));
        }
        let src_gates = src.ops.iter().filter(|o| !o.is_measurement()).count();
        let folded = plan.source_gate_count();
        if folded != src_gates {
            out.push(
                Diagnostic::error(
                    codes::PLAN_SOURCE_MISMATCH,
                    Span::whole_circuit(),
                    format!(
                        "plan accounts for {folded} source gate(s) but the circuit has {src_gates}"
                    ),
                )
                .with_help("every non-measurement gate must fold into exactly one fused gate"),
            );
        }
        let src_measurements = src.ops.iter().filter(|o| o.is_measurement()).count();
        let plan_measurements = plan.measurements().count();
        if src_measurements != plan_measurements {
            out.push(Diagnostic::error(
                codes::PLAN_SOURCE_MISMATCH,
                Span::whole_circuit(),
                format!(
                    "plan keeps {plan_measurements} measurement barrier(s) but the circuit has {src_measurements}"
                ),
            ));
        }
    }
}

/// Sweep-barrier sanity: re-derive the block-local / barrier split from
/// [`qsim_core::sweep::is_block_local`] and check it against the pass
/// accounting of [`qsim_fusion::FusedCircuit::sweep_stats`] — the executor and the
/// analyzer must agree on what a barrier is. Also emits a performance
/// note when barriers dominate.
pub struct PlanSweep;

impl PlanRule for PlanSweep {
    fn name(&self) -> &'static str {
        "plan-sweep-accounting"
    }

    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let plan = ctx.plan;
        let stats = plan.sweep_stats(&ctx.sweep);
        let gates = plan.num_unitaries() as u64;
        if stats.gates != gates {
            out.push(Diagnostic::error(
                codes::PLAN_SWEEP_ACCOUNTING,
                Span::whole_circuit(),
                format!("sweep stats saw {} gate(s) but the plan has {gates}", stats.gates),
            ));
            return;
        }
        if !ctx.sweep.enabled {
            if stats.full_passes != stats.gates {
                out.push(Diagnostic::error(
                    codes::PLAN_SWEEP_ACCOUNTING,
                    Span::whole_circuit(),
                    format!(
                        "sweep disabled but pass count {} differs from gate count {}",
                        stats.full_passes, stats.gates
                    ),
                ));
            }
            return;
        }
        let bq = ctx.sweep.block_qubits(plan.num_qubits);
        let local =
            plan.unitaries().filter(|g| qsim_core::sweep::is_block_local(&g.qubits, bq)).count()
                as u64;
        if stats.block_local_gates != local || stats.barrier_gates != gates - local {
            out.push(
                Diagnostic::error(
                    codes::PLAN_SWEEP_ACCOUNTING,
                    Span::whole_circuit(),
                    format!(
                        "sweep classified {}/{} gate(s) block-local, but is_block_local(block_qubits = {bq}) \
                         marks {local}",
                        stats.block_local_gates, stats.gates
                    ),
                )
                .with_help("the sweep executor and the locality predicate disagree — executor bug"),
            );
        }
        if stats.full_passes != stats.runs + stats.barrier_gates {
            out.push(Diagnostic::error(
                codes::PLAN_SWEEP_ACCOUNTING,
                Span::whole_circuit(),
                format!(
                    "pass identity violated: {} full passes ≠ {} runs + {} barrier gates",
                    stats.full_passes, stats.runs, stats.barrier_gates
                ),
            ));
        }
        if gates > 0 && stats.barrier_gates * 2 > gates {
            out.push(
                Diagnostic::note(
                    codes::PLAN_SWEEP_BARRIER_HEAVY,
                    Span::whole_circuit(),
                    format!(
                        "{} of {gates} fused gate(s) are sweep barriers (targets ≥ qubit {bq})",
                        stats.barrier_gates
                    ),
                )
                .with_help(
                    "the cache-blocked sweep cannot batch these passes; this is expected for \
                     wide registers and does not affect correctness",
                ),
            );
        }
    }
}

/// Probe-state equivalence: evolve two basis states through the source
/// circuit (reference kernels) and through the plan's fused unitaries;
/// amplitudes must agree. The strongest plan check, but `O(gates · 2^n)`,
/// so it only runs for registers up to [`EQUIVALENCE_MAX_QUBITS`] and is
/// excluded from the backend pre-run registry.
pub struct PlanEquivalence;

impl PlanRule for PlanEquivalence {
    fn name(&self) -> &'static str {
        "plan-equivalence"
    }

    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>) {
        let Some(src) = ctx.source else { return };
        let plan = ctx.plan;
        let n = plan.num_qubits;
        // Only probe structurally sound inputs: shape errors are already
        // reported, and applying a malformed plan would panic in kernels.
        if src.num_qubits != n || src.validate().is_err() || !plan.unitaries().all(well_formed(n)) {
            return;
        }
        if n > EQUIVALENCE_MAX_QUBITS {
            out.push(Diagnostic::note(
                codes::PLAN_EQUIVALENCE_SKIPPED,
                Span::whole_circuit(),
                format!(
                    "probe-state equivalence skipped: {n} qubits exceeds the \
                     {EQUIVALENCE_MAX_QUBITS}-qubit probe budget"
                ),
            ));
            return;
        }
        for basis in [0usize, (1usize << n) - 1] {
            let mut reference = StateVector::<f64>::new(n);
            reference.set_basis_state(basis);
            for op in &src.ops {
                if op.is_measurement() {
                    continue; // both sides compare the unitary part only
                }
                let Some((qs, m)) = op.sorted_matrix::<f64>() else { continue };
                if op.controls.is_empty() {
                    kernels::apply_gate_seq(&mut reference, &qs, &m);
                } else {
                    let all_ones = (1usize << op.controls.len()) - 1;
                    kernels::apply_controlled_gate_seq(
                        &mut reference,
                        &qs,
                        &op.controls,
                        all_ones,
                        &m,
                    );
                }
            }
            let mut fused = StateVector::<f64>::new(n);
            fused.set_basis_state(basis);
            for g in plan.unitaries() {
                kernels::apply_gate_seq(&mut fused, &g.qubits, g.matrix());
            }
            // NaN (a probe amplitude went NaN) diverges too.
            let diff = reference.max_abs_diff(&fused);
            if diff.is_nan() || diff > EQUIVALENCE_TOL {
                out.push(
                    Diagnostic::error(
                        codes::PLAN_EQUIVALENCE_DIVERGED,
                        Span::whole_circuit(),
                        format!(
                            "plan diverges from its source circuit by {diff:.2e} on probe state \
                             |{basis:0>width$b}⟩",
                            width = n
                        ),
                    )
                    .with_help("the fused plan does not implement the circuit it was built from"),
                );
                return; // one probe failure is conclusive
            }
        }
    }
}

/// Predicate used to guard the equivalence probe against malformed gates.
fn well_formed(n: usize) -> impl Fn(&FusedGate) -> bool {
    move |g: &FusedGate| {
        !g.qubits.is_empty()
            && g.qubits.windows(2).all(|p| p[0] < p[1])
            && g.qubits.iter().all(|&q| q < n)
            && g.width() <= MAX_GATE_QUBITS
            && dim_of(g.width()) == Some(g.dim())
    }
}

/// `2^width`, the matrix dimension of a gate on `width` qubits, if it fits.
fn dim_of(width: usize) -> Option<usize> {
    u32::try_from(width).ok().and_then(|w| 1usize.checked_shl(w))
}

/// A bound on the largest entry of `M·M† − I` formed in `f32` from the cast
/// of a `dim × dim` matrix `M` whose `f64` product has none above `f64_dev`.
///
/// With `u = 2⁻²⁴`, `γₙ = nu/(1 − nu)` (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, §3.1) and every row norm² of `M` (a diagonal entry
/// of the product) at most `ρ ≤ 1 + f64_dev`, an `f32` entry is off the
/// exact product's by at most the cast, `|fl(m) − m| ≤ u|m|`: `(2u + u²)ρ`;
/// the Gram sum, a complex dot of `dim` terms in real multiply-adds:
/// `√2·γ_{dim+2}·ρ` (Cauchy–Schwarz on the rows); the `− 1`, exact on the
/// diagonal (Sterbenz), and the `abs`, `2u` relative, so `3u·UNITARY_TOL_F32`
/// where the verdict is decided; and `f64_dev`'s own error, the same sum at
/// `2⁻⁵³`. The last two are each below `u`, so to first order the total is
/// `(√2(dim + 2) + 4)·u·ρ`: at most half the `4(dim + 4)·u·(1 + f64_dev)`
/// charged here, whose slack also covers underflow (`≤ dim·2⁻¹⁴⁹`).
fn f32_deviation_bound(f64_dev: f64, dim: usize) -> f64 {
    f64_dev + 4.0 * (dim as f64 + 4.0) * f64::from(f32::EPSILON / 2.0) * (1.0 + f64_dev)
}

/// The deviation [`qsim_fusion`]'s `build` proved for `g`: its
/// [`FusedGate::certificate`] when that is at most half
/// [`PLAN_UNITARY_TOL_F64`]; `None` — the Gram pass decides — for a gate
/// made by hand, one with a non-finite factor, a looser bound or NaN.
///
/// The certificate bounds the spectral norm `δ(M) = ‖M·M† − I‖₂`, which
/// bounds every entry of `M·M† − I` and so the figure
/// `unitarity_deviation` reports. The max-entry norm would not serve: a
/// merge `G·X·G†` can grow it `2^k`-fold, and after ~100 merges the bound
/// says nothing. With `u = 2⁻⁵³` and `γₙ` as below:
/// - *Source gate* `g`, on one or two qubits (`d ≤ 4`): `‖g·g† − I‖_F`
///   as formed. Each formed entry is within `gram_rounding(d, ·) =
///   2γ_{d+4}(1 + ·)` of the exact one (a complex dot, `√2·γ_{d+2}ρ`, the
///   `− 1` and the `abs`), so the Frobenius norm is within `d` times that,
///   and the sum and square root add `γ_{2d²+8}` relative. `‖·‖₂ ≤ ‖·‖_F`.
///   A control embeds `g` as `I ⊕ g` and the qubit sort permutes it;
///   neither moves `δ`.
/// - *Expansion* onto a wider qubit set is `P ↦ Π(P ⊗ I)Πᵀ` with `Π` a
///   permutation: `δ` does not move, so `SplitMatrix::set_expanded` and
///   `SplitMatrix::widen` (which only relabel what the stored planes act
///   on) keep the certificate.
/// - *Merge* `C = fl(G·P)`, `G` a gate of `n = 2^k` columns expanded onto
///   `d = 2^m`, `E = fl(G·P) − G·P`: `C·C† − I = G(P·P† − I)G† + (G·G† −
///   I) + G·P·E† + E·P†·G† + E·E†` and `‖G‖² = ‖G·G†‖ ≤ 1 + δ(G)`, so
///   `δ(C) ≤ δ(G) + (1 + δ(G))·δ(P) + 2‖G‖‖P‖·η + η²` for any `η ≥ ‖E‖₂`.
///   `SplitMatrix::set_product` sums the `≤ n` non-zeros `S_r` of row `r`
///   of `G` against `P`, a complex dot in real arithmetic (an expanded `P`
///   is read through its expansion: the terms it skips are exact zeros):
///   `|E_rc| ≤ √2·γ_{n+2}·Σ_{j∈S_r} |G_rj||P_jc|` (Higham §3.6).
///   Cauchy–Schwarz over `S_r`, then summing over `c` and `r`, gives
///   `‖E‖_F² ≤ 2γ²_{n+2}·Σ_r ‖G_r‖²·Σ_{j∈S_r} ‖P_j‖² ≤ 2γ²_{n+2}·n·d·‖G‖²‖P‖²`,
///   so with `η̂ = √(2nd)·γ_{n+2}` and `s² = (1 + δ(G))(1 + δ(P)) ≥
///   ‖G‖²‖P‖²` the merge adds `s²·η̂·(2 + η̂)`.
/// - The bound is evaluated in `f64` over non-negative terms and never
///   shrinks from merge to merge, so where it is read (`≤ 5·10⁻⁹`) its
///   own rounding, a few `u` relative (`< 10⁻²³`), is far inside the
///   `≥ 2√8·γ₄ ≈ 2.5·10⁻¹⁵` each merge adds.
///
/// A 2-qubit gate merged into a 64 × 64 product adds `≈ 3·10⁻¹⁴` of
/// rounding and its own `≈ 7·10⁻¹⁵`, so ~100 merges stay under `4·10⁻¹²`;
/// on the paper's 30-qubit plans the loosest certificate is `5.1·10⁻¹³`
/// (64 × 64, 29 gates).
///
/// The verdicts stay those the Gram pass gives. A product certified within
/// `PLAN_UNITARY_TOL_F64 / 2` measures within it plus `gram_rounding`,
/// inside the tolerance. `f32_deviation_bound` takes the certificate as
/// its `f64_dev`: it bounds the exact entries and `ρ − 1`, and carries no
/// rounding of its own. Debug builds measure each product's Gram matrix
/// against its certificate when the product is composed
/// ([`FusedGate::matrix`]), so every test run that composes one checks the
/// proof, and an estimate that composes none stays matrix-free.
fn certified_deviation(g: &FusedGate) -> Option<f64> {
    g.certificate().filter(|&cert| cert <= PLAN_UNITARY_TOL_F64 / 2.0)
}

/// Whether a `dim × dim` matrix, within `dev` of unitary in `f64`, stays
/// within [`UNITARY_TOL_F32`] in `f32`: by the bound up to `dim = 256`, by
/// the `f32` product (`cast`, formed only then) past it.
fn f32_unitary(dim: usize, dev: f64, cast: impl FnOnce() -> GateMatrix<f32>) -> bool {
    f32_deviation_bound(dev, dim) <= UNITARY_TOL_F32 || cast().is_unitary(UNITARY_TOL_F32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use qsim_circuit::circuit::Circuit;
    use qsim_core::sweep::SweepConfig;
    use qsim_core::types::Cplx;
    use qsim_fusion::FusedCircuit;

    use crate::Analyzer;

    fn plan_codes(plan: &FusedCircuit, source: Option<&Circuit>) -> Vec<&'static str> {
        Analyzer::new()
            .analyze_plan(plan, source, SweepConfig::default())
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    fn one_gate_plan(gate: FusedGate, num_qubits: usize) -> FusedCircuit {
        FusedCircuit { num_qubits, ops: vec![FusedOp::Unitary(gate)], max_fused_qubits: 2 }
    }

    fn h_gate(qubits: Vec<usize>) -> FusedGate {
        FusedGate::new(qubits, GateKind::H.matrix::<f64>().unwrap(), 1, (0, 0))
    }

    #[test]
    fn malformed_qubits_detected() {
        for qubits in [vec![], vec![1, 0], vec![0, 0], vec![9]] {
            // Give multi-qubit lists a matching matrix so only the qubit
            // set is at fault.
            let g = if qubits.len() == 2 {
                FusedGate::new(qubits.clone(), GateMatrix::identity(4), 1, (0, 0))
            } else {
                h_gate(qubits.clone())
            };
            let plan = one_gate_plan(g, 2);
            assert!(
                plan_codes(&plan, None).contains(&codes::PLAN_MALFORMED_QUBITS),
                "{qubits:?} should be malformed"
            );
        }
    }

    #[test]
    fn matrix_dim_mismatch_detected() {
        let g = h_gate(vec![0, 1]); // 2×2 for 2 qubits
        let plan = one_gate_plan(g, 2);
        assert!(plan_codes(&plan, None).contains(&codes::PLAN_MATRIX_DIM_MISMATCH));
    }

    #[test]
    fn overwide_gate_detected() {
        let w = MAX_GATE_QUBITS + 1;
        let g = FusedGate::new((0..w).collect(), GateMatrix::identity(1 << w), 1, (0, 0));
        let plan = one_gate_plan(g, w);
        assert!(plan_codes(&plan, None).contains(&codes::PLAN_WIDTH_EXCEEDS_KERNEL));
    }

    #[test]
    fn gate_wider_than_usize_bits_is_reported_not_a_panic() {
        for w in [63, 64, 65] {
            let g = FusedGate::new((0..w).collect(), GateMatrix::identity(2), 1, (0, 0));
            let r =
                Analyzer::new().analyze_plan(&one_gate_plan(g, 70), None, SweepConfig::default());
            let dim = r.diagnostics.iter().find(|d| d.code == codes::PLAN_MATRIX_DIM_MISMATCH);
            let expected =
                if w < 64 { format!("{0}×{0}", 1usize << w) } else { format!("2^{w}×2^{w}") };
            assert_eq!(
                dim.map(|d| d.message.as_str()),
                Some(format!(
                    "fused gate on {w} qubit(s) carries a 2×2 matrix (expected {expected})"
                ))
                .as_deref()
            );
            assert!(r.diagnostics.iter().any(|d| d.code == codes::PLAN_WIDTH_EXCEEDS_KERNEL));
        }
    }

    #[test]
    fn f32_bound_clears_every_kernel_width_and_refuses_past_it() {
        for dim in [1, 2, 4, 8, 16, 32, 64] {
            for dev in [0.0, PLAN_UNITARY_TOL_F64] {
                assert!(f32_deviation_bound(dev, dim) <= UNITARY_TOL_F32, "dim {dim} dev {dev}");
            }
        }
        assert!(f32_deviation_bound(0.0, 2048) > UNITARY_TOL_F32);
        assert!(f32_deviation_bound(UNITARY_TOL_F32, 2) > UNITARY_TOL_F32);
        // Where it refuses, the product is formed and decides.
        assert!(f32_unitary(4, UNITARY_TOL_F32, || GateMatrix::identity(4)));
        let mut stretched = GateMatrix::<f64>::identity(4);
        stretched.set(1, 1, Cplx::new(1.0 + 2.0 * UNITARY_TOL_F32, 0.0));
        assert!(!f32_unitary(4, UNITARY_TOL_F32, || stretched.cast()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Fused products of random circuits, perturbed up to the `f64`
        /// tolerance: the deviation their `f32` product shows stays under
        /// the bound, and the rule's `f32` verdict — by the bound, or by
        /// the product where the bound is made to refuse — is the one the
        /// product gives.
        #[test]
        fn f32_bound_holds_and_keeps_the_computed_verdict(
            seed in 0u64..u64::MAX,
            width in 1usize..=6,
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let src = qsim_circuit::library::random_dense(width.max(2), 12 * width, seed);
            for g in qsim_fusion::fuse(&src, width).unitaries() {
                let mut m = g.matrix().clone();
                let d = m.dim() as u64;
                let (r, c) = (rng.below(d) as usize, rng.below(d) as usize);
                let eps = 0.3 * PLAN_UNITARY_TOL_F64 * rng.unit_f64();
                m.set(r, c, m.get(r, c) + Cplx::new(eps, -eps));
                let dev = m.unitarity_deviation(PLAN_UNITARY_TOL_F64);
                prop_assert!(dev.is_some(), "eps {eps} leaves the f64 tolerance");
                let dev = dev.unwrap_or_default();
                let m32 = m.cast::<f32>();
                let dev32 = m32.unitarity_deviation(f64::INFINITY).unwrap_or(f64::NAN);
                let bound = f32_deviation_bound(dev, m.dim());
                prop_assert!(dev32 <= bound, "f32 deviation {dev32:e} above the bound {bound:e}");
                let computed = m32.is_unitary(UNITARY_TOL_F32);
                prop_assert_eq!(f32_unitary(m.dim(), dev, || m32.clone()), computed);
                prop_assert_eq!(f32_unitary(m.dim(), UNITARY_TOL_F32, || m32.clone()), computed);
            }
        }
    }

    #[test]
    fn merged_beyond_budget_detected_but_passthrough_allowed() {
        // A 3-qubit gate from a single source gate passes through a
        // max_fused_qubits = 2 plan legally…
        let single = FusedGate::new(vec![0, 1, 2], GateMatrix::identity(8), 1, (0, 0));
        let plan = one_gate_plan(single, 3);
        assert!(!plan_codes(&plan, None).contains(&codes::PLAN_FUSION_BUDGET_EXCEEDED));
        // …but the same width from a *merge* of two gates violates it.
        let merged = FusedGate::new(vec![0, 1, 2], GateMatrix::identity(8), 2, (0, 1));
        let plan = one_gate_plan(merged, 3);
        assert!(plan_codes(&plan, None).contains(&codes::PLAN_FUSION_BUDGET_EXCEEDED));
    }

    #[test]
    fn non_unitary_plan_detected() {
        let mut matrix = GateKind::H.matrix::<f64>().unwrap();
        matrix.set(0, 0, Cplx::new(3.0, 0.0)); // break the norm
        let plan = one_gate_plan(FusedGate::new(vec![0], matrix, 1, (0, 0)), 1);
        let codes_found = plan_codes(&plan, None);
        assert!(codes_found.contains(&codes::PLAN_NON_UNITARY));
    }

    /// `plan` with every gate made again through [`FusedGate::new`]: no
    /// certificates, so every product is measured by its Gram matrix.
    fn uncertified(plan: &FusedCircuit) -> FusedCircuit {
        let ops = plan
            .ops
            .iter()
            .map(|op| match op {
                FusedOp::Unitary(g) => FusedOp::Unitary(FusedGate::new(
                    g.qubits.clone(),
                    g.matrix().clone(),
                    g.source_gates,
                    g.time_range,
                )),
                barrier => barrier.clone(),
            })
            .collect();
        FusedCircuit { ops, ..plan.clone() }
    }

    /// A certified plan gets, finding for finding, what the same plan gets
    /// with every product measured: clean random plans (controlled gates
    /// among them), products that cancel to the identity (`QP0214`), and
    /// NaN or infinite factors, which leave their product uncertified and
    /// so measured (`QP0205`).
    #[test]
    fn certified_plans_get_the_findings_measured_ones_get() {
        use qsim_circuit::circuit::GateOp;

        let mut controlled = qsim_circuit::library::random_dense(7, 60, 5);
        let t = controlled.ops.last().map_or(0, |op| op.time) + 1;
        controlled.ops.push(GateOp::with_controls(t, GateKind::H, vec![0], vec![5]));
        controlled.ops.push(GateOp::with_controls(t + 1, GateKind::Cz, vec![1, 2], vec![6]));
        let mut cancelling = Circuit::new(3);
        cancelling.add(0, GateKind::H, &[0]).add(0, GateKind::X, &[1]);
        cancelling.add(1, GateKind::H, &[0]).add(1, GateKind::Cz, &[1, 2]);
        let mut circuits = vec![(controlled, None), (cancelling, Some(codes::PLAN_IDENTITY_PASS))];
        for angle in [f64::NAN, f64::INFINITY] {
            let mut c = qsim_circuit::library::qft(4);
            let t = c.ops.last().map_or(0, |op| op.time) + 1;
            c.add(t, GateKind::Rz(angle), &[2]);
            circuits.push((c, Some(codes::PLAN_NON_UNITARY)));
        }
        for (circuit, expected) in &circuits {
            for budget in 1..=6 {
                let certified = qsim_fusion::fuse(circuit, budget);
                let measured = uncertified(&certified);
                let clean = expected.is_none();
                assert!(!clean || certified.unitaries().all(|g| g.certificate().is_some()));
                for analyzer in [Analyzer::pre_run(), Analyzer::new()] {
                    let sweep = SweepConfig::default();
                    let want = analyzer.analyze_plan(&measured, Some(circuit), sweep).diagnostics;
                    let got = analyzer.analyze_plan(&certified, Some(circuit), sweep).diagnostics;
                    assert_eq!(got, want, "budget {budget}");
                    let codes: Vec<_> = got.iter().map(|d| d.code).collect();
                    assert_eq!(
                        codes.iter().any(|c| matches!(
                            *c,
                            codes::PLAN_NON_UNITARY | codes::PLAN_IDENTITY_PASS
                        )),
                        expected.is_some(),
                        "{codes:?}"
                    );
                    assert!(expected.is_none_or(|e| codes.contains(&e)), "{codes:?}");
                }
            }
        }
    }

    /// A hand-built product carries no certificate and is measured: a
    /// non-unitary one is still `QP0205`, a near-identity one `QP0214`.
    #[test]
    fn hand_built_products_are_measured_for_unitarity() {
        let mut broken = GateMatrix::<f64>::identity(4);
        broken.set(2, 1, Cplx::new(1e-6, 0.0));
        let mut near_identity = GateMatrix::<f64>::identity(4);
        near_identity.set(3, 3, Cplx::new(1.0, 1e-14));
        for (matrix, code) in
            [(broken, codes::PLAN_NON_UNITARY), (near_identity, codes::PLAN_IDENTITY_PASS)]
        {
            let g = FusedGate::new(vec![0, 1], matrix, 2, (0, 1));
            assert_eq!(g.certificate(), None);
            let found = plan_codes(&one_gate_plan(g, 2), None);
            assert!(found.contains(&code), "{found:?}");
        }
    }

    #[test]
    fn cancelled_product_flagged_as_identity_pass() {
        let mut src = Circuit::new(1);
        src.add(0, GateKind::H, &[0]);
        src.add(1, GateKind::H, &[0]);
        let fused = qsim_fusion::fuse(&src, 2);
        let found = plan_codes(&fused, Some(&src));
        assert!(found.contains(&codes::PLAN_IDENTITY_PASS));
        // It's a warning, not an error.
        let r = Analyzer::new().analyze_plan(&fused, Some(&src), SweepConfig::default());
        assert!(!r.has_errors());
    }

    #[test]
    fn inverted_time_range_detected() {
        let g = FusedGate::new(vec![0], GateKind::H.matrix::<f64>().unwrap(), 1, (5, 2));
        let plan = one_gate_plan(g, 1);
        assert!(plan_codes(&plan, None).contains(&codes::PLAN_TIME_RANGE_INVERTED));
    }

    #[test]
    fn measurement_regression_detected() {
        let plan = FusedCircuit {
            num_qubits: 1,
            ops: vec![
                FusedOp::Measurement { qubits: vec![0], time: 4 },
                FusedOp::Measurement { qubits: vec![0], time: 1 },
            ],
            max_fused_qubits: 2,
        };
        assert!(plan_codes(&plan, None).contains(&codes::PLAN_MEASUREMENT_ORDER));
    }

    #[test]
    fn source_accounting_mismatch_detected() {
        let mut src = Circuit::new(1);
        src.add(0, GateKind::H, &[0]);
        src.add(1, GateKind::X, &[0]);
        // A plan claiming only one folded gate under-accounts.
        let plan = one_gate_plan(h_gate(vec![0]), 1);
        assert!(plan_codes(&plan, Some(&src)).contains(&codes::PLAN_SOURCE_MISMATCH));
        // The real fuser's plan accounts exactly.
        let fused = qsim_fusion::fuse(&src, 2);
        assert!(!plan_codes(&fused, Some(&src)).contains(&codes::PLAN_SOURCE_MISMATCH));
    }

    #[test]
    fn equivalence_probe_catches_wrong_plan() {
        let mut src = Circuit::new(2);
        src.add(0, GateKind::H, &[0]);
        src.add(1, GateKind::Cnot, &[0, 1]);
        // A plan that instead applies X on qubit 1: structurally clean,
        // semantically wrong.
        let wrong = one_gate_plan(
            FusedGate::new(vec![1], GateKind::X.matrix::<f64>().unwrap(), 2, (0, 1)),
            2,
        );
        assert!(plan_codes(&wrong, Some(&src)).contains(&codes::PLAN_EQUIVALENCE_DIVERGED));
        // The real fuser's plan is equivalent.
        let fused = qsim_fusion::fuse(&src, 2);
        assert!(!plan_codes(&fused, Some(&src)).contains(&codes::PLAN_EQUIVALENCE_DIVERGED));
    }

    #[test]
    fn equivalence_probe_skips_large_registers() {
        let n = EQUIVALENCE_MAX_QUBITS + 1;
        let mut src = Circuit::new(n);
        src.add(0, GateKind::H, &[0]);
        let fused = qsim_fusion::fuse(&src, 2);
        let found = plan_codes(&fused, Some(&src));
        assert!(found.contains(&codes::PLAN_EQUIVALENCE_SKIPPED));
        assert!(!found.contains(&codes::PLAN_EQUIVALENCE_DIVERGED));
    }

    #[test]
    fn equivalence_probe_handles_controlled_ops() {
        use qsim_circuit::circuit::GateOp;
        let mut src = Circuit::new(3);
        src.ops.push(GateOp::with_controls(0, GateKind::H, vec![0], vec![2]));
        let fused = qsim_fusion::fuse(&src, 3);
        assert!(!plan_codes(&fused, Some(&src)).contains(&codes::PLAN_EQUIVALENCE_DIVERGED));
    }

    #[test]
    fn sweep_accounting_clean_and_barrier_note() {
        // 2-qubit plan under the default block: everything local, no note.
        let src = qsim_circuit::library::bell();
        let fused = qsim_fusion::fuse(&src, 2);
        let found = plan_codes(&fused, Some(&src));
        assert!(!found.contains(&codes::PLAN_SWEEP_ACCOUNTING));
        assert!(!found.contains(&codes::PLAN_SWEEP_BARRIER_HEAVY));
        // Tiny blocks turn the CZ-containing fused gate into a barrier.
        let r = Analyzer::new().analyze_plan(&fused, Some(&src), SweepConfig::with_block_amps(2));
        let found: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(!found.contains(&codes::PLAN_SWEEP_ACCOUNTING));
        assert!(found.contains(&codes::PLAN_SWEEP_BARRIER_HEAVY));
    }

    #[test]
    fn sweep_disabled_is_clean() {
        let src = qsim_circuit::library::ghz(5);
        let fused = qsim_fusion::fuse(&src, 3);
        let r = Analyzer::new().analyze_plan(&fused, Some(&src), SweepConfig::disabled());
        assert!(r.diagnostics.iter().all(|d| d.code != codes::PLAN_SWEEP_ACCOUNTING));
    }
}
