//! Fusion planning: decide on qubit sets, then build one plan.
//!
//! Fusing is one order-preserving frontier scan over the source gates
//! ([`decide`]). A gate may only merge into the *latest* output op among
//! its qubits' frontiers, so each gate poses a binary choice — take that
//! unique legal merge or open a fresh slot — and the scan never needs a
//! matrix to make it: it tracks qubit sets only, as [`Mask`] words
//! ([`Shadow`]), and records a [`Layout`]. [`crate::build`] then replays
//! the layout over the circuit, the only place matrices are composed.
//! Cost models price layouts from the same qubit sets, so however many
//! candidate layouts a strategy weighs, planning builds exactly one plan.
//!
//! The [`Policy`] is what differs between strategies. `Greedy` takes
//! every legal merge. That is blind to what the merge costs downstream:
//! absorbing a gate can push a fused gate from the cheap Low-kernel /
//! SIMD-lane class into the strided High path, or (on a HIP-like device)
//! widen a low-qubit gate whose `ApplyGateL_Kernel`-style pass pays a
//! steep per-low-qubit traffic overhead. `Lookahead` prices the merge
//! against a fresh pass with a [`FusionCostModel`]: it plays both
//! branches forward on the one shadow for the next [`DEFAULT_LOOKAHEAD`]
//! source gates (an undo journal takes each back), accounting each step
//! incrementally — in `gate_price` seconds, a merge costs `price(union) −
//! price(existing)`, a fresh slot costs `price(gate)`. These deltas
//! telescope, so the branch sums compare exactly the model's context-free
//! price of the two futures restricted to the window, and one scan asks
//! the model for each distinct qubit set once ([`Prices`]).
//!
//! [`FusionStrategy::Auto`] is the in-code analogue of the paper's
//! fusion sweep (Figures 7 and 9): it decides at every
//! max-fused ∈ 2..=[`MAX_GATE_QUBITS`] and keeps the cheapest predicted
//! layout, preferring narrower budgets when the model sees no benefit
//! from widening — which is how a HIP-like spec settles on a smaller
//! fusion width than an A100-like one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use qsim_circuit::circuit::Circuit;
use qsim_core::kernels::MAX_GATE_QUBITS;

use crate::cost::{FusionCostModel, TrafficEstimate};
use crate::{build, FusedCircuit};

/// How a circuit is turned into a fused plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionStrategy {
    /// The classic qsim scan: take every legal merge (paper default).
    Greedy,
    /// Score each legal merge with the backend's cost model over a
    /// lookahead window; merge only when the model predicts it pays.
    Cost,
    /// Sweep max-fused ∈ 2..=6 with the cost planner and keep the argmin
    /// predicted plan — the paper's fusion sweep, run against the model.
    Auto,
}

impl FusionStrategy {
    /// Stable lowercase name, as accepted by `--fusion` and shown in
    /// reports.
    pub const fn label(self) -> &'static str {
        match self {
            FusionStrategy::Greedy => "greedy",
            FusionStrategy::Cost => "cost",
            FusionStrategy::Auto => "auto",
        }
    }

    /// All strategies, in sweep order.
    pub const ALL: [FusionStrategy; 3] =
        [FusionStrategy::Greedy, FusionStrategy::Cost, FusionStrategy::Auto];
}

impl std::str::FromStr for FusionStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "greedy" => Ok(FusionStrategy::Greedy),
            "cost" => Ok(FusionStrategy::Cost),
            "auto" => Ok(FusionStrategy::Auto),
            other => Err(format!("unknown fusion strategy '{other}' (expected greedy|cost|auto)")),
        }
    }
}

impl std::fmt::Display for FusionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Source gates the planner simulates ahead before committing a merge
/// decision. Zero degenerates to the local rule (compare the merge delta
/// against a standalone pass).
const DEFAULT_LOOKAHEAD: usize = 8;

/// Relative slack under which `Auto` prefers a narrower budget: if
/// widening improves the predicted cost by less than this, the narrower
/// plan (smaller matrices, cheaper fusion pass) wins.
const AUTO_TOLERANCE: f64 = 0.005;

/// A fused circuit together with how it was chosen and what the cost
/// model predicts it will take to execute.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// The fused op sequence (for `Auto`, `fused.max_fused_qubits` is the
    /// chosen width).
    pub fused: FusedCircuit,
    /// The strategy that produced it.
    pub strategy: FusionStrategy,
    /// The cost model's prediction for the whole plan, in seconds.
    pub predicted_cost_seconds: f64,
    /// The cost model's modeled memory traffic for the whole plan — the
    /// per-job bytes/s demand the serve layer's bandwidth-aware admission
    /// ledger charges while the job runs.
    pub predicted_traffic: TrafficEstimate,
}

impl From<FusedCircuit> for FusionPlan {
    /// A circuit fused without a planner: `Greedy`, predicting nothing.
    fn from(fused: FusedCircuit) -> FusionPlan {
        let (strategy, predicted_traffic) = (FusionStrategy::Greedy, TrafficEstimate::default());
        FusionPlan { fused, strategy, predicted_cost_seconds: 0.0, predicted_traffic }
    }
}

/// Plan `circuit` under `strategy`. `max_fused_qubits` bounds `Greedy`
/// and `Cost`; `Auto` sweeps its own range and ignores it.
///
/// # Panics
/// As [`crate::fuse`]: on an out-of-range `max_fused_qubits` (for the
/// strategies that use it), over 64 qubits, or an invalid circuit.
pub fn plan(
    circuit: &Circuit,
    strategy: FusionStrategy,
    max_fused_qubits: usize,
    model: &dyn FusionCostModel,
) -> FusionPlan {
    // `Auto` sweeps its own budgets; the widest is the one to check.
    check(
        circuit,
        if strategy == FusionStrategy::Auto { MAX_GATE_QUBITS } else { max_fused_qubits },
    );
    let (layout, predicted_traffic) = match strategy {
        FusionStrategy::Greedy => priced(circuit, max_fused_qubits, Policy::Greedy, model),
        FusionStrategy::Cost => decide_with_model(circuit, max_fused_qubits, model),
        FusionStrategy::Auto => decide_auto(circuit, model),
    };
    FusionPlan {
        fused: build(circuit, &layout),
        strategy,
        predicted_cost_seconds: predicted_traffic.seconds,
        predicted_traffic,
    }
}

/// The fuser's preconditions, checked once per entry point before the
/// scan: a budget the kernels can apply, ≤ 64 qubits, a valid circuit.
pub(crate) fn check(circuit: &Circuit, max_fused_qubits: usize) {
    assert!(
        (1..=MAX_GATE_QUBITS).contains(&max_fused_qubits),
        "max_fused_qubits must be in 1..={MAX_GATE_QUBITS}, got {max_fused_qubits}"
    );
    let n = circuit.num_qubits;
    assert!(n <= Mask::BITS as usize, "fusion plans at most 64 qubits (one u64 mask), got {n}");
    if let Err(diags) = circuit.validate() {
        panic!("fusion requires a valid circuit:\n{}", qsim_core::diag::render_list(&diags));
    }
}

/// A decided layout with the model's whole-plan price for it.
type Priced = (Layout, TrafficEstimate);

fn priced(
    circuit: &Circuit,
    max_fused_qubits: usize,
    policy: Policy,
    model: &dyn FusionCostModel,
) -> Priced {
    let layout = decide(circuit, max_fused_qubits, policy);
    let traffic = model.plan_traffic(circuit.num_qubits, &layout.op_shapes());
    (layout, traffic)
}

/// Decide with the cost model at the default lookahead window.
///
/// The lookahead rule is a bounded-horizon heuristic: declining a merge
/// reshapes the frontier for every later gate, and on pass-dominated
/// devices those cascades can occasionally price worse than first-legal
/// merging. The planner must never lose to greedy *by its own metric*, so
/// when the lookahead layout scores above the greedy baseline the greedy
/// layout is returned instead.
fn decide_with_model(
    circuit: &Circuit,
    max_fused_qubits: usize,
    model: &dyn FusionCostModel,
) -> Priced {
    let policy = Policy::Lookahead { model, window: DEFAULT_LOOKAHEAD };
    let planned = priced(circuit, max_fused_qubits, policy, model);
    let greedy = priced(circuit, max_fused_qubits, Policy::Greedy, model);
    if planned.1.seconds <= greedy.1.seconds {
        planned
    } else {
        greedy
    }
}

/// Sweep max-fused ∈ 2..=[`MAX_GATE_QUBITS`] with the cost planner and
/// return the cheapest predicted layout (narrowest within
/// [`AUTO_TOLERANCE`] of the minimum).
fn decide_auto(circuit: &Circuit, model: &dyn FusionCostModel) -> Priced {
    let mut plans: Vec<Priced> =
        (2..=MAX_GATE_QUBITS).map(|f| decide_with_model(circuit, f, model)).collect();
    let min = plans.iter().map(|(_, t)| t.seconds).fold(f64::INFINITY, f64::min);
    // No price compares (all NaN, or a negative minimum the tolerance
    // scales below itself): fall back to the narrowest budget.
    let chosen =
        plans.iter().position(|(_, t)| t.seconds <= min * (1.0 + AUTO_TOLERANCE)).unwrap_or(0);
    plans.swap_remove(chosen)
}

/// Which legal merges the scan takes.
#[derive(Clone, Copy)]
pub(crate) enum Policy<'a> {
    /// Every one: the classic qsim fuser.
    Greedy,
    /// Those `model` prices no higher than a fresh slot once both
    /// branches are played `window` source ops forward; ties merge
    /// (denser plans, like greedy).
    Lookahead { model: &'a dyn FusionCostModel, window: usize },
}

/// What the scan decided for one source op.
#[derive(Clone, Copy)]
pub(crate) enum Action {
    /// Merge into output slot `t` (the unique legal target).
    Merge(usize),
    /// Open a fresh output slot (every measurement does).
    New,
}

/// The scan's output: everything [`crate::build`] needs to compose the
/// plan and everything a cost model needs to price it.
pub(crate) struct Layout {
    pub(crate) max_fused_qubits: usize,
    /// One per source op, in circuit order.
    pub(crate) actions: Vec<Action>,
    /// One per output op: its final sorted qubit set (`None` marks a
    /// measurement barrier).
    pub(crate) slots: Vec<Option<Vec<usize>>>,
    /// How many prices the scan read (0 under greedy): the unit tests
    /// bound a lookahead scan's.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) price_reads: usize,
}

impl Layout {
    /// The plan's op shapes, as [`FusedCircuit::op_shapes`] will report
    /// them once built.
    fn op_shapes(&self) -> Vec<Option<&[usize]>> {
        self.slots.iter().map(Option::as_deref).collect()
    }
}

/// A qubit set as one word ([`check`] admits ≤ 64 qubits): bit `q` is
/// qubit `q`, so ascending bits are sorted order, union is `|` and width
/// is `count_ones`.
type Mask = u64;

/// The qubits of `mask`, ascending.
fn qubits_of(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            q
        })
    })
}

/// Per-op planning metadata: the op's qubit set (targets ∪ controls for
/// gates) and, under the lookahead policy, a gate's standalone price,
/// precomputed once so the scan never touches matrices.
#[derive(Clone, Copy)]
enum OpQubits {
    Gate(Mask, f64),
    Measurement(Mask),
}

/// Frontier word per qubit: 0 while untouched, else `(slot + 1) << 1 |
/// barrier` for the output op that last touched it. Words grow with the
/// slot, so the latest op among a set's frontiers is their max, and its
/// low bit tells whether that op is a measurement barrier.
type Frontier = usize;

/// An output slot: its qubit set and, under the lookahead policy, its
/// price (a measurement barrier is the empty set; gates touch a qubit).
#[derive(Clone, Copy)]
struct Slot {
    mask: Mask,
    price: f64,
}

/// Matrix-free fuser state: the qubit frontier plus each output slot.
/// `journal` logs what a lookahead branch overwrites, for
/// [`Shadow::rollback`] to put back.
struct Shadow {
    max_fused_qubits: usize,
    frontier: Vec<Frontier>,
    slots: Vec<Slot>,
    journal: Vec<Undo>,
}

/// What a [`Shadow`] write replaced.
#[derive(Clone, Copy)]
enum Undo {
    Frontier(usize, Frontier),
    Slot(usize, Slot),
}

/// A legal merge: the target slot and the qubit set it would widen to.
type Merge = (usize, Mask);

impl Shadow {
    /// The unique legal merge for a gate on `qubits`, if one exists under
    /// the budget.
    ///
    /// A gate may merge into the *latest* output op among its qubits'
    /// frontiers: every other frontier is strictly earlier, and no op
    /// after the target touches any of this gate's qubits (otherwise that
    /// op would itself be the latest frontier). A barrier that is the
    /// latest frontier blocks merging entirely, as does a union that
    /// bursts the budget.
    fn candidate(&self, qubits: Mask) -> Option<Merge> {
        let latest = qubits_of(qubits).map(|q| self.frontier[q]).max().unwrap_or(0);
        let t = (latest >> 1).checked_sub(1).filter(|_| latest & 1 == 0)?;
        let union = self.slots[t].mask | qubits;
        (union.count_ones() as usize <= self.max_fused_qubits).then_some((t, union))
    }

    /// Place a gate on `qubits` as `slot`: widening slot `t`, or in a
    /// fresh one.
    fn apply_gate(&mut self, qubits: Mask, t: Option<usize>, slot: Slot) -> Action {
        let (idx, action) = match t {
            Some(t) => {
                self.journal.push(Undo::Slot(t, std::mem::replace(&mut self.slots[t], slot)));
                (t, Action::Merge(t))
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1, Action::New)
            }
        };
        self.point(qubits, (idx + 1) << 1);
        action
    }

    fn apply_barrier(&mut self, qubits: Mask) {
        self.slots.push(Slot { mask: 0, price: 0.0 });
        self.point(qubits, self.slots.len() << 1 | 1);
    }

    fn point(&mut self, qubits: Mask, at: Frontier) {
        for q in qubits_of(qubits) {
            self.journal.push(Undo::Frontier(q, std::mem::replace(&mut self.frontier[q], at)));
        }
    }

    /// Return to the state that had `slots` slots and `journal` entries.
    fn rollback(&mut self, slots: usize, journal: usize) {
        for undo in self.journal.drain(journal..).rev() {
            match undo {
                Undo::Frontier(q, was) => self.frontier[q] = was,
                Undo::Slot(t, was) => self.slots[t] = was,
            }
        }
        self.slots.truncate(slots);
    }

    /// `merge` priced: its delta over the slot it widens, and the widened
    /// slot.
    fn widened(&self, (t, union): Merge, prices: &mut Prices) -> (f64, usize, Slot) {
        let price = prices.seconds(union);
        (price - self.slots[t].price, t, Slot { mask: union, price })
    }

    /// Place a gate on `qubits` (standalone price `alone`) by `merge`, a
    /// priced merge ([`Self::widened`]), or in a fresh slot; returns what
    /// that adds to a branch.
    fn play(&mut self, qubits: Mask, alone: f64, merge: Option<(f64, usize, Slot)>) -> f64 {
        let (delta, t, slot) = match merge {
            Some((delta, t, slot)) => (delta, Some(t), slot),
            None => (alone, None, Slot { mask: qubits, price: alone }),
        };
        self.apply_gate(qubits, t, slot);
        delta
    }

    /// Cost of placing a gate on `qubits` (standalone price `alone`) as
    /// `merge` says and then playing the `window` of upcoming ops forward
    /// under the local rule: merge iff the merge delta does not exceed a
    /// standalone pass; ties merge, matching greedy compression. Leaves
    /// the shadow as it found it.
    ///
    /// A window gate whose legal merge `(t, union)` joins its own slot
    /// (`union` is slot `t`'s set), where that slot's price is finite and
    /// `alone ≥ 0`, is skipped: no journal entry, no price read, no add.
    /// No sum or frontier can tell. Each of the gate's qubits is in slot
    /// `t`, so its frontier pointed at `t` once; frontiers only move to
    /// later slots and `t` is the latest over the gate's qubits, so each
    /// still points at `t` and placing the gate rewrites nothing. Its delta
    /// is `p − p = +0`, taken because `+0 ≤ alone`, and `rest + 0` equals
    /// `rest` up to −0 → +0, which `<=` cannot tell apart. Any other window
    /// gate (a NaN or infinite slot price, a negative or NaN `alone`, a
    /// widening merge) and every barrier plays in full, as does the gate
    /// being decided: a join can tie its fresh slot exactly, and then
    /// rounding decides.
    fn branch_cost(
        &mut self,
        qubits: Mask,
        alone: f64,
        merge: Option<Merge>,
        window: &[OpQubits],
        prices: &mut Prices,
    ) -> f64 {
        let mark = (self.slots.len(), self.journal.len());
        let merge = merge.map(|merge| self.widened(merge, prices));
        let first = self.play(qubits, alone, merge);
        let mut rest = 0.0;
        for &op in window {
            match op {
                OpQubits::Gate(qs, alone) => {
                    let merge = self.candidate(qs);
                    if let Some((t, union)) = merge {
                        let slot = self.slots[t];
                        if union == slot.mask && slot.price.is_finite() && alone >= 0.0 {
                            continue;
                        }
                    }
                    let merge = merge
                        .map(|merge| self.widened(merge, prices))
                        .filter(|&(delta, ..)| delta <= alone);
                    rest += self.play(qs, alone, merge);
                }
                OpQubits::Measurement(qs) => self.apply_barrier(qs),
            }
        }
        self.rollback(mark.0, mark.1);
        first + rest
    }
}

/// `gate_price` seconds by qubit set for one [`decide`] call, each asked
/// of the model once: prices are pure, so a repeat would be the same float.
/// The model sees the set as a sorted `Vec` on a miss only.
struct Prices<'a> {
    model: &'a dyn FusionCostModel,
    num_qubits: usize,
    seen: HashMap<Mask, f64, BuildHasherDefault<MaskHasher>>,
    reads: usize,
}

impl Prices<'_> {
    fn seconds(&mut self, qubits: Mask) -> f64 {
        self.reads += 1;
        *self.seen.entry(qubits).or_insert_with(|| {
            let sorted: Vec<usize> = qubits_of(qubits).collect();
            self.model.gate_price(self.num_qubits, &sorted).seconds
        })
    }
}

/// [`Prices`]' hash: one folded 64 × 64 → 128-bit multiply, so both the
/// bucket bits (low) and the tag bits (high) depend on every qubit. The
/// keys come from circuits, but each is a fused set of ≤ 6 qubits or one
/// gate's own, of ≤ 36 qubits for a parsed circuit: too few distinct keys
/// exist for a crafted circuit to pile many onto one bucket.
#[derive(Default)]
struct MaskHasher(u64);

impl Hasher for MaskHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a mask hashes as one u64")
    }
    fn write_u64(&mut self, mask: u64) {
        let full = u128::from(mask) * 0x9E37_79B9_7F4A_7C15;
        self.0 = full as u64 ^ (full >> 64) as u64;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The frontier scan: walk `circuit` once in source order and decide, per
/// gate, between its unique legal merge and a fresh slot under `policy`.
///
/// Order semantics do not depend on the policy — same legal merge
/// targets, same measurement barriers — so every layout this produces
/// builds a plan equivalent to the source circuit; only *which* legal
/// merges are taken differs. A gate wider than the budget never has a
/// legal merge and passes through unfused. Callers run [`check`] first.
pub(crate) fn decide(circuit: &Circuit, max_fused_qubits: usize, policy: Policy) -> Layout {
    let (mut prices, window) = match policy {
        Policy::Greedy => (None, 0),
        Policy::Lookahead { model, window } => {
            let num_qubits = circuit.num_qubits;
            (Some(Prices { model, num_qubits, seen: Default::default(), reads: 0 }), window)
        }
    };
    let infos: Vec<OpQubits> = circuit
        .ops
        .iter()
        .map(|op| {
            let qs = op.qubits.iter().chain(&op.controls).fold(0, |m: Mask, &q| m | 1 << q);
            if op.is_measurement() {
                OpQubits::Measurement(qs)
            } else {
                OpQubits::Gate(qs, prices.as_mut().map_or(0.0, |p| p.seconds(qs)))
            }
        })
        .collect();

    // Room for a branch of gates no wider than the kernels' widest.
    let journal = Vec::with_capacity((window + 1) * (MAX_GATE_QUBITS + 1));
    let (frontier, slots) = (vec![0; circuit.num_qubits], Vec::with_capacity(infos.len()));
    let mut shadow = Shadow { max_fused_qubits, frontier, slots, journal };
    let mut actions = Vec::with_capacity(infos.len());
    for (i, &info) in infos.iter().enumerate() {
        let action = match info {
            OpQubits::Measurement(qs) => {
                shadow.apply_barrier(qs);
                Action::New
            }
            OpQubits::Gate(qs, alone) => {
                let merge = shadow.candidate(qs).filter(|&merge| match &mut prices {
                    None => true,
                    Some(prices) => {
                        let window = &infos[i + 1..(i + 1 + window).min(infos.len())];
                        shadow.branch_cost(qs, alone, Some(merge), window, prices)
                            <= shadow.branch_cost(qs, alone, None, window, prices)
                    }
                });
                let slot = match merge {
                    Some((_, union)) => Slot {
                        mask: union,
                        price: prices.as_mut().map_or(0.0, |p| p.seconds(union)),
                    },
                    None => Slot { mask: qs, price: alone },
                };
                shadow.apply_gate(qs, merge.map(|(t, _)| t), slot)
            }
        };
        shadow.journal.clear(); // committed: nothing rolls back past here
        actions.push(action);
    }
    let slots = shadow
        .slots
        .iter()
        .map(|s| {
            (s.mask != 0).then(|| {
                let mut qubits = Vec::with_capacity(s.mask.count_ones() as usize);
                qubits.extend(qubits_of(s.mask));
                qubits
            })
        })
        .collect();
    let price_reads = prices.map_or(0, |p| p.reads);
    Layout { max_fused_qubits, actions, slots, price_reads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LaunchCostModel, LaunchPolicy};
    use crate::{fuse, FusedGate, FusedOp};
    use gpu_model::specs::DeviceSpec;
    use qsim_circuit::gates::GateKind;
    use qsim_circuit::library;
    use qsim_core::sweep::SweepConfig;
    use qsim_core::types::Precision;

    fn gpu_model(spec: DeviceSpec, low_qubit_byte_overhead: f64) -> LaunchCostModel {
        let policy = LaunchPolicy {
            tpb_high: 64,
            tpb_low: 32,
            low_qubit_byte_overhead,
            shuffle_flops_per_low_qubit: 4.0,
            uploads_matrices: true,
            lane_qubits: 0,
            sweep: SweepConfig::disabled(),
        };
        LaunchCostModel { spec, policy, precision: Precision::Single }
    }

    fn hip_model() -> LaunchCostModel {
        gpu_model(DeviceSpec::mi250x_gcd(), 2.0)
    }

    fn a100_model() -> LaunchCostModel {
        gpu_model(DeviceSpec::a100(), 0.05)
    }

    fn cpu_model() -> LaunchCostModel {
        let policy = LaunchPolicy {
            tpb_high: 128,
            tpb_low: 128,
            low_qubit_byte_overhead: 0.06,
            shuffle_flops_per_low_qubit: 6.0,
            uploads_matrices: false,
            lane_qubits: 2,
            sweep: SweepConfig::default(),
        };
        LaunchCostModel { spec: DeviceSpec::epyc_trento(), policy, precision: Precision::Single }
    }

    fn fuse_with_model(c: &Circuit, f: usize, model: &dyn FusionCostModel) -> FusedCircuit {
        plan(c, FusionStrategy::Cost, f, model).fused
    }

    fn fuse_auto(c: &Circuit, model: &dyn FusionCostModel) -> FusedCircuit {
        plan(c, FusionStrategy::Auto, MAX_GATE_QUBITS, model).fused
    }

    fn plan_cost(model: &dyn FusionCostModel, fused: &FusedCircuit) -> f64 {
        model.plan_cost(fused.num_qubits, &fused.op_shapes())
    }

    /// Final unitary of `fused` must match the unfused reference.
    fn assert_equivalent(circuit: &Circuit, fused: &FusedCircuit) {
        use qsim_core::kernels::apply_gate_seq;
        use qsim_core::StateVector;

        let mut reference = StateVector::<f64>::new(circuit.num_qubits);
        for op in &circuit.ops {
            if op.is_measurement() {
                continue;
            }
            let (qs, m) = op.sorted_matrix::<f64>().unwrap();
            apply_gate_seq(&mut reference, &qs, &m);
        }
        let mut state = StateVector::<f64>::new(circuit.num_qubits);
        for op in &fused.ops {
            if let FusedOp::Unitary(g) = op {
                apply_gate_seq(&mut state, &g.qubits, g.matrix());
            }
        }
        let diff = reference.max_abs_diff(&state);
        assert!(diff < 1e-12, "cost-planned circuit diverges by {diff}");
    }

    #[test]
    fn cost_plans_are_equivalent_across_models_and_widths() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(10, 8, 7));
        for f in 2..=6 {
            assert_equivalent(&c, &fuse_with_model(&c, f, &hip_model()));
            assert_equivalent(&c, &fuse_with_model(&c, f, &a100_model()));
            assert_equivalent(&c, &fuse_with_model(&c, f, &cpu_model()));
        }
    }

    #[test]
    fn auto_plans_are_equivalent() {
        let c = library::random_dense(8, 60, 11);
        assert_equivalent(&c, &fuse_auto(&c, &hip_model()));
        assert_equivalent(&c, &fuse_auto(&c, &a100_model()));
        assert_equivalent(&c, &fuse_auto(&c, &cpu_model()));
    }

    #[test]
    fn cost_plan_accounts_every_source_gate() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(12, 8, 9));
        let (one, two, _) = c.gate_counts();
        for f in 2..=6 {
            let s = fuse_with_model(&c, f, &hip_model()).stats();
            assert_eq!(s.source_gates, one + two, "f={f}");
        }
    }

    #[test]
    fn cost_never_predicted_worse_than_greedy() {
        // The planner only declines merges the model says are harmful, so
        // by its own metric it must not lose to greedy (acceptance bound:
        // within 2%; in practice it should win or tie).
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(14, 10, 5));
        for model in &[hip_model(), a100_model()] {
            for f in 2..=6 {
                let greedy = plan_cost(model, &fuse(&c, f));
                let cost = plan_cost(model, &fuse_with_model(&c, f, model));
                assert!(
                    cost <= greedy * 1.02,
                    "f={f} {}: cost-planned {cost} vs greedy {greedy}",
                    model.spec.name
                );
            }
        }
    }

    #[test]
    fn hip_caps_chosen_fusion_width_below_a100() {
        // The Figure 9 asymmetry must be visible in Auto's choice. Use a
        // low-qubit-heavy workload on a large state: every target sits in
        // the Low-kernel range, where the HIP-like model's per-low-qubit
        // traffic overhead grows with the fused width (the staging tile)
        // and makes the widest budget a loss, while the A100-like model
        // keeps profiting from fewer passes.
        let dense = library::random_dense(6, 40, 3);
        let mut c = Circuit::new(20);
        c.ops.clone_from(&dense.ops);
        let hip = fuse_auto(&c, &hip_model());
        let a100 = fuse_auto(&c, &a100_model());
        assert!(
            hip.max_fused_qubits < a100.max_fused_qubits,
            "hip chose {} which should be below a100's {}",
            hip.max_fused_qubits,
            a100.max_fused_qubits
        );
        // The cap binds the gates actually built: hip never builds a gate
        // as wide as a100's budget (a100's planner may still decline its
        // widest merges gate-by-gate, so compare against the budget).
        let widest = |f: &FusedCircuit| f.unitaries().map(FusedGate::width).max().unwrap();
        assert!(widest(&hip) <= hip.max_fused_qubits);
        assert!(widest(&hip) < a100.max_fused_qubits);
    }

    #[test]
    fn auto_matches_best_fixed_width_by_model_metric() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(12, 10, 21));
        for model in &[hip_model(), a100_model(), cpu_model()] {
            let auto = plan_cost(model, &fuse_auto(&c, model));
            let best_fixed =
                (2..=6).map(|f| plan_cost(model, &fuse(&c, f))).fold(f64::INFINITY, f64::min);
            assert!(
                auto <= best_fixed * (1.0 + AUTO_TOLERANCE),
                "{}: auto {auto} vs best fixed greedy {best_fixed}",
                model.spec.name
            );
        }
    }

    #[test]
    fn measurements_stay_barriers_under_cost_planning() {
        let mut c = Circuit::new(1);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Measurement, &[0]);
        c.add(2, GateKind::X, &[0]);
        let fused = fuse_with_model(&c, 4, &a100_model());
        assert_eq!(fused.ops.len(), 3);
        assert!(matches!(fused.ops[1], FusedOp::Measurement { .. }));
        assert_eq!(fused.num_unitaries(), 2);
    }

    #[test]
    fn zero_lookahead_degenerates_to_local_rule() {
        let c = library::random_dense(8, 40, 3);
        let policy = Policy::Lookahead { model: &hip_model(), window: 0 };
        let fused = build(&c, &decide(&c, 4, policy));
        assert_equivalent(&c, &fused);
    }

    /// Records the qubit set of every `gate_price` call.
    struct Counting {
        inner: LaunchCostModel,
        asked: std::sync::Mutex<Vec<Vec<usize>>>,
    }

    impl FusionCostModel for Counting {
        fn gate_price(&self, num_qubits: usize, qubits: &[usize]) -> TrafficEstimate {
            self.asked.lock().unwrap().push(qubits.to_vec());
            self.inner.gate_price(num_qubits, qubits)
        }
    }

    /// `gate_price` calls of one lookahead scan at budget `f`; panics if
    /// any qubit set was priced twice.
    fn evaluations(c: &Circuit, f: usize) -> usize {
        let model = Counting { inner: hip_model(), asked: Default::default() };
        decide(c, f, Policy::Lookahead { model: &model, window: DEFAULT_LOOKAHEAD });
        let asked = model.asked.into_inner().unwrap();
        let distinct: std::collections::HashSet<&Vec<usize>> = asked.iter().collect();
        assert_eq!(asked.len(), distinct.len(), "f={f}: a qubit set was priced twice");
        assert!(!asked.is_empty());
        asked.len()
    }

    /// Work is counted, not timed: one scan prices each distinct qubit
    /// set once, at `Cost`'s budget and at each of `Auto`'s five, and
    /// twice the circuit is at most twice the evaluations. (The
    /// clone-per-branch scan made 12 224 calls for the 46 distinct sets of
    /// the 10-cycle circuit at `-f 4`, and copied every slot per branch.)
    #[test]
    fn planner_prices_each_qubit_set_once_per_scan() {
        use qsim_circuit::circuit::GateOp;
        use qsim_circuit::{generate_rqc, RqcOptions};

        // `plan_golden.rs`'s barrier-and-control circuit.
        let mut barrier = generate_rqc(&RqcOptions::for_qubits(12, 6, 11));
        let t = barrier.ops.iter().map(|op| op.time).max().expect("rqc has gates") + 1;
        barrier.add(t, GateKind::Measurement, &[3, 4]);
        barrier.ops.push(GateOp::with_controls(t + 1, GateKind::H, vec![0], vec![5]));
        for op in generate_rqc(&RqcOptions::for_qubits(12, 6, 12)).ops {
            barrier.ops.push(GateOp { time: op.time + t + 2, ..op });
        }
        let rqc10 = generate_rqc(&RqcOptions::for_qubits(12, 10, 7));
        let rqc20 = generate_rqc(&RqcOptions::for_qubits(12, 20, 7));
        for f in 2..=MAX_GATE_QUBITS {
            evaluations(&barrier, f);
            let (short, long) = (evaluations(&rqc10, f), evaluations(&rqc20, f));
            assert!(
                long as f64 <= 2.2 * short as f64,
                "f={f}: {long} evaluations at 20 cycles vs {short} at 10"
            );
        }
    }

    /// Counted, not timed: a lookahead scan of the paper's 30-qubit circuit
    /// under the HIP-like model at `-f 4` reads at most a quarter of the
    /// prices the scan that played every window gate read: 27 067 (at
    /// `-f 1…6` it read 1 694, 20 097, 24 809, 27 067, 28 108 and 29 964;
    /// this scan reads 774, 1 618, 2 704, 3 224, 3 506 and 4 010).
    #[test]
    fn planner_lookahead_reads_a_quarter_of_the_prices() {
        let q30 = include_str!("../../../circuits/circuit_q30");
        let c = qsim_circuit::parser::parse_circuit(q30).expect("circuit_q30 parses");
        let policy = Policy::Lookahead { model: &hip_model(), window: DEFAULT_LOOKAHEAD };
        let reads = decide(&c, 4, policy).price_reads;
        assert!(4 * reads <= 27_067, "{reads} price reads at -f 4");
    }

    /// Prices a pass by its width alone (a fixed launch plus `4^k` matrix
    /// work), so moving a circuit to other qubits cannot move a decision,
    /// and `Cost` still declines the widening merges greedy takes.
    struct WidthModel;

    impl FusionCostModel for WidthModel {
        fn gate_price(&self, _num_qubits: usize, qubits: &[usize]) -> TrafficEstimate {
            let work = (1u64 << (2 * qubits.len())) as f64;
            TrafficEstimate { bytes: work, seconds: 40.0 + work }
        }
    }

    /// [`WidthModel`] with its seconds rewritten by a rule on
    /// `(qubits, seconds)`.
    struct Rewritten(fn(&[usize], f64) -> f64);

    impl FusionCostModel for Rewritten {
        fn gate_price(&self, num_qubits: usize, qubits: &[usize]) -> TrafficEstimate {
            let price = WidthModel.gate_price(num_qubits, qubits);
            TrafficEstimate { seconds: (self.0)(qubits, price.seconds), ..price }
        }
    }

    /// Where no budget's price passes `Auto`'s tolerance test — every one
    /// NaN, or a negative minimum — `Auto` keeps its narrowest budget
    /// instead of panicking.
    #[test]
    fn auto_falls_back_to_its_narrowest_budget_when_no_price_compares() {
        let c = library::qft(6);
        let nan_on_0: fn(&[usize], f64) -> f64 = |qs, s| if qs.contains(&0) { f64::NAN } else { s };
        for model in [Rewritten(nan_on_0), Rewritten(|_, s| -s)] {
            let auto = plan(&c, FusionStrategy::Auto, MAX_GATE_QUBITS, &model);
            let narrowest = plan(&c, FusionStrategy::Cost, 2, &model);
            assert_eq!(auto.fused.max_fused_qubits, 2);
            assert_eq!(fingerprint(&auto.fused, 0), fingerprint(&narrowest.fused, 0));
            let bits = |p: &FusionPlan| p.predicted_cost_seconds.to_bits();
            assert_eq!(bits(&auto), bits(&narrowest));
        }
    }

    /// Per op: qubits less `offset`, matrix bits and provenance.
    type OpPrint = (Vec<usize>, Vec<(u64, u64)>, usize, (usize, usize));

    fn fingerprint(fused: &FusedCircuit, offset: usize) -> Vec<OpPrint> {
        fused
            .ops
            .iter()
            .map(|op| match op {
                FusedOp::Unitary(g) => (
                    g.qubits.iter().map(|q| q - offset).collect(),
                    g.matrix()
                        .as_slice()
                        .iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect(),
                    g.source_gates,
                    g.time_range,
                ),
                FusedOp::Measurement { qubits, time } => {
                    (qubits.iter().map(|q| q - offset).collect(), Vec::new(), 0, (*time, *time))
                }
            })
            .collect()
    }

    /// The top of the mask is ordinary: an 8-qubit circuit (a measurement
    /// barrier and a controlled gate included) moved onto qubits 56..=63
    /// of a 64-qubit register plans exactly as it did on 0..=7.
    #[test]
    fn planner_masks_fuse_on_qubits_56_to_63() {
        use qsim_circuit::circuit::GateOp;

        let mut low = library::random_dense(8, 60, 5);
        let t = low.ops.iter().map(|op| op.time).max().expect("gates") + 1;
        low.add(t, GateKind::Measurement, &[2, 3]);
        low.ops.push(GateOp::with_controls(t + 1, GateKind::H, vec![0], vec![7]));
        for op in library::random_dense(8, 30, 6).ops {
            low.ops.push(GateOp { time: op.time + t + 2, ..op });
        }
        let mut high = Circuit::new(64);
        for op in &low.ops {
            let shift = |qs: &[usize]| qs.iter().map(|q| q + 56).collect();
            high.ops.push(GateOp::with_controls(
                op.time,
                op.kind,
                shift(&op.qubits),
                shift(&op.controls),
            ));
        }
        for s in FusionStrategy::ALL {
            let (a, b) = (plan(&low, s, 4, &WidthModel), plan(&high, s, 4, &WidthModel));
            assert!(a.fused.num_unitaries() < low.ops.len() - 1, "{s}: nothing fused");
            assert_eq!(fingerprint(&b.fused, 56), fingerprint(&a.fused, 0), "{s}");
            assert_eq!(b.fused.max_fused_qubits, a.fused.max_fused_qubits, "{s}");
            assert_eq!(b.predicted_cost_seconds.to_bits(), a.predicted_cost_seconds.to_bits());
        }
        let greedy = plan(&low, FusionStrategy::Greedy, 4, &WidthModel).fused;
        let cost = plan(&low, FusionStrategy::Cost, 4, &WidthModel).fused;
        assert!(cost.num_unitaries() > greedy.num_unitaries(), "cost declined no merge");
    }

    #[test]
    #[should_panic(expected = "at most 64 qubits")]
    fn planner_masks_reject_65_qubits() {
        let mut c = Circuit::new(65);
        c.add(0, GateKind::H, &[64]);
        let _ = plan(&c, FusionStrategy::Greedy, 2, &WidthModel);
    }

    #[test]
    #[should_panic(expected = "max_fused_qubits")]
    fn out_of_range_budget_rejected() {
        let _ = fuse_with_model(&library::bell(), 9, &a100_model());
    }

    #[test]
    fn strategy_labels_round_trip() {
        for s in FusionStrategy::ALL {
            assert_eq!(s.label().parse::<FusionStrategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.label());
        }
        assert!("best".parse::<FusionStrategy>().is_err());
    }

    #[test]
    fn plan_reports_strategy_and_cost() {
        let c = library::bell();
        let model = a100_model();
        for s in FusionStrategy::ALL {
            let p = plan(&c, s, 2, &model);
            assert_eq!(p.strategy, s);
            assert!(p.predicted_cost_seconds > 0.0);
            assert_eq!(p.predicted_cost_seconds, plan_cost(&model, &p.fused));
        }
    }

    #[test]
    fn greedy_and_cost_share_plan_shape_invariants() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(10, 6, 3));
        let fused = fuse_with_model(&c, 4, &hip_model());
        for g in fused.unitaries() {
            assert!(g.matrix().is_unitary(1e-10));
            assert!(g.qubits.len() <= 4);
            assert!(g.qubits.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
