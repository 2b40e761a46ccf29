//! Swap scheduling: which slot remappings to perform, and when.
//!
//! The eager baseline localizes global qubits one pairwise exchange at a
//! time, immediately before the gate that needs them, evicting the
//! highest unprotected local slot. That is correct but wasteful in two
//! independent ways this module fixes:
//!
//! 1. **Epoch batching.** Exchanging `k` global id bits in one
//!    all-to-all epoch moves `(1 − 2⁻ᵏ)` of each shard — the amplitudes
//!    whose new home differs in at least one of the `k` bits — instead
//!    of `k` separate half-shard exchanges (`k/2` shards total). Two
//!    batched bits save 25 % of the bytes, three save 42 %, and every
//!    batched bit also folds its per-transfer link latency into one.
//! 2. **Reuse-aware eviction.** The victim slot for an incoming global
//!    qubit is chosen by farthest-next-use (Bélády) over the remaining
//!    fused-op stream, with a soon-needed-global *prefetch* pass that
//!    fills otherwise-idle exchange pairs. A schedule that somehow prices
//!    worse than eager is discarded for the eager one, so the scheduler
//!    **never** exceeds the naive swap count (a property the test suite
//!    pins down).
//!
//! The schedule is purely a plan — `Vec<Epoch>` per fused op — so the
//! backend can replay it identically for functional runs and dry-run
//! estimates, and the distributed cost model can price a candidate fusion
//! plan without touching device state.

use std::fmt;

use qsim_fusion::FusedCircuit;

use crate::interconnect::{LinkSpec, Topology};
use qsim_backends::QubitLayout;

/// How the backend chooses slot remappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwapPolicy {
    /// One pairwise exchange per global qubit, immediately before the
    /// gate that needs it, highest-slot victim — the naive baseline.
    Eager,
    /// Batched exchange epochs with Bélády eviction and bounded-horizon
    /// prefetch; falls back to [`SwapPolicy::Eager`] whenever the
    /// lookahead schedule would swap more (so it never loses).
    #[default]
    Lookahead,
}

impl SwapPolicy {
    /// Stable lowercase name, as accepted by `--swap-policy`.
    pub const fn label(self) -> &'static str {
        match self {
            SwapPolicy::Eager => "eager",
            SwapPolicy::Lookahead => "lookahead",
        }
    }
}

impl std::str::FromStr for SwapPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "eager" => Ok(SwapPolicy::Eager),
            "lookahead" => Ok(SwapPolicy::Lookahead),
            other => Err(format!("unknown swap policy '{other}' (expected eager | lookahead)")),
        }
    }
}

/// Default pipeline depth for comm/compute overlap: each exchange epoch
/// is split into this many per-block chunks raced against the dependent
/// gate kernel's matching chunks.
pub const DEFAULT_OVERLAP_CHUNKS: usize = 8;

/// Fused ops the prefetcher scans past the current op when filling idle
/// exchange pairs.
const LOOKAHEAD_OPS: usize = 16;

/// Execution options for the sharded backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistOptions {
    /// Swap scheduling policy.
    pub policy: SwapPolicy,
    /// Pipeline each exchange epoch against the dependent gate kernel on
    /// the comm stream (instead of serializing link time on the compute
    /// stream).
    pub overlap: bool,
    /// Pipeline depth when `overlap` is on (clamped to the kernel's
    /// block count at charge time).
    pub chunks: usize,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions { policy: SwapPolicy::default(), overlap: true, chunks: DEFAULT_OVERLAP_CHUNKS }
    }
}

impl DistOptions {
    /// The naive baseline the scheduler is benchmarked against: eager
    /// per-qubit swaps, link time serialized on the compute stream.
    pub fn naive() -> Self {
        DistOptions { policy: SwapPolicy::Eager, overlap: false, chunks: 1 }
    }
}

/// Why a circuit cannot be scheduled onto a given shard geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A fused gate touches more qubits than one device holds locally.
    GateTooWide {
        /// Qubits of the offending fused gate.
        width: usize,
        /// Local qubits per device (`m`).
        local_qubits: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::GateTooWide { width, local_qubits } => write!(
                f,
                "a {width}-qubit fused gate cannot be made local with only {local_qubits} local \
                 qubits per device (re-fuse with a smaller max_fused_qubits)"
            ),
        }
    }
}

/// One all-to-all exchange: a batch of `(local_slot, global_slot)` swaps
/// applied atomically before a gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// Slot swaps, in application order. Global slots are distinct (each
    /// consumes one device-id bit), as are local victim slots.
    pub pairs: Vec<(usize, usize)>,
}

impl Epoch {
    /// Bytes each device pushes over the interconnect for this epoch.
    ///
    /// Exchanging `k` id bits at once relocates every amplitude whose
    /// destination differs in at least one of them — all but the `2⁻ᵏ`
    /// fraction that stays — in a single all-to-all, versus `k·(1/2)`
    /// shards for `k` serial pairwise exchanges.
    pub fn bytes_per_device(&self, shard_len: usize, amp_bytes: usize) -> u64 {
        let shard_bytes = (shard_len * amp_bytes) as u64;
        shard_bytes - (shard_bytes >> self.pairs.len().min(63) as u32)
    }

    /// The effective link for the epoch: conservatively the slowest
    /// bandwidth and largest latency among the id bits it crosses (on a
    /// two-level topology the cross-package hop gates the all-to-all).
    pub fn link(&self, topology: &Topology, m: usize) -> LinkSpec {
        let mut bw = f64::INFINITY;
        let mut latency = 0.0f64;
        for &(_, global_slot) in &self.pairs {
            let l = topology.link_for_bit(global_slot - m);
            bw = bw.min(l.bw_gib_s);
            latency = latency.max(l.latency_us);
        }
        LinkSpec { bw_gib_s: bw, latency_us: latency }
    }

    /// Modeled wall seconds for the epoch on `topology`.
    pub fn seconds(
        &self,
        topology: &Topology,
        m: usize,
        shard_len: usize,
        amp_bytes: usize,
    ) -> f64 {
        self.link(topology, m).exchange_seconds(self.bytes_per_device(shard_len, amp_bytes))
    }
}

/// A complete swap schedule for one fused circuit on one shard geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapSchedule {
    /// `epochs[i]` = exchange epochs applied immediately before op `i`
    /// (in `fused.ops` order). Eager schedules emit one single-pair epoch
    /// per swap; lookahead schedules batch all of an op's swaps (plus
    /// prefetches) into one epoch.
    pub epochs: Vec<Vec<Epoch>>,
    /// Total slot swaps across all epochs.
    pub swaps: usize,
}

impl SwapSchedule {
    /// Plan the swaps for `fused` on shards of `m` local qubits.
    pub fn plan(
        fused: &FusedCircuit,
        m: usize,
        policy: SwapPolicy,
    ) -> Result<SwapSchedule, ScheduleError> {
        SwapSchedule::plan_shapes(fused.num_qubits, &fused.op_shapes(), m, policy)
    }

    /// [`SwapSchedule::plan`] from op shapes alone (`ops[i]` = the qubits
    /// unitary `i` must have local, `None` for ops like measurements that
    /// execute on any layout) — all the scheduler reads of a plan, so the
    /// distributed cost model can schedule a layout before it is built.
    pub(crate) fn plan_shapes(
        num_qubits: usize,
        ops: &[Option<&[usize]>],
        m: usize,
        policy: SwapPolicy,
    ) -> Result<SwapSchedule, ScheduleError> {
        if let Some(width) = ops.iter().flatten().map(|q| q.len()).find(|&w| w > m) {
            return Err(ScheduleError::GateTooWide { width, local_qubits: m });
        }
        match policy {
            SwapPolicy::Eager => Ok(eager(num_qubits, ops, m)),
            SwapPolicy::Lookahead => {
                let naive = eager(num_qubits, ops, m);
                let ahead = lookahead(num_qubits, ops, m);
                // The fallback *guarantees* swaps ≤ naive; batched epochs
                // then guarantee bytes ≤ naive too, since an epoch of k
                // pairs moves (1 − 2⁻ᵏ) ≤ k/2 shards.
                Ok(if ahead.swaps <= naive.swaps { ahead } else { naive })
            }
        }
    }

    /// Exchange epochs in the schedule.
    pub fn num_epochs(&self) -> usize {
        self.epochs.iter().map(Vec::len).sum()
    }

    /// Total modeled bytes each device pushes replaying this schedule.
    pub fn bytes_per_device(&self, shard_len: usize, amp_bytes: usize) -> u64 {
        self.epochs.iter().flatten().map(|e| e.bytes_per_device(shard_len, amp_bytes)).sum()
    }
}

/// The naive baseline: mirror of the original backend loop — one epoch
/// per global qubit, in gate-qubit order, highest-slot victim.
fn eager(num_qubits: usize, ops: &[Option<&[usize]>], m: usize) -> SwapSchedule {
    let mut layout = QubitLayout::new(num_qubits, m);
    let mut epochs = Vec::with_capacity(ops.len());
    let mut swaps = 0usize;
    for op in ops {
        let mut here = Vec::new();
        if let Some(qubits) = *op {
            for &q in qubits {
                if layout.is_local(q) {
                    continue;
                }
                let global_slot = layout.slot_of(q);
                let local_slot = layout.pick_victim(qubits);
                layout.swap_slots(local_slot, global_slot);
                here.push(Epoch { pairs: vec![(local_slot, global_slot)] });
                swaps += 1;
            }
        }
        epochs.push(here);
    }
    SwapSchedule { epochs, swaps }
}

/// Op indices at which each qubit is used by a unitary, ascending.
fn unitary_uses(num_qubits: usize, ops: &[Option<&[usize]>]) -> Vec<Vec<usize>> {
    let mut uses = vec![Vec::new(); num_qubits];
    for (i, op) in ops.iter().enumerate() {
        if let Some(qubits) = *op {
            for &q in qubits {
                uses[q].push(i);
            }
        }
    }
    uses
}

/// First unitary use of `q` strictly after op `i` (`usize::MAX` = never).
fn next_use(uses: &[Vec<usize>], q: usize, i: usize) -> usize {
    let us = &uses[q];
    let at = us.partition_point(|&u| u <= i);
    us.get(at).copied().unwrap_or(usize::MAX)
}

/// Bélády victim: the local slot whose logical qubit is needed farthest
/// in the future (ties broken toward higher slots, which keeps the
/// `ApplyGateL_Kernel`-triggering low slots stable), excluding `protect`.
/// `None` when every local slot is protected (a gate as wide as the
/// shard, once all its qubits are resident).
fn pick_victim_belady(
    layout: &QubitLayout,
    uses: &[Vec<usize>],
    i: usize,
    protect: &[usize],
) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (next_use, slot)
    for s in 0..layout.local_qubits() {
        let q = layout.logical_at(s);
        if protect.contains(&q) {
            continue;
        }
        let nu = next_use(uses, q, i);
        let candidate = (nu, s);
        if best.is_none_or(|b| candidate >= b) {
            best = Some(candidate);
        }
    }
    best.map(|b| b.1)
}

/// The lookahead scheduler: batch every swap an op needs (plus
/// soon-needed prefetches) into one epoch, evicting by farthest next use.
fn lookahead(n: usize, ops: &[Option<&[usize]>], m: usize) -> SwapSchedule {
    let d = n - m; // global id bits; an epoch holds at most d pairs
    let uses = unitary_uses(n, ops);
    let mut layout = QubitLayout::new(n, m);
    let mut epochs = Vec::with_capacity(ops.len());
    let mut swaps = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let mut here = Vec::new();
        if let Some(qubits) = *op {
            let mut pairs = Vec::new();
            // Demand fetches: everything this gate touches.
            for &q in qubits {
                if layout.is_local(q) {
                    continue;
                }
                let global_slot = layout.slot_of(q);
                // A gate with a global qubit protects at most m−1 local
                // slots, so a demand victim always exists.
                let local_slot = pick_victim_belady(&layout, &uses, i, qubits)
                    .expect("a global gate qubit leaves an unprotected local slot");
                layout.swap_slots(local_slot, global_slot);
                pairs.push((local_slot, global_slot));
            }
            // Prefetch: fill remaining id bits of an already-paid epoch
            // with globals needed soon, but only over victims needed
            // strictly later than the prefetched qubit — never trading a
            // sooner need for a later one.
            if !pairs.is_empty() {
                let horizon = ops.len().min(i + 1 + LOOKAHEAD_OPS);
                for future in &ops[i + 1..horizon] {
                    if pairs.len() >= d {
                        break;
                    }
                    let Some(future) = *future else { continue };
                    for &g in future {
                        if pairs.len() >= d || layout.is_local(g) {
                            continue;
                        }
                        let g_next = next_use(&uses, g, i);
                        let Some(victim) = pick_victim_belady(&layout, &uses, i, qubits) else {
                            break;
                        };
                        if next_use(&uses, layout.logical_at(victim), i) > g_next {
                            let global_slot = layout.slot_of(g);
                            layout.swap_slots(victim, global_slot);
                            pairs.push((victim, global_slot));
                        }
                    }
                }
                swaps += pairs.len();
                here.push(Epoch { pairs });
            }
        }
        epochs.push(here);
    }
    SwapSchedule { epochs, swaps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::{generate_rqc, library, RqcOptions};
    use qsim_fusion::{fuse, FusedOp};

    /// Replay a schedule and assert every unitary's qubits are local when
    /// its op executes; returns the total swap count replayed.
    fn replay_and_check(fused: &FusedCircuit, m: usize, schedule: &SwapSchedule) -> usize {
        assert_eq!(schedule.epochs.len(), fused.ops.len());
        let mut layout = QubitLayout::new(fused.num_qubits, m);
        let mut swaps = 0;
        for (i, op) in fused.op_shapes().into_iter().enumerate() {
            for epoch in &schedule.epochs[i] {
                let mut globals: Vec<usize> = Vec::new();
                let mut locals: Vec<usize> = Vec::new();
                for &(local_slot, global_slot) in &epoch.pairs {
                    assert!(local_slot < m && global_slot >= m, "pair orientation");
                    globals.push(global_slot);
                    locals.push(local_slot);
                    layout.swap_slots(local_slot, global_slot);
                    swaps += 1;
                }
                globals.sort_unstable();
                globals.dedup();
                locals.sort_unstable();
                locals.dedup();
                assert_eq!(globals.len(), epoch.pairs.len(), "global slots distinct");
                assert_eq!(locals.len(), epoch.pairs.len(), "victim slots distinct");
            }
            if let Some(qubits) = op {
                for &q in qubits {
                    assert!(layout.is_local(q), "op {i}: qubit {q} not local");
                }
            }
        }
        swaps
    }

    fn rqc(n: usize, depth: usize, seed: u64, f: usize) -> FusedCircuit {
        fuse(&generate_rqc(&RqcOptions::for_qubits(n, depth, seed)), f)
    }

    #[test]
    fn eager_schedule_is_valid_and_single_pair() {
        let fused = rqc(10, 12, 7, 3);
        for d in [1usize, 2, 3] {
            let m = 10 - d;
            let s = SwapSchedule::plan(&fused, m, SwapPolicy::Eager).expect("plan");
            assert_eq!(replay_and_check(&fused, m, &s), s.swaps);
            assert!(s.epochs.iter().flatten().all(|e| e.pairs.len() == 1));
        }
    }

    #[test]
    fn lookahead_schedule_is_valid() {
        for seed in 0..4 {
            let fused = rqc(10, 12, seed, 3);
            for d in [1usize, 2, 3] {
                let m = 10 - d;
                let s = SwapSchedule::plan(&fused, m, SwapPolicy::Lookahead).expect("plan");
                assert_eq!(replay_and_check(&fused, m, &s), s.swaps);
            }
        }
    }

    #[test]
    fn lookahead_never_exceeds_eager_swaps_or_bytes() {
        for seed in 0..6 {
            let fused = rqc(11, 16, seed, 3);
            for d in [1usize, 2, 3, 4] {
                let m = 11 - d;
                let eager = SwapSchedule::plan(&fused, m, SwapPolicy::Eager).expect("eager");
                let ahead = SwapSchedule::plan(&fused, m, SwapPolicy::Lookahead).expect("ahead");
                assert!(ahead.swaps <= eager.swaps, "seed {seed} d={d}");
                let shard_len = 1usize << m;
                assert!(
                    ahead.bytes_per_device(shard_len, 8) <= eager.bytes_per_device(shard_len, 8),
                    "seed {seed} d={d}"
                );
            }
        }
    }

    #[test]
    fn lookahead_batches_multi_qubit_demand_into_one_epoch() {
        // One 2-qubit gate on the two global qubits of a 6q/4-device
        // layout: eager pays two half-shard exchanges, lookahead one
        // 2-bit epoch.
        let mut c = qsim_circuit::Circuit::new(6);
        use qsim_circuit::gates::GateKind;
        c.push(GateKind::Cz, &[4, 5]);
        let fused = fuse(&c, 2);
        let m = 4;
        let eager = SwapSchedule::plan(&fused, m, SwapPolicy::Eager).expect("eager");
        let ahead = SwapSchedule::plan(&fused, m, SwapPolicy::Lookahead).expect("ahead");
        assert_eq!(eager.num_epochs(), 2);
        assert_eq!(ahead.num_epochs(), 1);
        assert_eq!(ahead.swaps, 2);
        let shard_len = 1usize << m;
        // 2 bits batched: (1 − 1/4) of the shard vs 2 × (1/2).
        assert_eq!(ahead.bytes_per_device(shard_len, 8), (shard_len * 8) as u64 * 3 / 4);
        assert_eq!(eager.bytes_per_device(shard_len, 8), (shard_len * 8) as u64);
    }

    #[test]
    fn measurements_need_no_epochs() {
        let mut c = qsim_circuit::Circuit::new(6);
        use qsim_circuit::gates::GateKind;
        c.push(GateKind::H, &[5]);
        c.push(GateKind::Measurement, &[4, 5]);
        let fused = fuse(&c, 2);
        let s = SwapSchedule::plan(&fused, 4, SwapPolicy::Lookahead).expect("plan");
        // The H on the global qubit 5 swaps; the measurement does not.
        let meas_idx = fused
            .ops
            .iter()
            .position(|op| matches!(op, FusedOp::Measurement { .. }))
            .expect("measurement present");
        assert!(s.epochs[meas_idx].is_empty());
        assert!(s.swaps >= 1);
    }

    #[test]
    fn too_wide_gate_is_rejected() {
        let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(6, 4, 1)), 4);
        assert!(matches!(
            SwapSchedule::plan(&fused, 2, SwapPolicy::Lookahead),
            Err(ScheduleError::GateTooWide { .. })
        ));
    }

    #[test]
    fn epoch_cost_model_matches_pairwise_at_k1() {
        let topo = Topology::Uniform(LinkSpec::infinity_fabric_in_package());
        let e = Epoch { pairs: vec![(0, 4)] };
        let shard_len = 1usize << 4;
        assert_eq!(e.bytes_per_device(shard_len, 8), (shard_len / 2 * 8) as u64);
        let expected =
            LinkSpec::infinity_fabric_in_package().exchange_seconds((shard_len / 2 * 8) as u64);
        assert!((e.seconds(&topo, 4, shard_len, 8) - expected).abs() < 1e-15);
    }

    #[test]
    fn two_level_epoch_takes_the_slow_link() {
        let topo = Topology::frontier_node();
        let m = 4;
        let in_package = Epoch { pairs: vec![(0, m)] };
        let crossing = Epoch { pairs: vec![(0, m), (1, m + 1)] };
        let slow = crossing.link(&topo, m);
        assert_eq!(slow.bw_gib_s, LinkSpec::infinity_fabric_node().bw_gib_s);
        assert_eq!(
            in_package.link(&topo, m).bw_gib_s,
            LinkSpec::infinity_fabric_in_package().bw_gib_s
        );
    }

    #[test]
    fn ghz_long_range_reuse_profits_from_lookahead() {
        // GHZ touches qubit q and q+1 consecutively: once a global qubit
        // is fetched it is reused by the next gate, so lookahead's Bélády
        // eviction should not exceed (and typically matches) eager here,
        // while deep RQCs show real byte savings.
        let fused = fuse(&library::ghz(10), 2);
        let eager = SwapSchedule::plan(&fused, 7, SwapPolicy::Eager).expect("eager");
        let ahead = SwapSchedule::plan(&fused, 7, SwapPolicy::Lookahead).expect("ahead");
        assert!(ahead.swaps <= eager.swaps);
        assert_eq!(replay_and_check(&fused, 7, &ahead), ahead.swaps);
    }
}
