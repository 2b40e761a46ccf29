//! The distributed fusion cost model.
//!
//! Wraps the single-device [`LaunchCostModel`] of one shard (priced over
//! the *shard* width `m = n − d`, under the launch policy the sharded walk
//! charges with) and adds the modeled interconnect cost of the slot swaps
//! the [`crate::schedule`] planner would emit for the plan. Two
//! consequences the fusion planner can now see:
//!
//! * A wide fused gate that drags global qubits local pays real exchange
//!   seconds, so `--fusion auto` stops merging once the swap traffic a
//!   merge induces outweighs the pass it saves — the distributed config
//!   space of the qHiPSTER/cuQuantum papers.
//! * [`FusionCostModel::plan_traffic`] reports shard traffic plus the
//!   exchanged bytes across **all** devices, so the serve layer's
//!   bandwidth ledger charges a sharded job for the fabric it occupies.
//!
//! The per-gate [`FusionCostModel::gate_price`] is necessarily
//! context-free (the planner probes candidate merges one gate at a time),
//! so it prices a gate's globals as individual pairwise exchanges — the
//! eager upper bound. [`FusionCostModel::plan_traffic`] re-prices the
//! whole plan through the real scheduler, so batched epochs and
//! reuse-aware eviction show up exactly where plans are compared.

use qsim_fusion::{FusionCostModel, LaunchCostModel, TrafficEstimate};

use crate::interconnect::Topology;
use crate::schedule::{SwapPolicy, SwapSchedule};
use qsim_backends::QubitLayout;

/// Prices fused plans for [`crate::MultiGcdBackend`]: single-device cost
/// at shard width plus modeled swap-exchange time and traffic.
pub struct DistCostModel {
    shard: LaunchCostModel,
    devices: usize,
    /// Global id bits (`log2 devices`).
    d: usize,
    topology: Topology,
    policy: SwapPolicy,
}

impl DistCostModel {
    /// Model for `devices` devices joined by `topology`, each pricing its
    /// shard with `shard`, swapping under `policy`.
    pub fn new(
        shard: LaunchCostModel,
        devices: usize,
        topology: Topology,
        policy: SwapPolicy,
    ) -> Self {
        assert!(devices.is_power_of_two(), "device count must be a power of two, got {devices}");
        DistCostModel { shard, devices, d: devices.trailing_zeros() as usize, topology, policy }
    }

    fn amp_bytes(&self) -> usize {
        self.shard.precision.amplitude_bytes()
    }

    /// Local qubits per device for an `n`-qubit circuit, or `None` when
    /// the circuit is too narrow to shard over this many devices.
    fn local_qubits(&self, num_qubits: usize) -> Option<usize> {
        (num_qubits > self.d).then(|| num_qubits - self.d)
    }

    /// Context-free local-slot mapping for one gate: local qubits keep
    /// their identity slot, globals land on the highest otherwise-free
    /// local slots (mirroring the schedulers' high-slot victim bias).
    fn local_slots(&self, m: usize, qubits: &[usize]) -> Vec<usize> {
        let mut slots: Vec<usize> = Vec::with_capacity(qubits.len());
        let mut next_free = m;
        for &q in qubits {
            if q < m {
                slots.push(q);
            } else {
                next_free = (0..next_free)
                    .rev()
                    .find(|s| !qubits.contains(s) && !slots.contains(s))
                    .expect("gate width ≤ m leaves a free slot");
                slots.push(next_free);
            }
        }
        slots.sort_unstable();
        slots
    }
}

/// The price of a gate or plan these devices cannot execute: too narrow to
/// shard, or wider than a shard.
const UNSCHEDULABLE: TrafficEstimate =
    TrafficEstimate { bytes: f64::INFINITY, seconds: f64::INFINITY };

impl FusionCostModel for DistCostModel {
    fn gate_price(&self, num_qubits: usize, qubits: &[usize]) -> TrafficEstimate {
        let Some(m) = self.local_qubits(num_qubits) else {
            return UNSCHEDULABLE;
        };
        if qubits.len() > m {
            // Merging this wide can never execute.
            return UNSCHEDULABLE;
        }
        let mut price = self.shard.gate_price(m, &self.local_slots(m, qubits));
        // Eager upper bound: one pairwise half-shard exchange per global
        // qubit, over the worst link (the planner has no layout context,
        // and overestimating swaps biases toward fewer global touches —
        // the conservative direction).
        let half_shard = (1u64 << m) / 2 * self.amp_bytes() as u64;
        let globals = qubits.iter().filter(|&&q| q >= m).count() as f64;
        let worst = (0..self.d).map(|t| self.topology.link_for_bit(t)).reduce(|a, b| {
            if a.exchange_seconds(half_shard) >= b.exchange_seconds(half_shard) {
                a
            } else {
                b
            }
        });
        if let Some(link) = worst {
            price.seconds += globals * link.exchange_seconds(half_shard);
        }
        // Every device runs the pass and pushes its exchange share.
        price.bytes = self.devices as f64 * (price.bytes + globals * half_shard as f64);
        price
    }

    /// Whole-plan pricing through the real scheduler, computed once:
    /// exchange seconds and bytes from the schedule, plus each pass priced
    /// at the slots the replayed layout actually executes it on.
    fn plan_traffic(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> TrafficEstimate {
        let Some(m) = self.local_qubits(num_qubits) else {
            return UNSCHEDULABLE;
        };
        let Ok(schedule) = SwapSchedule::plan_shapes(num_qubits, ops, m, self.policy) else {
            return UNSCHEDULABLE;
        };
        let shard_len = 1usize << m;
        let amp_bytes = self.amp_bytes();
        let mut est = TrafficEstimate {
            bytes: schedule.bytes_per_device(shard_len, amp_bytes) as f64,
            // From +0.0: an empty float `sum` is -0.0.
            seconds: schedule
                .epochs
                .iter()
                .flatten()
                .fold(0.0, |s, e| s + e.seconds(&self.topology, m, shard_len, amp_bytes)),
        };
        let mut layout = QubitLayout::new(num_qubits, m);
        for (op, epochs) in ops.iter().zip(&schedule.epochs) {
            for epoch in epochs {
                for &(local_slot, global_slot) in &epoch.pairs {
                    layout.swap_slots(local_slot, global_slot);
                }
            }
            if let Some(qubits) = op {
                let mut slots: Vec<usize> = qubits.iter().map(|&q| layout.slot_of(q)).collect();
                slots.sort_unstable();
                est += self.shard.gate_price(m, &slots);
            }
        }
        est.bytes *= self.devices as f64;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiGcdBackend;
    use qsim_backends::Flavor;
    use qsim_circuit::{generate_rqc, library, RqcOptions};
    use qsim_core::types::Precision;
    use qsim_fusion::{fuse, FusionStrategy};

    /// The model a backend of `devices` HIP GCDs plans with.
    fn on(devices: usize, topology: Topology) -> Box<dyn FusionCostModel> {
        MultiGcdBackend::with_topology(Flavor::Hip, devices, topology).cost_model(Precision::Single)
    }

    fn model(devices: usize) -> Box<dyn FusionCostModel> {
        on(devices, Topology::Uniform(crate::interconnect::LinkSpec::infinity_fabric_in_package()))
    }

    #[test]
    fn global_gates_cost_more_than_local_ones() {
        // 10 qubits on 4 devices: m = 8. A gate on {0,1} is local; the
        // same-width gate on {8,9} needs two exchanges.
        let m = model(4);
        let local = m.gate_price(10, &[0, 1]).seconds;
        let global = m.gate_price(10, &[8, 9]).seconds;
        assert!(local.is_finite() && global.is_finite());
        assert!(global > local * 2.0, "exchange must dominate: {global} vs {local}");
    }

    #[test]
    fn unshardable_shapes_price_infinite() {
        let m = model(4);
        // Too narrow to shard over 4 devices.
        assert!(m.gate_price(2, &[0, 1]).seconds.is_infinite());
        // Gate wider than the shard.
        assert!(m.gate_price(5, &[0, 1, 2, 3]).seconds.is_infinite());
        let wide = fuse(&generate_rqc(&RqcOptions::for_qubits(6, 4, 1)), 4);
        assert!(on(16, Topology::frontier_node())
            .plan_cost(wide.num_qubits, &wide.op_shapes())
            .is_infinite());
    }

    #[test]
    fn plan_cost_beats_gate_price_sum_when_scheduling_helps() {
        // The context-free gate_price prices eager pairwise exchanges; the
        // real scheduler batches and reuses, so whole-plan pricing is
        // never above the per-gate upper bound.
        let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(11, 12, 5)), 3);
        let m = model(8);
        let gate_sum: f64 =
            fused.unitaries().map(|g| m.gate_price(fused.num_qubits, &g.qubits).seconds).sum();
        let plan = m.plan_cost(fused.num_qubits, &fused.op_shapes());
        assert!(plan.is_finite());
        let traffic = m.plan_traffic(fused.num_qubits, &fused.op_shapes());
        assert_eq!(plan.to_bits(), traffic.seconds.to_bits());
        assert!(plan <= gate_sum * (1.0 + 1e-9), "plan {plan} vs gate sum {gate_sum}");
    }

    /// An empty or measure-only plan predicts `+0.0` s, not the `-0.0` an
    /// empty float `sum` is.
    #[test]
    fn an_empty_plan_predicts_positive_zero_seconds() {
        use qsim_circuit::circuit::Circuit;
        use qsim_circuit::gates::GateKind;

        let mut measure_only = Circuit::new(4);
        measure_only.add(0, GateKind::Measurement, &[0, 3]);
        for circuit in [Circuit::new(4), measure_only] {
            for s in FusionStrategy::ALL {
                let plan = qsim_fusion::plan(&circuit, s, 2, model(2).as_ref());
                assert_eq!(plan.predicted_cost_seconds.to_bits(), 0.0f64.to_bits(), "{s}");
            }
        }
    }

    #[test]
    fn traffic_counts_every_device() {
        let fused = fuse(&library::qft(9), 3);
        let t1 = model(2).plan_traffic(fused.num_qubits, &fused.op_shapes());
        let t2 = model(4).plan_traffic(fused.num_qubits, &fused.op_shapes());
        assert!(t1.bytes.is_finite() && t2.bytes.is_finite());
        assert!(t1.bytes > 0.0);
        assert!(t1.seconds > 0.0 && t2.seconds > 0.0);
        assert!(t1.bytes_per_second() > 0.0);
    }

    #[test]
    fn auto_fusion_sees_the_distributed_space() {
        // Planning through the distributed model must stay executable:
        // auto never picks a fused width the shard cannot hold.
        let circuit = generate_rqc(&RqcOptions::for_qubits(8, 8, 3));
        // 16 devices, m = 4: widths above 4 are infinite.
        let m = on(16, Topology::frontier_node());
        let plan = qsim_fusion::plan(&circuit, FusionStrategy::Auto, 6, m.as_ref());
        assert!(plan.fused.unitaries().all(|g| g.qubits.len() <= 4));
        assert!(plan.predicted_cost_seconds.is_finite());
    }
    #[test]
    fn pricing_agreement_sharded() {
        // The planner's prediction is what the sharded walk charges one
        // device: gate kernels + exchanges (+ the matrix uploads the model
        // prices per pass). The `cpu` cell used to be priced for a sweep
        // the sharded walk does not run.
        use crate::schedule::DistOptions;
        use crate::EXCHANGE_KERNEL;
        use qsim_backends::PlanOptions;
        use qsim_circuit::gates::GateKind;

        let mut circuit = generate_rqc(&RqcOptions::for_qubits(16, 8, 7));
        let t = circuit.ops.iter().map(|op| op.time).max().expect("rqc has gates") + 1;
        circuit.add(t, GateKind::Measurement, &[2, 15]);
        circuit.add(t + 1, GateKind::H, &[15]);
        let cells = [(FusionStrategy::Greedy, 2), (FusionStrategy::Cost, 4)];
        for flavor in [Flavor::Hip, Flavor::CpuAvx] {
            let dist = MultiGcdBackend::new(flavor, 2)
                .with_options(DistOptions { overlap: false, ..DistOptions::default() });
            let spec = flavor.default_spec();
            for precision in [Precision::Single, Precision::Double] {
                for (strategy, max_fused_qubits) in cells {
                    let opts = PlanOptions { strategy, max_fused_qubits };
                    let plan = dist.plan_circuit(&circuit, &opts, precision);
                    let report = dist.estimate_plan(&plan, precision).expect("estimate");
                    let uploads: f64 = plan
                        .fused
                        .unitaries()
                        .map(|g| {
                            let bytes =
                                (precision.amplitude_bytes() as u64) << (2 * g.qubits.len());
                            gpu_model::perf::memcpy_time(&spec, bytes)
                        })
                        .sum();
                    let kernels_us = report.time_us_matching("ApplyGate");
                    let exchange_us = report.time_us_matching(EXCHANGE_KERNEL);
                    assert!(kernels_us > 0.0 && exchange_us > 0.0);
                    let charged = (kernels_us + exchange_us) * 1e-6 + uploads;
                    let predicted = plan.predicted_cost_seconds;
                    assert!(
                        (predicted / charged - 1.0).abs() < 1e-9,
                        "{} {precision:?} {strategy} -f {max_fused_qubits}: \
                         predicted {predicted} s, charged {charged} s",
                        flavor.label()
                    );
                }
            }
        }
    }
}
