//! Launch pricing: what one fused-gate pass costs on a backend.
//!
//! A [`FusionCostModel`] prices fused-gate passes over the state, in
//! modeled seconds and bytes, so the planner in [`crate::planner`] can
//! compare a candidate merge against leaving a gate in its own pass. The
//! backends charge their simulated timeline for the same passes, and both
//! sides read one table:
//!
//! * A [`LaunchPolicy`] is how a backend flavor launches gate kernels —
//!   block sizes, the per-low-qubit surcharges, whether matrices are
//!   uploaded, the host SIMD lane boundary and the cache-blocked sweep the
//!   plan runs under. Only `qsim-backends`' `Flavor::launch_policy` fills
//!   one in.
//! * [`LaunchPolicy::gate_profile`] is the one place the work of a pass is
//!   computed: the `2^k × 2^k` matrix-vector arithmetic, qsim's High/Low
//!   kernel split at qubit 5 ([`qsim_core::kernels::classify_gate`]) with
//!   its rearrangement surcharge, the host's in-register permutes below
//!   the lane boundary, and the share of the state traffic a gate pays
//!   inside a cache-blocked run ([`qsim_core::sweep`]). The backends build
//!   every gate launch from this profile; [`LaunchCostModel`] prices a
//!   plan by running it through [`gpu_model::perf::kernel_time`] — the
//!   function the modeled runtime charges launches with.
//!
//! A GPU flavor is the same code with `lane_qubits = 0` (no host permutes)
//! and a disabled sweep (every gate opens its own pass at full traffic),
//! so a HIP-like [`DeviceSpec`] — 64-lane wavefronts half-filled by
//! 32-thread `ApplyGateL_Kernel` blocks and a large low-qubit traffic
//! overhead — penalizes wide fused gates exactly the way the paper's
//! Figure 9 shows, while an A100-like spec does not.

use gpu_model::perf::{kernel_time, memcpy_time, LaunchProfile};
use gpu_model::specs::DeviceSpec;
use qsim_core::sweep::{is_block_local, PassTracker, SweepConfig};
use qsim_core::types::Precision;
use qsim_core::LOW_QUBIT_THRESHOLD;

/// Prices fused-gate passes for one backend.
///
/// A model reads nothing of a plan but its op shapes — per op, the sorted
/// qubits of a unitary or `None` for a measurement barrier
/// ([`FusedCircuit::op_shapes`](crate::FusedCircuit::op_shapes)) — so the
/// planner prices candidate layouts before any matrix exists.
///
/// Implementations must be consistent under growth: the planner accounts
/// a merge as `price(union) − price(existing)` in seconds, so the total cost
/// of a plan telescopes to [`FusionCostModel::plan_traffic`]'s default sum
/// regardless of the merge order that produced it.
pub trait FusionCostModel: Send + Sync {
    /// Modeled main-memory traffic and seconds of one fused-gate pass on
    /// the sorted `qubits` of an `num_qubits`-qubit state, priced without
    /// knowing its neighbours. Includes per-pass fixed overheads (launch
    /// latency, matrix upload) so fewer, denser passes are rewarded. Must
    /// be a pure function of `(num_qubits, qubits)` for the life of the
    /// model: the planner asks once per distinct set and reuses the answer.
    fn gate_price(&self, num_qubits: usize, qubits: &[usize]) -> TrafficEstimate;

    /// Modeled traffic and duration for a whole plan, given as its op
    /// shapes: by default the sums over its unitary passes. This is the
    /// model's one whole-plan walk; a model whose passes depend on their
    /// neighbours overrides it. The pair's ratio is the plan's sustained
    /// bytes/s demand, which is what the serve layer's bandwidth-aware
    /// admission ledger charges per running job (qHiPSTER-style
    /// bandwidth-centric accounting).
    fn plan_traffic(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> TrafficEstimate {
        let mut est = TrafficEstimate::default();
        for qubits in ops.iter().flatten() {
            est += self.gate_price(num_qubits, qubits);
        }
        est
    }

    /// Modeled seconds for a whole plan: [`Self::plan_traffic`]'s.
    fn plan_cost(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> f64 {
        self.plan_traffic(num_qubits, ops).seconds
    }
}

/// Modeled memory traffic of a fused gate or plan: total bytes moved and
/// the modeled seconds they are spread over. See
/// [`FusionCostModel::plan_traffic`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficEstimate {
    /// Modeled bytes moved through main memory.
    pub bytes: f64,
    /// Modeled execution seconds.
    pub seconds: f64,
}

impl TrafficEstimate {
    /// Sustained memory-bandwidth demand while the plan executes, bytes/s
    /// (0 for an empty plan).
    pub fn bytes_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds
        } else {
            0.0
        }
    }
}

impl std::ops::AddAssign for TrafficEstimate {
    fn add_assign(&mut self, pass: TrafficEstimate) {
        self.bytes += pass.bytes;
        self.seconds += pass.seconds;
    }
}

/// Share of the full-state traffic charged to a sweep-block-local gate
/// when the surrounding run structure is unknown (the planner's
/// context-free [`FusionCostModel::gate_price`]): roughly the mean of a
/// run-opening pass (full traffic) and a couple of joining gates
/// ([`SWEPT_JOIN_TRAFFIC_SHARE`] each).
const SWEPT_TRAFFIC_SHARE: f64 = 0.5;

/// Share of the full-state traffic charged to a gate that **joins** an
/// open cache-blocked run: the state is already streaming through cache
/// for the run, so only residual traffic remains (matrix loads, spilled
/// tiles).
const SWEPT_JOIN_TRAFFIC_SHARE: f64 = 0.25;

/// In-register shuffle arithmetic per amplitude per lane-low target
/// qubit: a gate touching qubits below the ISA's lane boundary runs the
/// lane-Low permute kernels, whose `vpermps`/`vpermd` rearrangement is
/// real arithmetic on top of the matvec.
const LANE_SHUFFLE_FLOPS: f64 = 6.0;

/// How a backend flavor launches fused-gate kernels — everything about a
/// launch's modeled work and geometry that is not the device itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchPolicy {
    /// Threads per block for `ApplyGateH_Kernel`-class launches.
    pub tpb_high: u32,
    /// Threads per block for `ApplyGateL_Kernel`-class launches — qsim's
    /// fixed 32, the half-wavefront of the paper on AMD.
    pub tpb_low: u32,
    /// Fractional extra traffic per target qubit below
    /// [`LOW_QUBIT_THRESHOLD`], scaled by `sqrt(2^k / 16)`: the staging
    /// tile grows with the fused width `k`, normalized to the paper's
    /// optimal 4-qubit fused gates (HIP ≫ CUDA).
    pub low_qubit_byte_overhead: f64,
    /// Rearrangement arithmetic per amplitude per such low target (the
    /// in-register/LDS index arithmetic of the paper's §2.2(3)).
    pub shuffle_flops_per_low_qubit: f64,
    /// Whether each pass ships its fused matrix over the host↔device
    /// link first ([`gpu_model::perf::memcpy_time`]).
    pub uploads_matrices: bool,
    /// Lane-qubit boundary of the host ISA at the working precision
    /// ([`qsim_core::simd::Isa::lane_qubits`]): targets below it resolve
    /// with in-register permutes. 0 where kernels do not run on host SIMD
    /// lanes.
    pub lane_qubits: usize,
    /// The cache-blocked sweep the plan executes under; disabled where
    /// every gate is a pass of its own.
    pub sweep: SweepConfig,
}

impl LaunchPolicy {
    /// Work and grid of one fused-gate pass on the sorted `qubits` of an
    /// `n`-qubit state, moving `traffic_share` of the pass's bytes (see
    /// [`Self::pass_share`]).
    ///
    /// Every amplitude is read and written once, and each group of `2^k`
    /// amplitudes does a `2^k × 2^k` complex matrix-vector product (8 flops
    /// per multiply-add). A gate with targets below
    /// [`LOW_QUBIT_THRESHOLD`] runs the Low kernel and pays the policy's
    /// two per-low-qubit surcharges; targets below the host lane boundary
    /// pay the in-register permutes on top.
    pub fn gate_profile(
        &self,
        n: usize,
        qubits: &[usize],
        precision: Precision,
        traffic_share: f64,
    ) -> LaunchProfile {
        let len = 1u64 << n;
        let amps = len as f64;
        let dim = (1u64 << qubits.len()) as f64;
        let below = |boundary: usize| qubits.iter().filter(|&&q| q < boundary).count() as f64;

        let mut bytes = 2.0 * amps * precision.amplitude_bytes() as f64;
        let mut flops = (amps / dim) * dim * dim * 8.0;
        // Any low target makes it a Low-class launch
        // (`qsim_core::kernels::classify_gate`).
        let low = below(LOW_QUBIT_THRESHOLD);
        let threads_per_block = if low == 0.0 {
            self.tpb_high
        } else {
            flops += amps * low * self.shuffle_flops_per_low_qubit;
            bytes *= 1.0 + low * self.low_qubit_byte_overhead * (dim / 16.0).sqrt();
            self.tpb_low
        };
        flops += amps * below(self.lane_qubits) * LANE_SHUFFLE_FLOPS;
        bytes *= traffic_share;
        LaunchProfile::for_gate_grid(
            len,
            threads_per_block,
            bytes,
            flops,
            precision == Precision::Double,
        )
    }

    /// The traffic share of a gate by whether it opens a pass over the
    /// state ([`PassTracker::on_gate`]) or joins the open cache-blocked
    /// run.
    pub fn pass_share(opens_pass: bool) -> f64 {
        if opens_pass {
            1.0
        } else {
            SWEPT_JOIN_TRAFFIC_SHARE
        }
    }
}

/// The fusion cost model of a backend that launches under `policy` on
/// `spec`: each pass costs what the modeled timeline will charge for it.
#[derive(Debug, Clone)]
pub struct LaunchCostModel {
    /// The modeled device.
    pub spec: DeviceSpec,
    /// How the backend launches gate kernels on it.
    pub policy: LaunchPolicy,
    /// Working precision of the state.
    pub precision: Precision,
}

impl LaunchCostModel {
    /// One pass at an explicit traffic share: the launch the backend
    /// charges, plus the matrix upload when the policy ships one.
    fn price(&self, num_qubits: usize, qubits: &[usize], traffic_share: f64) -> TrafficEstimate {
        let profile = self.policy.gate_profile(num_qubits, qubits, self.precision, traffic_share);
        let mut est =
            TrafficEstimate { bytes: profile.bytes, seconds: kernel_time(&self.spec, &profile) };
        if self.policy.uploads_matrices {
            let dim = 1u64 << qubits.len();
            let matrix_bytes = dim * dim * self.precision.amplitude_bytes() as u64;
            est.bytes += matrix_bytes as f64;
            est.seconds += memcpy_time(&self.spec, matrix_bytes);
        }
        est
    }
}

impl FusionCostModel for LaunchCostModel {
    /// Without run context, a block-local gate is priced at the expected
    /// share of a blocked run's traffic.
    fn gate_price(&self, num_qubits: usize, qubits: &[usize]) -> TrafficEstimate {
        let sweep = &self.policy.sweep;
        let swept = sweep.enabled && is_block_local(qubits, sweep.block_qubits(num_qubits));
        self.price(num_qubits, qubits, if swept { SWEPT_TRAFFIC_SHARE } else { 1.0 })
    }

    /// Run-aware plan pricing: walk the plan with the same
    /// [`PassTracker`] the backend's timeline charging uses, so a gate
    /// that joins an open cache-blocked run pays only the join share of
    /// the full-state traffic, exactly as it will be charged at launch
    /// time. Under a disabled sweep every gate opens a pass and this is
    /// the plain per-gate sum.
    fn plan_traffic(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> TrafficEstimate {
        let mut tracker = PassTracker::new(&self.policy.sweep, num_qubits);
        let mut est = TrafficEstimate::default();
        for op in ops {
            match op {
                Some(qubits) => {
                    let share = LaunchPolicy::pass_share(tracker.on_gate(qubits));
                    est += self.price(num_qubits, qubits, share);
                }
                None => tracker.on_barrier(),
            }
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The GPU flavors' launch geometry with a given low-qubit overhead
    /// (see qsim-backends::Flavor, the only non-test builder of a policy).
    fn gpu_policy(low_qubit_byte_overhead: f64) -> LaunchPolicy {
        LaunchPolicy {
            tpb_high: 64,
            tpb_low: 32,
            low_qubit_byte_overhead,
            shuffle_flops_per_low_qubit: 4.0,
            uploads_matrices: true,
            lane_qubits: 0,
            sweep: SweepConfig::disabled(),
        }
    }

    fn cpu_model(lane_qubits: usize, sweep: SweepConfig) -> LaunchCostModel {
        LaunchCostModel {
            spec: DeviceSpec::epyc_trento(),
            policy: LaunchPolicy {
                tpb_high: 128,
                tpb_low: 128,
                low_qubit_byte_overhead: 0.06,
                shuffle_flops_per_low_qubit: 6.0,
                uploads_matrices: false,
                lane_qubits,
                sweep,
            },
            precision: Precision::Single,
        }
    }

    fn seconds(model: &LaunchCostModel, n: usize, qubits: &[usize]) -> f64 {
        model.gate_price(n, qubits).seconds
    }

    fn hip_model() -> LaunchCostModel {
        // MI250X GCD + the LDS-round-trip low-qubit overhead.
        LaunchCostModel {
            spec: DeviceSpec::mi250x_gcd(),
            policy: gpu_policy(2.0),
            precision: Precision::Single,
        }
    }

    fn a100_model() -> LaunchCostModel {
        LaunchCostModel {
            spec: DeviceSpec::a100(),
            policy: gpu_policy(0.05),
            precision: Precision::Single,
        }
    }

    #[test]
    fn gate_work_accounting() {
        // 1-qubit High gate on a 20-qubit single-precision state: touch all
        // 2^20 amplitudes, read+write 8 bytes each; per group (2 amps) a
        // 2x2 complex matvec = 4 muladds = 32 flops.
        let p = gpu_policy(2.0).gate_profile(20, &[7], Precision::Single, 1.0);
        assert_eq!(p.bytes, 2.0 * 1048576.0 * 8.0);
        assert_eq!(p.flops, 524288.0 * 32.0);
        assert_eq!((p.blocks, p.threads_per_block), ((1 << 19) / 64, 64));
        assert!(!p.double_precision);
        // Double precision doubles the bytes and sets the flag.
        let d = gpu_policy(2.0).gate_profile(20, &[7], Precision::Double, 1.0);
        assert_eq!(d.bytes, 2.0 * p.bytes);
        assert!(d.double_precision);
    }

    #[test]
    fn low_targets_pay_both_surcharges_per_low_qubit() {
        // [0, 3, 5, 8] has two targets below qubit 5: a 4-qubit gate has
        // tile scale 1, so bytes grow by 2 × overhead and flops by 2 × 4
        // per amplitude, in a 32-thread block.
        let high = gpu_policy(2.0).gate_profile(20, &[5, 6, 7, 8], Precision::Single, 1.0);
        let low = gpu_policy(2.0).gate_profile(20, &[0, 3, 5, 8], Precision::Single, 1.0);
        assert_eq!(low.bytes, high.bytes * (1.0 + 2.0 * 2.0));
        assert_eq!(low.flops, high.flops + 1048576.0 * 2.0 * 4.0);
        assert_eq!((high.threads_per_block, low.threads_per_block), (64, 32));
        // With the overhead ablated away only the flops differ.
        let ablated = gpu_policy(0.0).gate_profile(20, &[0, 3, 5, 8], Precision::Single, 1.0);
        assert_eq!(ablated.bytes, high.bytes);
        // A joining gate moves a quarter of the bytes and all the flops.
        let joined = gpu_policy(2.0).gate_profile(
            20,
            &[0, 3, 5, 8],
            Precision::Single,
            LaunchPolicy::pass_share(false),
        );
        assert_eq!(joined.bytes, low.bytes * 0.25);
        assert_eq!(joined.flops, low.flops);
        assert_eq!(LaunchPolicy::pass_share(true), 1.0);
    }

    #[test]
    fn wider_low_gates_cost_hip_disproportionately() {
        // Widening a low-qubit fused gate from 2 to 5 qubits should grow
        // the HIP cost far faster than the A100 cost — the Figure 9
        // asymmetry the planner exploits.
        let hip = hip_model();
        let a100 = a100_model();
        let hip_ratio = seconds(&hip, 26, &[0, 1, 2, 3, 4]) / seconds(&hip, 26, &[0, 1]);
        let a100_ratio = seconds(&a100, 26, &[0, 1, 2, 3, 4]) / seconds(&a100, 26, &[0, 1]);
        assert!(
            hip_ratio > 2.0 * a100_ratio,
            "hip ratio {hip_ratio} should dwarf a100 ratio {a100_ratio}"
        );
    }

    #[test]
    fn high_gates_cost_the_same_class_on_both_devices() {
        // A gate with no low targets pays no rearrangement overhead, so
        // widening it is similarly cheap on both devices.
        let hip = hip_model();
        let a100 = a100_model();
        let hr = seconds(&hip, 26, &[10, 14, 20, 23]) / seconds(&hip, 26, &[10, 14]);
        let ar = seconds(&a100, 26, &[10, 14, 20, 23]) / seconds(&a100, 26, &[10, 14]);
        assert!((hr / ar - 1.0).abs() < 0.25, "hip {hr} vs a100 {ar}");
    }

    #[test]
    fn gpu_cost_includes_upload_and_launch_floor() {
        let mut m = a100_model();
        let with_upload = m.gate_price(20, &[8, 12]);
        m.policy.uploads_matrices = false;
        let without = m.gate_price(20, &[8, 12]);
        assert!(with_upload.seconds > without.seconds);
        assert!(without.seconds > m.spec.launch_latency_us * 1e-6);
        // The upload is traffic too.
        assert!(with_upload.bytes > without.bytes);
    }

    #[test]
    fn cpu_model_discounts_block_local_gates() {
        let swept = cpu_model(2, SweepConfig::default());
        let unswept = cpu_model(2, SweepConfig::disabled());
        // Qubits below the block boundary (16) are cheaper under the sweep…
        assert!(seconds(&swept, 24, &[3, 7]) < seconds(&unswept, 24, &[3, 7]));
        // …while a gate crossing the block boundary pays the full pass.
        assert_eq!(seconds(&swept, 24, &[3, 20]), seconds(&unswept, 24, &[3, 20]));
    }

    #[test]
    fn cpu_model_prices_lane_shuffle_arithmetic() {
        let m = cpu_model(3, SweepConfig::disabled());
        // Same width: a gate with lane-low targets runs the lane-Low
        // permute kernels and pays the in-register rearrangement flops
        // (plus the low-qubit staging traffic); a gate entirely above the
        // lane boundary streams strided tiles with neither surcharge.
        let low = seconds(&m, 24, &[0, 1, 2, 16, 17, 18]);
        let high = seconds(&m, 24, &[10, 12, 14, 16, 18, 20]);
        assert!(low > high, "lane-low {low} should exceed strided {high}");
        // More lane-low targets at equal width cost more.
        let fewer = seconds(&m, 24, &[0, 8, 9, 16, 17, 18]);
        assert!(low > fewer, "3 lane-low targets {low} vs 1 {fewer}");
    }

    #[test]
    fn swept_plan_traffic_scales_with_state_and_undercuts_the_gate_sum() {
        use qsim_circuit::library;
        let fused24 = crate::fuse(&library::ghz(24), 2);
        let fused20 = crate::fuse(&library::ghz(20), 2);
        let m = cpu_model(2, SweepConfig::default());
        let t24 = m.plan_traffic(24, &fused24.op_shapes());
        let t20 = m.plan_traffic(20, &fused20.op_shapes());
        // bytes/s is a real rate, and a 16×-larger state moves far more
        // bytes per pass.
        assert_eq!(t24.seconds.to_bits(), m.plan_cost(24, &fused24.op_shapes()).to_bits());
        assert!(t24.bytes_per_second() > 0.0);
        assert!(t24.bytes > 8.0 * t20.bytes, "24q {} vs 20q {}", t24.bytes, t20.bytes);
        // Joining gates move a quarter of the state where the same plan
        // without the sweep moves all of it.
        let unswept = cpu_model(2, SweepConfig::disabled()).plan_traffic(24, &fused24.op_shapes());
        assert!(t24.bytes < unswept.bytes && t24.seconds < unswept.seconds);
    }

    #[test]
    fn gpu_policy_plan_traffic_is_the_plain_per_gate_sum() {
        // Disabled sweep, no lane split: the tracker walk must be the sum
        // of context-free gate prices to the bit, barriers and all.
        let mut c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(12, 6, 3));
        let t = c.ops.iter().map(|op| op.time).max().expect("rqc has gates") + 1;
        c.add(t, qsim_circuit::gates::GateKind::Measurement, &[2, 9]);
        c.add(t + 1, qsim_circuit::gates::GateKind::H, &[4]);
        let fused = crate::fuse(&c, 4);
        for m in [hip_model(), a100_model()] {
            let plan = m.plan_traffic(fused.num_qubits, &fused.op_shapes());
            let (mut bytes, mut seconds) = (0.0f64, 0.0f64);
            for g in fused.unitaries() {
                let price = m.gate_price(fused.num_qubits, &g.qubits);
                bytes += price.bytes;
                seconds += price.seconds;
            }
            assert!(seconds > 0.0);
            assert_eq!(plan.seconds.to_bits(), seconds.to_bits());
            assert_eq!(plan.bytes.to_bits(), bytes.to_bits());
            assert_eq!(
                plan.seconds.to_bits(),
                m.plan_cost(fused.num_qubits, &fused.op_shapes()).to_bits()
            );
        }
    }
}
