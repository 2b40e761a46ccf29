//! Per-backend fusion cost models.
//!
//! A [`FusionCostModel`] prices one fused-gate pass over the state, in
//! modeled seconds, so the planner in [`crate::planner`] can compare a
//! candidate merge against leaving a gate in its own pass. The two
//! built-in models mirror how the backends charge the simulated timeline:
//!
//! * [`CpuCostModel`] prices from the **SIMD gate class**
//!   ([`qsim_core::kernels::classify_gate_at`]: lane vs strided path at
//!   the active ISA's lane-qubit boundary), the matrix width (the
//!   `2^k × 2^k` matrix-vector arithmetic), and **sweep-block locality**
//!   ([`qsim_core::sweep`]): gates whose targets fit a cache block join a
//!   blocked run and pay only a fraction of the full-state traffic.
//! * [`GpuCostModel`] reuses [`gpu_model::perf::kernel_time`] /
//!   [`gpu_model::perf::memcpy_time`] with qsim's High/Low kernel split
//!   ([`qsim_core::kernels::fused_gate_work`] plus the 32- vs 64-thread
//!   block geometry), so a HIP-like [`DeviceSpec`] — 64-lane wavefronts
//!   half-filled by 32-thread `ApplyGateL_Kernel` blocks and a large
//!   low-qubit traffic overhead — penalizes wide fused gates exactly the
//!   way the paper's Figure 9 shows, while an A100-like spec does not.
//!
//! Backends construct the matching model from their flavor knobs (see
//! `qsim-backends`); the models here take plain parameters so this crate
//! stays below the backend layer in the dependency graph.

use gpu_model::perf::{kernel_time, memcpy_time, LaunchProfile};
use gpu_model::specs::DeviceSpec;
use qsim_core::kernels::{classify_gate_at, fused_gate_work, KernelClass};
use qsim_core::sweep::{is_block_local, PassTracker, SweepConfig};
use qsim_core::types::Precision;

/// Prices fused-gate passes for one backend, in modeled seconds.
///
/// A model reads nothing of a plan but its op shapes — per op, the sorted
/// qubits of a unitary or `None` for a measurement barrier
/// ([`FusedCircuit::op_shapes`](crate::FusedCircuit::op_shapes)) — so the
/// planner prices candidate layouts before any matrix exists.
///
/// Implementations must be consistent under growth: the planner accounts
/// a merge as `gate_cost(union) − gate_cost(existing)`, so the total cost
/// of a plan telescopes to [`FusionCostModel::plan_traffic`]'s default sum
/// regardless of the merge order that produced it.
pub trait FusionCostModel: Send + Sync {
    /// Stable lowercase model name, for reports.
    fn name(&self) -> &'static str;

    /// Modeled seconds for one fused-gate pass on the sorted `qubits` of
    /// an `num_qubits`-qubit state, including per-pass fixed overheads
    /// (launch latency, matrix upload) so fewer, denser passes are
    /// rewarded.
    fn gate_cost(&self, num_qubits: usize, qubits: &[usize]) -> f64;

    /// Modeled main-memory traffic of one fused-gate pass, bytes. The
    /// default is a conservative full-state read + write at double
    /// precision; the built-in models override it with the same calibrated
    /// work accounting their `gate_cost` prices.
    fn gate_traffic(&self, num_qubits: usize, qubits: &[usize]) -> f64 {
        let _ = qubits;
        2.0 * 16.0 * (1u64 << num_qubits) as f64
    }

    /// Modeled traffic and duration for a whole plan, given as its op
    /// shapes: by default the sums over its unitary passes. This is the
    /// model's one whole-plan walk; a model whose passes depend on their
    /// neighbours overrides it. The pair's ratio is the plan's sustained
    /// bytes/s demand, which is what the serve layer's bandwidth-aware
    /// admission ledger charges per running job (qHiPSTER-style
    /// bandwidth-centric accounting).
    fn plan_traffic(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> TrafficEstimate {
        let passes = || ops.iter().flatten();
        TrafficEstimate {
            bytes: passes().map(|qubits| self.gate_traffic(num_qubits, qubits)).sum(),
            seconds: passes().map(|qubits| self.gate_cost(num_qubits, qubits)).sum(),
        }
    }

    /// Modeled seconds for a whole plan: [`Self::plan_traffic`]'s.
    fn plan_cost(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> f64 {
        self.plan_traffic(num_qubits, ops).seconds
    }
}

/// Modeled memory traffic of a fused plan: total bytes moved and the
/// modeled seconds they are spread over. See
/// [`FusionCostModel::plan_traffic`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficEstimate {
    /// Modeled bytes moved through main memory over the whole plan.
    pub bytes: f64,
    /// Modeled execution seconds of the plan.
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

/// Share of the full-state traffic charged to a sweep-block-local gate
/// when the surrounding run structure is unknown (the planner's
/// context-free [`FusionCostModel::gate_cost`]): roughly the mean of a
/// run-opening pass (full traffic) and a couple of joining gates
/// ([`SWEPT_JOIN_TRAFFIC_SHARE`] each).
const SWEPT_TRAFFIC_SHARE: f64 = 0.5;

/// Share of the full-state traffic charged to a gate that **joins** an
/// open cache-blocked run: the state is already streaming through cache
/// for the run, so only residual traffic remains (matrix loads, spilled
/// tiles). The backend's launch charging uses the same constant so a plan
/// priced here and a plan charged on the modeled timeline agree.
pub const SWEPT_JOIN_TRAFFIC_SHARE: f64 = 0.25;

/// In-register shuffle arithmetic per amplitude per lane-low target
/// qubit: a gate touching qubits below the ISA's lane boundary runs the
/// lane-Low permute kernels, whose `vpermps`/`vpermd` rearrangement is
/// real arithmetic on top of the matvec. Shared with the backend's launch
/// charging for the same reason as [`SWEPT_JOIN_TRAFFIC_SHARE`].
pub const LANE_SHUFFLE_FLOPS: f64 = 6.0;

/// Cost model for the host backend: SIMD lane class + matrix width +
/// cache-blocked sweep locality.
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    /// The modeled socket (bandwidth, flop rate, per-pass latency).
    pub spec: DeviceSpec,
    /// Lane-qubit boundary of the active ISA at the working precision
    /// ([`qsim_core::simd::Isa::lane_qubits`]); targets below it resolve
    /// with in-register permutes.
    pub lane_qubits: usize,
    /// Sweep configuration the plan will execute under.
    pub sweep: SweepConfig,
    /// Fractional extra traffic per low target qubit (the CPU flavor's
    /// calibration: AVX permutes, caches absorb most of it).
    pub low_qubit_byte_overhead: f64,
    /// Rearrangement arithmetic per amplitude per low target qubit.
    pub shuffle_flops_per_low_qubit: f64,
    /// "Block" size of the OpenMP team, for the occupancy model.
    pub team_threads: u32,
    amp_bytes: usize,
    double_precision: bool,
}

impl CpuCostModel {
    /// Model for a host described by `spec`, with the SIMD lane boundary
    /// and sweep configuration the run will actually use. The traffic and
    /// shuffle calibration defaults to the CPU flavor's launch accounting
    /// (see `qsim-backends`).
    pub fn new(
        spec: DeviceSpec,
        lane_qubits: usize,
        sweep: SweepConfig,
        precision: Precision,
    ) -> CpuCostModel {
        CpuCostModel {
            spec,
            lane_qubits,
            sweep,
            low_qubit_byte_overhead: 0.06,
            shuffle_flops_per_low_qubit: 6.0,
            team_threads: 128,
            amp_bytes: precision.amplitude_bytes(),
            double_precision: precision == Precision::Double,
        }
    }

    /// One pass at an explicit traffic share — the same
    /// [`fused_gate_work`] + [`kernel_time`] pricing the CPU backend
    /// charges per launch, so planner and timeline agree by construction.
    /// The SIMD lane class decides the extra arithmetic: a lane-Low gate
    /// (any target inside the vector register) pays the in-register
    /// permute flops ([`LANE_SHUFFLE_FLOPS`]) per lane-low target on top
    /// of the matvec; a lane-High gate streams strided tiles with no
    /// rearrangement.
    fn pass_cost(&self, num_qubits: usize, qubits: &[usize], traffic_share: f64) -> f64 {
        let mut work = fused_gate_work(
            num_qubits,
            qubits,
            self.amp_bytes,
            self.low_qubit_byte_overhead,
            self.shuffle_flops_per_low_qubit,
        );
        if classify_gate_at(qubits, self.lane_qubits) == KernelClass::Low {
            let lane_low = qubits.iter().filter(|&&q| q < self.lane_qubits).count() as f64;
            work.flops += (1u64 << num_qubits) as f64 * lane_low * LANE_SHUFFLE_FLOPS;
        }
        work.bytes *= traffic_share;
        let profile = LaunchProfile::for_gate_grid(
            1u64 << num_qubits,
            self.team_threads,
            work.bytes,
            work.flops,
            self.double_precision,
        );
        kernel_time(&self.spec, &profile)
    }

    /// Modeled bytes of one pass at an explicit traffic share — the byte
    /// half of [`Self::pass_cost`]'s work accounting, kept separate so the
    /// admission ledger charges exactly the traffic the timeline prices.
    fn pass_traffic(&self, num_qubits: usize, qubits: &[usize], traffic_share: f64) -> f64 {
        fused_gate_work(
            num_qubits,
            qubits,
            self.amp_bytes,
            self.low_qubit_byte_overhead,
            self.shuffle_flops_per_low_qubit,
        )
        .bytes
            * traffic_share
    }

    fn block_qubits(&self, num_qubits: usize) -> usize {
        if self.sweep.enabled {
            self.sweep.block_qubits(num_qubits)
        } else {
            0
        }
    }
}

impl FusionCostModel for CpuCostModel {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn gate_cost(&self, num_qubits: usize, qubits: &[usize]) -> f64 {
        // Without run context, a block-local gate is priced at the
        // expected share of a blocked run's traffic.
        let traffic_share = if is_block_local(qubits, self.block_qubits(num_qubits)) {
            SWEPT_TRAFFIC_SHARE
        } else {
            1.0
        };
        self.pass_cost(num_qubits, qubits, traffic_share)
    }

    fn gate_traffic(&self, num_qubits: usize, qubits: &[usize]) -> f64 {
        let traffic_share = if is_block_local(qubits, self.block_qubits(num_qubits)) {
            SWEPT_TRAFFIC_SHARE
        } else {
            1.0
        };
        self.pass_traffic(num_qubits, qubits, traffic_share)
    }

    /// Run-aware plan pricing: walk the plan with the same
    /// [`PassTracker`] the backend's timeline charging uses, so a gate
    /// that joins an open cache-blocked run pays only
    /// [`SWEPT_JOIN_TRAFFIC_SHARE`] of the full-state traffic, exactly as
    /// it will be charged at launch time.
    fn plan_traffic(&self, num_qubits: usize, ops: &[Option<&[usize]>]) -> TrafficEstimate {
        let mut tracker = PassTracker::new(&self.sweep, num_qubits);
        let mut est = TrafficEstimate::default();
        for op in ops {
            match op {
                Some(qubits) => {
                    let share =
                        if tracker.on_gate(qubits) { 1.0 } else { SWEPT_JOIN_TRAFFIC_SHARE };
                    est.bytes += self.pass_traffic(num_qubits, qubits, share);
                    est.seconds += self.pass_cost(num_qubits, qubits, share);
                }
                None => tracker.on_barrier(),
            }
        }
        est
    }
}

/// Cost model for the modeled GPU backends: the High/Low kernel split
/// priced through the same roofline ([`gpu_model::perf::kernel_time`])
/// the backend charges at launch time.
#[derive(Debug, Clone)]
pub struct GpuCostModel {
    /// The modeled device.
    pub spec: DeviceSpec,
    /// Threads per block for `ApplyGateH_Kernel`-class launches.
    pub tpb_high: u32,
    /// Threads per block for `ApplyGateL_Kernel`-class launches — qsim's
    /// fixed 32, the half-wavefront of the paper on AMD.
    pub tpb_low: u32,
    /// Fractional extra traffic per low target qubit (the flavor's
    /// `low_qubit_byte_overhead`; HIP ≫ CUDA).
    pub low_qubit_byte_overhead: f64,
    /// Rearrangement arithmetic per amplitude per low qubit.
    pub shuffle_flops_per_low_qubit: f64,
    /// Whether each pass ships its fused matrix over the host↔device
    /// link first ([`gpu_model::perf::memcpy_time`]).
    pub uploads_matrices: bool,
    amp_bytes: usize,
    double_precision: bool,
}

impl GpuCostModel {
    /// Model with qsim's fixed block geometry (64/32 threads) and the
    /// given per-low-qubit traffic overhead; tune the public fields for
    /// other flavors.
    pub fn new(spec: DeviceSpec, low_qubit_byte_overhead: f64, precision: Precision) -> Self {
        GpuCostModel {
            spec,
            tpb_high: 64,
            tpb_low: 32,
            low_qubit_byte_overhead,
            shuffle_flops_per_low_qubit: 4.0,
            uploads_matrices: true,
            amp_bytes: precision.amplitude_bytes(),
            double_precision: precision == Precision::Double,
        }
    }
}

impl FusionCostModel for GpuCostModel {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn gate_cost(&self, num_qubits: usize, qubits: &[usize]) -> f64 {
        let len = 1u64 << num_qubits;
        let work = fused_gate_work(
            num_qubits,
            qubits,
            self.amp_bytes,
            self.low_qubit_byte_overhead,
            self.shuffle_flops_per_low_qubit,
        );
        let tpb = match qsim_core::kernels::classify_gate(qubits) {
            KernelClass::High => self.tpb_high,
            KernelClass::Low => self.tpb_low,
        };
        let profile =
            LaunchProfile::for_gate_grid(len, tpb, work.bytes, work.flops, self.double_precision);
        let mut t = kernel_time(&self.spec, &profile);
        if self.uploads_matrices {
            let dim = 1u64 << qubits.len();
            t += memcpy_time(&self.spec, dim * dim * self.amp_bytes as u64);
        }
        t
    }

    fn gate_traffic(&self, num_qubits: usize, qubits: &[usize]) -> f64 {
        let mut bytes = fused_gate_work(
            num_qubits,
            qubits,
            self.amp_bytes,
            self.low_qubit_byte_overhead,
            self.shuffle_flops_per_low_qubit,
        )
        .bytes;
        if self.uploads_matrices {
            let dim = 1u64 << qubits.len();
            bytes += (dim * dim * self.amp_bytes as u64) as f64;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hip_model() -> GpuCostModel {
        // The HIP flavor's calibration: MI250X GCD + the LDS-round-trip
        // low-qubit overhead (see qsim-backends::Flavor).
        GpuCostModel::new(DeviceSpec::mi250x_gcd(), 2.0, Precision::Single)
    }

    fn a100_model() -> GpuCostModel {
        GpuCostModel::new(DeviceSpec::a100(), 0.05, Precision::Single)
    }

    #[test]
    fn wider_low_gates_cost_hip_disproportionately() {
        // Widening a low-qubit fused gate from 2 to 5 qubits should grow
        // the HIP cost far faster than the A100 cost — the Figure 9
        // asymmetry the planner exploits.
        let hip = hip_model();
        let a100 = a100_model();
        let hip_ratio = hip.gate_cost(26, &[0, 1, 2, 3, 4]) / hip.gate_cost(26, &[0, 1]);
        let a100_ratio = a100.gate_cost(26, &[0, 1, 2, 3, 4]) / a100.gate_cost(26, &[0, 1]);
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
        let hr = hip.gate_cost(26, &[10, 14, 20, 23]) / hip.gate_cost(26, &[10, 14]);
        let ar = a100.gate_cost(26, &[10, 14, 20, 23]) / a100.gate_cost(26, &[10, 14]);
        assert!((hr / ar - 1.0).abs() < 0.25, "hip {hr} vs a100 {ar}");
    }

    #[test]
    fn gpu_cost_includes_upload_and_launch_floor() {
        let mut m = a100_model();
        let with_upload = m.gate_cost(20, &[8, 12]);
        m.uploads_matrices = false;
        let without = m.gate_cost(20, &[8, 12]);
        assert!(with_upload > without);
        assert!(without > m.spec.launch_latency_us * 1e-6);
    }

    #[test]
    fn cpu_model_discounts_block_local_gates() {
        let spec = DeviceSpec::epyc_trento();
        let swept = CpuCostModel::new(spec.clone(), 2, SweepConfig::default(), Precision::Single);
        let unswept = CpuCostModel::new(spec, 2, SweepConfig::disabled(), Precision::Single);
        // Qubits below the block boundary (16) are cheaper under the sweep…
        assert!(swept.gate_cost(24, &[3, 7]) < unswept.gate_cost(24, &[3, 7]));
        // …while a gate crossing the block boundary pays the full pass.
        assert_eq!(swept.gate_cost(24, &[3, 20]), unswept.gate_cost(24, &[3, 20]));
    }

    #[test]
    fn cpu_model_prices_lane_shuffle_arithmetic() {
        let spec = DeviceSpec::epyc_trento();
        let m = CpuCostModel::new(spec, 3, SweepConfig::disabled(), Precision::Single);
        // Same width: a gate with lane-low targets runs the lane-Low
        // permute kernels and pays the in-register rearrangement flops
        // (plus the low-qubit staging traffic); a gate entirely above the
        // lane boundary streams strided tiles with neither surcharge.
        let low = m.gate_cost(24, &[0, 1, 2, 16, 17, 18]);
        let high = m.gate_cost(24, &[10, 12, 14, 16, 18, 20]);
        assert!(low > high, "lane-low {low} should exceed strided {high}");
        // More lane-low targets at equal width cost more.
        let fewer = m.gate_cost(24, &[0, 8, 9, 16, 17, 18]);
        assert!(low > fewer, "3 lane-low targets {low} vs 1 {fewer}");
    }

    #[test]
    fn plan_traffic_tracks_plan_cost_and_scales_with_state() {
        use qsim_circuit::library;
        let fused24 = crate::fuse(&library::ghz(24), 2);
        let fused20 = crate::fuse(&library::ghz(20), 2);
        let m = CpuCostModel::new(
            DeviceSpec::epyc_trento(),
            2,
            SweepConfig::default(),
            Precision::Single,
        );
        let t24 = m.plan_traffic(24, &fused24.op_shapes());
        let t20 = m.plan_traffic(20, &fused20.op_shapes());
        // Seconds agree with the run-aware plan cost, bytes/s is a real rate,
        // and a 16×-larger state moves far more bytes per pass.
        assert_eq!(t24.seconds.to_bits(), m.plan_cost(24, &fused24.op_shapes()).to_bits());
        assert!(t24.bytes_per_second() > 0.0);
        assert!(t24.bytes > 8.0 * t20.bytes, "24q {} vs 20q {}", t24.bytes, t20.bytes);

        // The GPU model folds matrix-upload bytes into its traffic.
        let mut g = a100_model();
        let with_upload = g.gate_traffic(20, &[8, 12]);
        g.uploads_matrices = false;
        assert!(with_upload > g.gate_traffic(20, &[8, 12]));
    }

    #[test]
    fn plan_cost_sums_unitaries() {
        use qsim_circuit::library;
        let fused = crate::fuse(&library::bell(), 2);
        let m = a100_model();
        let total = m.plan_cost(fused.num_qubits, &fused.op_shapes());
        let by_hand: f64 =
            fused.unitaries().map(|g| m.gate_cost(fused.num_qubits, &g.qubits)).sum();
        assert_eq!(total, by_hand);
        assert!(total > 0.0);
        let traffic = m.plan_traffic(fused.num_qubits, &fused.op_shapes());
        assert_eq!(total.to_bits(), traffic.seconds.to_bits());
    }
}
