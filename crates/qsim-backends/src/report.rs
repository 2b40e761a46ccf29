//! Run reports: what a backend measured (and modeled) while executing a
//! fused circuit — the raw material of the paper's figures.

use qsim_core::kernels::{classify_gate, classify_gate_at, KernelClass};
use qsim_core::types::Precision;
use qsim_fusion::{FusedCircuit, FusionStats};
use serde_json::json;

/// Options controlling one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunOptions {
    /// PRNG seed for measurement gates and final sampling.
    pub seed: u64,
    /// Bitstrings to draw from the final state on-device (the RQC
    /// *sampling* step; qsim's `SampleKernel` from
    /// `state_space_hip_kernels.h`). 0 = none.
    pub sample_count: usize,
}

/// Aggregate statistics for one kernel symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Kernel symbol (e.g. `ApplyGateL_Kernel`).
    pub name: String,
    /// Number of launches.
    pub count: u64,
    /// Total simulated execution time, µs.
    pub time_us: f64,
}

/// Fused-unitary count for one `(GPU kernel class, CPU lane class)` pair.
///
/// The two classifications use the same High/Low vocabulary at different
/// rearrangement boundaries: the GPU splits at qubit 5 (the 32-amplitude
/// warp tile), the CPU at `log2(lanes)` of the ISA that actually ran
/// ([`RunReport::isa`]). A gate can be GPU-Low but CPU-High — e.g. a gate
/// on qubit 4 under AVX2 `f64` (2 lane qubits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateClassCount {
    /// GPU class at `LOW_QUBIT_THRESHOLD` (= 5).
    pub gpu_kernel: KernelClass,
    /// CPU lane class at the active ISA's lane-qubit count.
    pub cpu_lane: KernelClass,
    /// Fused unitaries that fell into this pair.
    pub count: u64,
}

/// The sharding section of a run over several devices
/// ([`RunReport::sharding`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// Number of devices (`2^d`).
    pub devices: usize,
    /// Local qubits per device.
    pub local_qubits: usize,
    /// Global-qubit slot swaps performed.
    pub swaps: usize,
    /// Exchange epochs the swaps were batched into (≤ `swaps`; each epoch
    /// is one all-to-all on the device timeline).
    pub swap_epochs: usize,
    /// Bytes each device pushed over the interconnect.
    pub exchanged_bytes_per_device: u64,
    /// Modeled link-occupancy seconds of the exchanges (before any
    /// comm/compute overlap; [`RunReport::simulated_seconds`] reflects the
    /// overlap).
    pub exchange_seconds: f64,
}

/// Everything a backend reports about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Backend label (`cpu`, `cuda`, `custatevec`, `hip`).
    pub backend: String,
    /// Modeled device name.
    pub device: String,
    /// Working precision.
    pub precision: Precision,
    /// Circuit width.
    pub num_qubits: usize,
    /// Fusion setting the circuit was prepared with.
    pub max_fused_qubits: usize,
    /// Fused unitary passes executed.
    pub fused_gates: usize,
    /// How the plan was chosen (`greedy`, `cost`, or `auto`; see
    /// [`qsim_fusion::FusionStrategy`]). Plain `run()`/`estimate()` calls
    /// take a pre-fused circuit and report the default `greedy`; a plan
    /// from `plan_circuit` reports the planner's actual strategy.
    pub fusion_strategy: String,
    /// The backend cost model's prediction for the executed plan, seconds
    /// (0 when the circuit was fused without a planner).
    pub predicted_cost_seconds: f64,
    /// Fusion quality of the executed plan: source vs fused gate counts
    /// and the realized width histogram.
    pub fusion_stats: FusionStats,
    /// **Modeled** end-to-end execution time on the device, seconds
    /// (includes the modeled gate-fusion cost, like the paper's metric).
    pub simulated_seconds: f64,
    /// Modeled host-side gate-fusion cost included above, seconds. The
    /// paper reports this at < 2 % of the total.
    pub fusion_seconds: f64,
    /// Host wall-clock of the functional computation, seconds (a sanity
    /// metric for this reproduction; *not* comparable across modeled
    /// devices).
    pub wall_seconds: f64,
    /// Host wall-clock of the per-job setup: state-buffer acquisition
    /// (allocation, or adoption of a recycled buffer) plus the `|0…0⟩`
    /// initialisation, seconds. This is the cost a warm buffer pool
    /// shrinks — compare cold vs pooled runs of the same size. 0 for
    /// `estimate()` dry-runs.
    pub setup_seconds: f64,
    /// Per-kernel launch statistics on the simulated timeline.
    pub kernels: Vec<KernelStat>,
    /// Outcomes of in-circuit measurement gates, in execution order:
    /// `(sorted qubits, outcome bits)`.
    pub measurements: Vec<(Vec<usize>, usize)>,
    /// Bitstrings sampled from the final state when
    /// `RunOptions::sample_count > 0`.
    pub samples: Vec<u64>,
    /// Device memory held by the state vector, bytes.
    pub state_bytes: u64,
    /// Peak device memory over the run, bytes: the state vector plus the
    /// widest transient (matrix upload buffers, …). The service's
    /// `metrics` verb aggregates this per job. For dry-runs this is the
    /// modeled state footprint.
    pub peak_state_bytes: u64,
    /// Whether the state vector lived in a recycled pool buffer instead
    /// of a fresh allocation.
    pub buffer_reused: bool,
    /// Full passes over the state made by gate kernels. Without the
    /// cache-blocked sweep this equals [`RunReport::fused_gates`]; with it
    /// (CPU flavor) each run of consecutive block-local gates counts as
    /// one pass, so this is the memory-traffic multiplier of the run.
    pub state_passes: u64,
    /// Amplitudes the host kernels updated, per state: the sum over fused
    /// unitaries of the width each ran at. A state born `|0…0⟩` is exact
    /// zeros above its highest touched qubit, so a gate runs on that live
    /// prefix only (DESIGN.md §5.1) and this is at most `fused_gates · 2^n`,
    /// with equality once the top qubit is touched by the first gate. The
    /// modeled device is still charged full passes
    /// ([`RunReport::state_passes`]).
    pub amp_updates: u64,
    /// Warning-severity findings of the pre-run plan analysis (rendered
    /// diagnostics). Errors abort the run before allocation and never
    /// appear here.
    pub analysis_warnings: Vec<String>,
    /// CPU SIMD instruction set the host-side kernels dispatched to
    /// during this run (`scalar`, `avx2`, or `avx512` — see
    /// [`qsim_core::simd::Isa::name`]).
    pub isa: String,
    /// Fused-unitary histogram over `(GPU kernel class, CPU lane class)`
    /// pairs, non-zero entries only, in a stable (High,High), (High,Low),
    /// (Low,High), (Low,Low) order.
    pub gate_class_counts: Vec<GateClassCount>,
    /// Identifier shared by every sub-job of one `run_batch` call (`None`
    /// for single runs). Lets the serve layer's metrics correlate the
    /// reports of a gang.
    pub batch_id: Option<u64>,
    /// Sub-jobs in the `run_batch` call that produced this report (1 for
    /// single runs). `kernels` and the modeled-time fields of a batched
    /// report describe the *gang's* shared launches, with the per-report
    /// time shares divided across completed sub-jobs.
    pub batch_size: usize,
    /// How the state was sharded, for a run over several devices. The
    /// modeled fields above then describe one representative device: the
    /// shards run in lockstep.
    pub sharding: Option<DistReport>,
}

impl GateClassCount {
    /// Tally the fused unitaries of `fused` into the report's sparse,
    /// stably ordered histogram, lane classes at `lane_qubits`.
    pub fn tally(fused: &FusedCircuit, lane_qubits: usize) -> Vec<GateClassCount> {
        const CLASSES: [KernelClass; 2] = [KernelClass::High, KernelClass::Low];
        let pairs = CLASSES.into_iter().flat_map(|gpu| CLASSES.map(|cpu| (gpu, cpu)));
        let count = |(gpu_kernel, cpu_lane)| GateClassCount {
            gpu_kernel,
            cpu_lane,
            count: fused
                .unitaries()
                .filter(|g| classify_gate(&g.qubits) == gpu_kernel)
                .filter(|g| classify_gate_at(&g.qubits, lane_qubits) == cpu_lane)
                .count() as u64,
        };
        pairs.map(count).filter(|c| c.count > 0).collect()
    }
}

impl RunReport {
    /// Share of the modeled time spent in gate fusion (paper: < 2 %).
    pub fn fusion_fraction(&self) -> f64 {
        if self.simulated_seconds > 0.0 {
            self.fusion_seconds / self.simulated_seconds
        } else {
            0.0
        }
    }

    /// Total launches of a kernel whose name contains `needle`.
    pub fn launches_matching(&self, needle: &str) -> u64 {
        self.kernels.iter().filter(|k| k.name.contains(needle)).map(|k| k.count).sum()
    }

    /// Total simulated µs in kernels whose name contains `needle`.
    pub fn time_us_matching(&self, needle: &str) -> f64 {
        self.kernels.iter().filter(|k| k.name.contains(needle)).map(|k| k.time_us).sum()
    }

    /// Gate passes the cache-blocked sweep avoided versus per-gate
    /// execution (0 when the sweep is off or not applicable).
    pub fn passes_saved(&self) -> u64 {
        (self.fused_gates as u64).saturating_sub(self.state_passes)
    }

    /// Fused unitaries whose CPU lane class is [`KernelClass::Low`] — the
    /// gates the SIMD lane kernels resolve with in-register permutes.
    pub fn lane_low_gates(&self) -> u64 {
        self.gate_class_counts
            .iter()
            .filter(|c| c.cpu_lane == KernelClass::Low)
            .map(|c| c.count)
            .sum()
    }

    /// Fused unitaries in one `(gpu, cpu)` class pair.
    pub fn gates_in_class(&self, gpu: KernelClass, cpu: KernelClass) -> u64 {
        self.gate_class_counts
            .iter()
            .filter(|c| c.gpu_kernel == gpu && c.cpu_lane == cpu)
            .map(|c| c.count)
            .sum()
    }

    /// The report as a JSON document — the single serialization shared by
    /// `qsim_base --json`, the `qsim_serve` `result` verb, and the bench
    /// harnesses.
    pub fn to_json(&self) -> serde_json::Value {
        let gate_classes: Vec<serde_json::Value> = self
            .gate_class_counts
            .iter()
            .map(|c| {
                json!({
                    "gpu_kernel": (format!("{:?}", c.gpu_kernel)),
                    "cpu_lane": (format!("{:?}", c.cpu_lane)),
                    "count": (c.count),
                })
            })
            .collect();
        let kernels: Vec<serde_json::Value> = self
            .kernels
            .iter()
            .map(|k| json!({ "name": (k.name), "count": (k.count), "time_us": (k.time_us) }))
            .collect();
        let measurements: Vec<serde_json::Value> = self
            .measurements
            .iter()
            .map(|(qubits, outcome)| json!({ "qubits": (qubits), "outcome": (outcome) }))
            .collect();
        json!({
            "backend": (self.backend),
            "device": (self.device),
            "precision": (self.precision.to_string()),
            "qubits": (self.num_qubits),
            "max_fused_qubits": (self.max_fused_qubits),
            "fusion": {
                "strategy": (self.fusion_strategy),
                "predicted_cost_seconds": (self.predicted_cost_seconds),
                "source_gates": (self.fusion_stats.source_gates),
                "fused_gates": (self.fusion_stats.fused_gates),
                "fused_by_qubit_count": (self.fusion_stats.fused_by_qubit_count.to_vec()),
                "compression": (self.fusion_stats.compression()),
            },
            "simulated_seconds": (self.simulated_seconds),
            "fusion_seconds": (self.fusion_seconds),
            "wall_seconds": (self.wall_seconds),
            "setup_seconds": (self.setup_seconds),
            "state_bytes": (self.state_bytes),
            "peak_state_bytes": (self.peak_state_bytes),
            "buffer_reused": (self.buffer_reused),
            "state_passes": (self.state_passes),
            "amp_updates": (self.amp_updates),
            "isa": (self.isa),
            "gate_classes": (gate_classes),
            "kernels": (kernels),
            "measurements": (measurements),
            "samples": (self.samples),
            "analysis_warnings": (self.analysis_warnings),
            "batch_id": (self.batch_id),
            "batch_size": (self.batch_size),
            "sharding": (self.sharding.as_ref().map(|s| json!({
                "devices": (s.devices),
                "local_qubits": (s.local_qubits),
                "swaps": (s.swaps),
                "swap_epochs": (s.swap_epochs),
                "exchanged_bytes_per_device": (s.exchanged_bytes_per_device),
                "exchange_seconds": (s.exchange_seconds),
            }))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            backend: "hip".into(),
            device: "AMD MI250X (1 GCD)".into(),
            precision: Precision::Single,
            num_qubits: 30,
            max_fused_qubits: 4,
            fused_gates: 150,
            fusion_strategy: "greedy".into(),
            predicted_cost_seconds: 0.0,
            fusion_stats: FusionStats {
                source_gates: 600,
                fused_gates: 150,
                fused_by_qubit_count: [0, 10, 50, 50, 40, 0, 0],
                over_wide: 0,
            },
            simulated_seconds: 2.0,
            fusion_seconds: 0.02,
            wall_seconds: 1.0,
            setup_seconds: 0.1,
            kernels: vec![
                KernelStat { name: "ApplyGateH_Kernel".into(), count: 90, time_us: 1.2e6 },
                KernelStat { name: "ApplyGateL_Kernel".into(), count: 60, time_us: 7.8e5 },
            ],
            measurements: vec![],
            samples: vec![],
            state_bytes: 8 << 30,
            peak_state_bytes: 8 << 30,
            buffer_reused: false,
            state_passes: 150,
            amp_updates: 150 << 30,
            analysis_warnings: vec![],
            isa: "avx2".into(),
            gate_class_counts: [
                (KernelClass::High, KernelClass::High, 90),
                (KernelClass::Low, KernelClass::High, 30),
                (KernelClass::Low, KernelClass::Low, 30),
            ]
            .map(|(gpu_kernel, cpu_lane, count)| GateClassCount { gpu_kernel, cpu_lane, count })
            .to_vec(),
            batch_id: None,
            batch_size: 1,
            sharding: None,
        }
    }

    #[test]
    fn fusion_fraction() {
        assert!((report().fusion_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn fusion_stats_carry_compression() {
        let r = report();
        assert_eq!(r.fusion_stats.fused_gates, r.fused_gates);
        assert!((r.fusion_stats.compression() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_queries() {
        let r = report();
        assert_eq!(r.launches_matching("ApplyGate"), 150);
        assert_eq!(r.launches_matching("L_Kernel"), 60);
        assert!((r.time_us_matching("ApplyGate") - 1.98e6).abs() < 1.0);
    }

    #[test]
    fn gate_class_histogram_queries() {
        let r = report();
        // A pair absent from the histogram counts zero.
        assert_eq!(r.gate_class_counts.len(), 3);
        assert_eq!(r.lane_low_gates(), 30);
        assert_eq!(r.gates_in_class(KernelClass::High, KernelClass::High), 90);
        assert_eq!(r.gates_in_class(KernelClass::Low, KernelClass::High), 30);
        assert_eq!(r.gates_in_class(KernelClass::High, KernelClass::Low), 0);
        let total: u64 = r.gate_class_counts.iter().map(|c| c.count).sum();
        assert_eq!(total as usize, r.fused_gates);
    }
}
