//! The multi-GCD execution engine.
//!
//! Bulk-synchronous over `D = 2^d` modeled devices: every fused gate runs
//! on all shards concurrently; gates touching a *global* qubit slot are
//! preceded by exchange epochs planned up-front by the
//! [`crate::schedule`] swap scheduler (batched all-to-alls with
//! reuse-aware eviction, never worse than the eager one-swap-at-a-time
//! baseline). The functional amplitudes are exact — the shard exchange
//! really moves the data — while each device's virtual timeline
//! accumulates the modeled kernel and link costs.
//!
//! With [`DistOptions::overlap`] on, each exchange is split into
//! per-block chunks charged to a dedicated comm stream and pipelined
//! against the dependent gate kernel's matching chunks on the compute
//! stream (double-buffering on the device timeline, the same trick the
//! single-device flavors play with `hipMemcpyAsync` matrix uploads), so
//! link time hides behind compute instead of serializing.
//!
//! `run` and `estimate` are one walk over the schedule — the dry run is
//! the walk without shard buffers — so it prices exactly what a functional
//! run pays, the invariant the timing tests pin down.

use std::collections::BTreeMap;
use std::time::Instant;

use qsim_backends::plan::{gate_kernel_desc, init_kernel_desc, sample_kernel_desc};
use qsim_backends::{
    BackendError, Flavor, FusionPlan, GateClassCount, KernelStat, PlanOptions, RunOptions,
    RunReport,
};
use qsim_circuit::gates::permute_matrix_bits;
use qsim_core::kernels::apply_gate_par;
use qsim_core::matrix::GateMatrix;
use qsim_core::statespace::measure;
use qsim_core::sweep::SweepConfig;
use qsim_core::types::{Cplx, Float, Precision};
use qsim_core::StateVector;
use qsim_fusion::{FusedCircuit, FusedOp, FusionCostModel, LaunchCostModel, LaunchPolicy};

use gpu_model::memory::DeviceBuffer;
use gpu_model::runtime::{Gpu, KernelDesc, StreamId};
use gpu_model::trace::SpanKind;
use gpu_model::GpuError;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cost::DistCostModel;
use crate::interconnect::{LinkSpec, Topology};
use crate::layout::QubitLayout;
use crate::schedule::{DistOptions, SwapSchedule};

/// Kernel-stat name of the modeled shard exchange.
pub const EXCHANGE_KERNEL: &str = "GlobalSwapExchange";

/// Report of one distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// Backend flavor label.
    pub backend: String,
    /// Number of devices (`2^d`).
    pub devices: usize,
    /// Local qubits per device.
    pub local_qubits: usize,
    /// Circuit width.
    pub num_qubits: usize,
    /// Working precision.
    pub precision: Precision,
    /// Fused unitary passes executed (per device).
    pub fused_gates: usize,
    /// Global-qubit slot swaps performed.
    pub swaps: usize,
    /// Exchange epochs the swaps were batched into (≤ `swaps`; each epoch
    /// is one all-to-all on the device timeline).
    pub swap_epochs: usize,
    /// Bytes each device pushed over the interconnect.
    pub exchanged_bytes_per_device: u64,
    /// Modeled link-occupancy seconds of the exchanges (before any
    /// comm/compute overlap; the makespan reflects the overlap).
    pub exchange_seconds: f64,
    /// Modeled end-to-end time, seconds (max over device timelines).
    pub simulated_seconds: f64,
    /// Total state memory across devices, bytes.
    pub state_bytes_total: u64,
    /// Outcomes of in-circuit measurements, in order.
    pub measurements: Vec<(Vec<usize>, usize)>,
    /// Bitstrings sampled from the final state when
    /// [`RunOptions::sample_count`] > 0 (empty for estimates).
    pub samples: Vec<u64>,
    /// Per-kernel launch statistics on one device's timeline (the shards
    /// run in lockstep, so one timeline is representative).
    pub kernels: Vec<KernelStat>,
    /// Warning-severity findings of the plan's pre-run check.
    pub analysis_warnings: Vec<String>,
}

/// A state vector sharded across several modeled devices of one flavor.
pub struct MultiGcdBackend {
    flavor: Flavor,
    topology: Topology,
    devices: Vec<Gpu>,
    /// One comm stream per device, for overlapped exchange charging.
    comm_streams: Vec<StreamId>,
    options: DistOptions,
}

impl MultiGcdBackend {
    /// `num_devices` (a power of two) devices of the flavor's default
    /// spec, joined by in-package Infinity Fabric (or NVLink for the
    /// Nvidia flavors).
    pub fn new(flavor: Flavor, num_devices: usize) -> Self {
        let link = match flavor {
            Flavor::Cuda | Flavor::CuStateVec => LinkSpec::nvlink3(),
            _ => LinkSpec::infinity_fabric_in_package(),
        };
        Self::with_link(flavor, num_devices, link)
    }

    /// Devices joined by a uniform link model.
    pub fn with_link(flavor: Flavor, num_devices: usize, link: LinkSpec) -> Self {
        Self::with_topology(flavor, num_devices, Topology::Uniform(link))
    }

    /// Devices joined by an explicit topology (e.g.
    /// [`Topology::frontier_node`] for the in-package/cross-package
    /// hierarchy of the paper's testbed).
    pub fn with_topology(flavor: Flavor, num_devices: usize, topology: Topology) -> Self {
        assert!(
            num_devices.is_power_of_two() && num_devices >= 1,
            "device count must be a power of two, got {num_devices}"
        );
        let devices: Vec<Gpu> = (0..num_devices).map(|_| Gpu::new(flavor.default_spec())).collect();
        let comm_streams = devices.iter().map(Gpu::create_stream).collect();
        MultiGcdBackend { flavor, topology, devices, comm_streams, options: DistOptions::default() }
    }

    /// Builder-style override of the scheduling/overlap options.
    pub fn with_options(mut self, options: DistOptions) -> Self {
        self.options = options;
        self
    }

    /// The active scheduling/overlap options.
    pub fn options(&self) -> DistOptions {
        self.options
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// This backend's flavor.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// The interconnect topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Bytes of state each device holds for an `n`-qubit circuit.
    pub fn shard_bytes(&self, num_qubits: usize, precision: Precision) -> u64 {
        let d = self.devices.len().trailing_zeros() as usize;
        let m = num_qubits.saturating_sub(d);
        ((1u64) << m) * precision.amplitude_bytes() as u64
    }

    /// How every shard launches gate kernels: the flavor's policy with the
    /// sweep disabled — the shard walk applies each gate as a pass of its
    /// own. The walk charges with it and [`Self::cost_model`] prices with
    /// it.
    fn launch_policy(&self, precision: Precision) -> LaunchPolicy {
        self.flavor.launch_policy(precision, SweepConfig::disabled(), None)
    }

    /// Local qubits per shard of an `n`-qubit state on these devices.
    fn local_qubits(&self, n: usize) -> Result<usize, BackendError> {
        let d = self.devices.len().trailing_zeros() as usize;
        if n == 0 || n > qsim_core::statevec::MAX_QUBITS {
            return Err(BackendError::InvalidCircuit(format!("unsupported qubit count {n}")));
        }
        if d >= n {
            return Err(BackendError::InvalidCircuit(format!(
                "{} devices need more than {n} qubits",
                self.devices.len()
            )));
        }
        Ok(n - d)
    }

    /// Move physical slot `global_slot` (≥ m) into local slot
    /// `local_slot` in the *data*, for all device pairs.
    fn exchange_data<F: Float>(
        buffers: &mut [DeviceBuffer<Cplx<F>>],
        m: usize,
        local_slot: usize,
        global_slot: usize,
    ) {
        let t = global_slot - m;
        let pair_bit = 1usize << t;
        let a_bit = 1usize << local_slot;
        let shard_len = buffers[0].len();
        for r0 in 0..buffers.len() {
            if r0 & pair_bit != 0 {
                continue;
            }
            let r1 = r0 | pair_bit;
            let (lo, hi) = buffers.split_at_mut(r1);
            let b0 = lo[r0].as_mut_slice();
            let b1 = hi[0].as_mut_slice();
            for i in 0..shard_len {
                if i & a_bit == 0 {
                    std::mem::swap(&mut b0[i | a_bit], &mut b1[i]);
                }
            }
        }
    }

    /// The gate's (sorted) physical slots and, when `matrix` is given, the
    /// matrix re-expressed over them.
    fn physical_matrix<F: Float>(
        layout: &QubitLayout,
        qubits: &[usize],
        matrix: Option<&GateMatrix<f64>>,
    ) -> (Vec<usize>, Option<GateMatrix<F>>) {
        let slots: Vec<usize> = qubits.iter().map(|&q| layout.slot_of(q)).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        let matrix = matrix.map(|matrix| {
            if sorted == slots {
                return matrix.cast();
            }
            let perm: Vec<usize> = slots
                .iter()
                .map(|s| sorted.iter().position(|x| x == s).expect("slot present"))
                .collect();
            permute_matrix_bits(matrix, &perm).cast()
        });
        (sorted, matrix)
    }

    fn makespan(&self) -> f64 {
        self.devices.iter().map(|g| g.synchronize()).fold(0.0, f64::max)
    }

    /// The `i`-th of `chunks` slices of a gate kernel, blocks and work
    /// divided proportionally (remainder blocks land on early chunks).
    fn chunk_desc(desc: &KernelDesc, i: usize, chunks: usize) -> KernelDesc {
        let total = desc.blocks.max(1);
        let base = total / chunks as u64;
        let rem = total % chunks as u64;
        let blocks = base + u64::from((i as u64) < rem);
        let share = blocks as f64 / total as f64;
        KernelDesc {
            name: desc.name.clone(),
            blocks,
            threads_per_block: desc.threads_per_block,
            shared_mem_bytes: desc.shared_mem_bytes,
            work: gpu_model::runtime::KernelWork {
                bytes: desc.work.bytes * share,
                flops: desc.work.flops * share,
                passes: desc.work.passes * share,
            },
            double_precision: desc.double_precision,
        }
    }

    /// Charge one fused-gate pass — optionally preceded by `exchange_us`
    /// of link traffic — to every device's timeline.
    ///
    /// Serialized mode queues the exchange ahead of the kernel on the
    /// compute stream. Overlapped mode splits both into
    /// [`DistOptions::chunks`] pieces: exchange chunk `i` runs on the
    /// comm stream, the matching kernel chunk waits on its event — so
    /// chunk `i+1`'s link time hides behind chunk `i`'s compute.
    fn charge_gate_timeline(
        &self,
        desc: &KernelDesc,
        exchange_us: f64,
        stats: &mut BTreeMap<String, (u64, f64)>,
    ) -> Result<(), BackendError> {
        if exchange_us <= 0.0 {
            return self.charge_all(desc, stats);
        }
        if !self.options.overlap {
            for gpu in &self.devices {
                let (xs, xe) = gpu.charge_custom(
                    EXCHANGE_KERNEL,
                    SpanKind::MemcpyD2D,
                    StreamId::DEFAULT,
                    exchange_us,
                )?;
                let (s, e) = gpu.charge_launch(desc, StreamId::DEFAULT)?;
                if std::ptr::eq(gpu, &self.devices[0]) {
                    bump(stats, EXCHANGE_KERNEL, xe - xs);
                    bump(stats, &desc.name, e - s);
                }
            }
            return Ok(());
        }
        let chunks = self.options.chunks.clamp(1, desc.blocks.max(1) as usize);
        for (r, gpu) in self.devices.iter().enumerate() {
            let comm = self.comm_streams[r];
            // The exchange reads amplitudes the previous kernel wrote:
            // the comm stream first syncs with compute.
            let prior = gpu.record_event(StreamId::DEFAULT)?;
            gpu.stream_wait_event(comm, prior)?;
            let mut xt = 0.0;
            let mut kt = 0.0;
            for i in 0..chunks {
                let (xs, xe) = gpu.charge_custom(
                    EXCHANGE_KERNEL,
                    SpanKind::MemcpyD2D,
                    comm,
                    exchange_us / chunks as f64,
                )?;
                let ready = gpu.record_event(comm)?;
                gpu.stream_wait_event(StreamId::DEFAULT, ready)?;
                let cd = Self::chunk_desc(desc, i, chunks);
                let (s, e) = gpu.charge_launch(&cd, StreamId::DEFAULT)?;
                xt += xe - xs;
                kt += e - s;
            }
            if r == 0 {
                bump(stats, EXCHANGE_KERNEL, xt);
                bump(stats, &desc.name, kt);
            }
        }
        Ok(())
    }

    /// Per-op exchange accounting: replays the op's epochs against
    /// `layout` (moving shard data when given `buffers`), returning the
    /// modeled link microseconds to charge.
    #[allow(clippy::too_many_arguments)]
    fn apply_epochs<F: Float>(
        &self,
        schedule: &SwapSchedule,
        op_index: usize,
        layout: &mut QubitLayout,
        m: usize,
        amp_bytes: usize,
        mut buffers: Option<&mut [DeviceBuffer<Cplx<F>>]>,
        tally: &mut ExchangeTally,
    ) -> f64 {
        let shard_len = 1usize << m;
        let mut exchange_us = 0.0;
        for epoch in &schedule.epochs[op_index] {
            for &(local_slot, global_slot) in &epoch.pairs {
                if let Some(bufs) = buffers.as_deref_mut() {
                    Self::exchange_data(bufs, m, local_slot, global_slot);
                }
                layout.swap_slots(local_slot, global_slot);
            }
            tally.swaps += epoch.pairs.len();
            tally.epochs += 1;
            tally.bytes += epoch.bytes_per_device(shard_len, amp_bytes);
            exchange_us += epoch.seconds(&self.topology, m, shard_len, amp_bytes) * 1e6;
        }
        tally.us += exchange_us;
        exchange_us
    }

    /// A pre-fused circuit as an unpriced plan, checked for the shard walk.
    fn check(fused: &FusedCircuit) -> FusionPlan {
        FusionPlan::check(fused.clone().into(), SweepConfig::disabled())
    }

    /// Functional + modeled execution from `|0…0⟩`.
    pub fn run<F: Float>(
        &self,
        fused: &FusedCircuit,
        opts: &RunOptions,
    ) -> Result<(StateVector<F>, DistReport), BackendError> {
        let (state, report) = self.walk::<F>(&Self::check(fused), Some(opts))?;
        Ok((state.expect("a functional walk gathers the final state"), report))
    }

    /// Dry run: modeled timing without allocating or computing — the walk
    /// [`MultiGcdBackend::run`] makes, without shard buffers.
    pub fn estimate(
        &self,
        fused: &FusedCircuit,
        precision: Precision,
    ) -> Result<DistReport, BackendError> {
        self.dry_run(&Self::check(fused), precision)
    }

    fn dry_run(&self, plan: &FusionPlan, precision: Precision) -> Result<DistReport, BackendError> {
        Ok(match precision {
            Precision::Single => self.walk::<f32>(plan, None)?.1,
            Precision::Double => self.walk::<f64>(plan, None)?.1,
        })
    }

    /// The one traversal of the schedule at precision `F`: every kernel,
    /// exchange and copy is charged to the device timelines; shard data
    /// moves, and the final state is gathered, only under `opts` (a
    /// functional run). A plan its verdict rejects allocates no shard.
    fn walk<F: Float>(
        &self,
        plan: &FusionPlan,
        opts: Option<&RunOptions>,
    ) -> Result<(Option<StateVector<F>>, DistReport), BackendError> {
        let fused = &plan.fused;
        let m = self.local_qubits(fused.num_qubits)?;
        let analysis_warnings = plan.verdict(SweepConfig::disabled())?;
        let schedule = SwapSchedule::plan(fused, m, self.options.policy)
            .map_err(|e| BackendError::InvalidCircuit(e.to_string()))?;
        let shard_len = 1usize << m;
        let amp_bytes = F::PRECISION.amplitude_bytes();
        let policy = self.launch_policy(F::PRECISION);
        let shard_bytes = (shard_len * amp_bytes) as u64;
        let spec_mem = self.devices[0].spec().memory_bytes;
        if shard_bytes > spec_mem {
            return Err(BackendError::Gpu(GpuError::OutOfMemory {
                requested_bytes: shard_bytes,
                free_bytes: spec_mem,
            }));
        }
        let mut layout = QubitLayout::new(fused.num_qubits, m);
        let mut measurements = Vec::new();
        let mut stats: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let mut tally = ExchangeTally::default();

        let t0 = self.makespan();
        let mut run = match opts {
            Some(opts) => {
                let mut buffers: Vec<DeviceBuffer<Cplx<F>>> = self
                    .devices
                    .iter()
                    .map(|g| g.malloc::<Cplx<F>>(shard_len))
                    .collect::<Result<_, GpuError>>()?;
                buffers[0].as_mut_slice()[0] = Cplx::one();
                Some((buffers, StdRng::seed_from_u64(opts.seed), opts.sample_count))
            }
            None => None,
        };
        let init = init_kernel_desc(&policy, shard_len, F::PRECISION);
        self.charge_all(&init, &mut stats)?;

        for (i, op) in fused.ops.iter().enumerate() {
            match op {
                FusedOp::Unitary(g) => {
                    let exchange_us = self.apply_epochs(
                        &schedule,
                        i,
                        &mut layout,
                        m,
                        amp_bytes,
                        run.as_mut().map(|(buffers, ..)| buffers.as_mut_slice()),
                        &mut tally,
                    );
                    let (slots, matrix) = Self::physical_matrix::<F>(
                        &layout,
                        &g.qubits,
                        run.is_some().then_some(&g.matrix),
                    );
                    let desc =
                        gate_kernel_desc(self.flavor, &policy, m, &slots, F::PRECISION, true);
                    self.charge_gate_timeline(&desc, exchange_us, &mut stats)?;
                    if let (Some((buffers, ..)), Some(matrix)) = (run.as_mut(), &matrix) {
                        for buf in buffers {
                            apply_gate_par(buf.as_mut_slice(), &slots, matrix);
                        }
                    }
                }
                FusedOp::Measurement { qubits, .. } => {
                    // Charged as one full D2H + H2D round trip; the
                    // functional side gathers to host in logical order,
                    // measures, and scatters back.
                    self.charge_measurement(shard_len, amp_bytes, &mut stats)?;
                    if let Some((buffers, rng, _)) = run.as_mut() {
                        let mut logical = self.gather_logical(buffers, &layout, m);
                        let outcome = measure(&mut logical, qubits, rng);
                        measurements.push((qubits.clone(), outcome));
                        self.scatter_logical(buffers, &layout, m, &logical);
                    }
                }
            }
        }

        let mut state = None;
        let mut samples = Vec::new();
        if let Some((buffers, rng, sample_count)) = run.as_mut() {
            let gathered = StateVector::from_amplitudes(self.gather_logical(buffers, &layout, m));
            if *sample_count > 0 {
                // Every device makes one cumulative sweep over its shard.
                let desc = sample_kernel_desc(&policy, shard_len, F::PRECISION);
                self.charge_all(&desc, &mut stats)?;
                samples = qsim_core::statespace::sample(&gathered, *sample_count, rng);
            }
            state = Some(gathered);
        }
        let simulated = (self.makespan() - t0) * 1e-6;

        let kernels = stats
            .into_iter()
            .map(|(name, (count, time_us))| KernelStat { name, count, time_us })
            .collect();
        let report = DistReport {
            backend: self.flavor.label().into(),
            devices: self.devices.len(),
            local_qubits: m,
            num_qubits: fused.num_qubits,
            precision: F::PRECISION,
            fused_gates: fused.num_unitaries(),
            swaps: tally.swaps,
            swap_epochs: tally.epochs,
            exchanged_bytes_per_device: tally.bytes,
            exchange_seconds: tally.us * 1e-6,
            simulated_seconds: simulated,
            state_bytes_total: shard_bytes * self.devices.len() as u64,
            measurements,
            samples,
            kernels,
            analysis_warnings,
        };
        Ok((state, report))
    }

    /// Charge one launch of `desc` to every device's default stream.
    fn charge_all(
        &self,
        desc: &KernelDesc,
        stats: &mut BTreeMap<String, (u64, f64)>,
    ) -> Result<(), BackendError> {
        for gpu in &self.devices {
            let (s, e) = gpu.charge_launch(desc, StreamId::DEFAULT)?;
            if std::ptr::eq(gpu, &self.devices[0]) {
                bump(stats, &desc.name, e - s);
            }
        }
        Ok(())
    }

    fn charge_measurement(
        &self,
        shard_len: usize,
        amp_bytes: usize,
        stats: &mut BTreeMap<String, (u64, f64)>,
    ) -> Result<(), BackendError> {
        for gpu in &self.devices {
            gpu.charge_memcpy(
                SpanKind::MemcpyD2H,
                (shard_len * amp_bytes) as u64,
                StreamId::DEFAULT,
            )?;
            gpu.charge_memcpy(
                SpanKind::MemcpyH2D,
                (shard_len * amp_bytes) as u64,
                StreamId::DEFAULT,
            )?;
        }
        bump(stats, "Measure(D2H+H2D)", 0.0);
        Ok(())
    }

    /// Collect shards into a logically-ordered amplitude vector.
    fn gather_logical<F: Float>(
        &self,
        buffers: &[DeviceBuffer<Cplx<F>>],
        layout: &QubitLayout,
        m: usize,
    ) -> Vec<Cplx<F>> {
        let n = layout.num_qubits();
        let mask = (1usize << m) - 1;
        (0..1usize << n)
            .map(|l| {
                let p = layout.physical_index(l);
                buffers[p >> m].as_slice()[p & mask]
            })
            .collect()
    }

    /// Write a logically-ordered amplitude vector back into the shards.
    fn scatter_logical<F: Float>(
        &self,
        buffers: &mut [DeviceBuffer<Cplx<F>>],
        layout: &QubitLayout,
        m: usize,
        logical: &[Cplx<F>],
    ) {
        let mask = (1usize << m) - 1;
        for (l, &amp) in logical.iter().enumerate() {
            let p = layout.physical_index(l);
            buffers[p >> m].as_mut_slice()[p & mask] = amp;
        }
    }

    // ---- SimBackend-shaped planning surface -----------------------------

    /// The distributed fusion cost model: each shard's launches priced as
    /// the walk charges them (same device, same [`LaunchPolicy`]) over the
    /// *shard* width, plus modeled exchange traffic for gates the swap
    /// scheduler must localize — so `--fusion auto` prices the distributed
    /// config space (wide fused gates that force exchanges lose to
    /// narrower ones that stay local).
    pub fn cost_model(&self, precision: Precision) -> Box<dyn FusionCostModel> {
        let shard = LaunchCostModel {
            spec: self.devices[0].spec().clone(),
            policy: self.launch_policy(precision),
            precision,
        };
        Box::new(DistCostModel::new(shard, self.devices.len(), self.topology, self.options.policy))
    }

    /// Plan a source circuit for this sharded backend, priced by
    /// [`MultiGcdBackend::cost_model`] and checked for the shard walk.
    pub fn plan_circuit(
        &self,
        circuit: &qsim_circuit::Circuit,
        opts: &PlanOptions,
        precision: Precision,
    ) -> FusionPlan {
        let model = self.cost_model(precision);
        let plan = qsim_fusion::plan(circuit, opts.strategy, opts.max_fused_qubits, model.as_ref());
        FusionPlan::check(plan, SweepConfig::disabled())
    }

    /// Run a planned circuit, reporting through the single-device
    /// [`RunReport`] shape (so the CLI and serve layers treat sharded and
    /// single-device runs uniformly).
    pub fn run_plan<F: Float>(
        &self,
        plan: &FusionPlan,
        opts: &RunOptions,
    ) -> Result<(StateVector<F>, RunReport), BackendError> {
        let wall = Instant::now();
        let (state, dist) = self.walk::<F>(plan, Some(opts))?;
        let report = self.run_report(&dist, plan, wall.elapsed().as_secs_f64());
        Ok((state.expect("a functional walk gathers the final state"), report))
    }

    /// Dry-run a planned circuit (see [`MultiGcdBackend::estimate`]).
    pub fn estimate_plan(
        &self,
        plan: &FusionPlan,
        precision: Precision,
    ) -> Result<RunReport, BackendError> {
        let wall = Instant::now();
        let dist = self.dry_run(plan, precision)?;
        Ok(self.run_report(&dist, plan, wall.elapsed().as_secs_f64()))
    }

    /// A [`DistReport`] of `plan` reshaped into the workspace-wide
    /// [`RunReport`].
    fn run_report(&self, dist: &DistReport, plan: &FusionPlan, wall_seconds: f64) -> RunReport {
        let isa = qsim_core::simd::active_isa();
        RunReport {
            backend: dist.backend.clone(),
            device: format!("{}x {}", dist.devices, self.devices[0].spec().name),
            precision: dist.precision,
            num_qubits: dist.num_qubits,
            max_fused_qubits: plan.fused.max_fused_qubits,
            fused_gates: dist.fused_gates,
            fusion_strategy: plan.strategy.label().into(),
            predicted_cost_seconds: plan.predicted_cost_seconds,
            fusion_stats: plan.fused.stats(),
            simulated_seconds: dist.simulated_seconds,
            fusion_seconds: 0.0,
            wall_seconds,
            setup_seconds: 0.0,
            kernels: dist.kernels.clone(),
            measurements: dist.measurements.clone(),
            samples: dist.samples.clone(),
            state_bytes: dist.state_bytes_total,
            peak_state_bytes: dist.state_bytes_total,
            buffer_reused: false,
            state_passes: dist.fused_gates as u64,
            // The shard walk applies every gate at full width.
            amp_updates: (dist.fused_gates as u64) << dist.num_qubits,
            analysis_warnings: dist.analysis_warnings.clone(),
            isa: isa.name().into(),
            gate_class_counts: GateClassCount::tally(&plan.fused, isa.lane_qubits(dist.precision)),
            batch_id: None,
            batch_size: 1,
        }
    }
}

/// Exchange accounting accumulated over one run/estimate.
#[derive(Debug, Default)]
struct ExchangeTally {
    swaps: usize,
    epochs: usize,
    bytes: u64,
    us: f64,
}

fn bump(stats: &mut BTreeMap<String, (u64, f64)>, name: &str, dur_us: f64) {
    let entry = stats.entry(name.to_string()).or_insert((0, 0.0));
    entry.0 += 1;
    entry.1 += dur_us;
}

/// The sharded backend is shareable across service worker threads: all
/// mutable state lives behind the device model's own synchronization.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MultiGcdBackend>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SwapPolicy;
    use qsim_backends::SimBackend;
    use qsim_circuit::{generate_rqc, library, RqcOptions};
    use qsim_fusion::fuse;

    fn single_device_state(fused: &FusedCircuit) -> StateVector<f64> {
        SimBackend::new(Flavor::Hip)
            .run::<f64>(fused, &RunOptions::default())
            .expect("single run")
            .0
    }

    #[test]
    fn one_device_matches_single_backend() {
        let fused = fuse(&library::ghz(8), 3);
        let dist = MultiGcdBackend::new(Flavor::Hip, 1);
        let (state, report) = dist.run::<f64>(&fused, &RunOptions::default()).expect("run");
        assert_eq!(report.swaps, 0);
        assert!(single_device_state(&fused).max_abs_diff(&state) < 1e-14);
    }

    #[test]
    fn sharded_rqc_matches_single_device() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 8, 21));
        for f in [2usize, 3, 4] {
            let fused = fuse(&circuit, f);
            let reference = single_device_state(&fused);
            for devices in [2usize, 4, 8] {
                let dist = MultiGcdBackend::new(Flavor::Hip, devices);
                let (state, report) = dist.run::<f64>(&fused, &RunOptions::default()).expect("run");
                let diff = reference.max_abs_diff(&state);
                assert!(diff < 1e-12, "D={devices} f={f}: diff {diff}");
                // Global gates exist in an RQC this wide, so swaps happen.
                if devices > 1 {
                    assert!(report.swaps > 0, "D={devices} f={f}");
                    assert!(report.exchanged_bytes_per_device > 0);
                    assert!(report.swap_epochs <= report.swaps);
                }
            }
        }
    }

    #[test]
    fn qft_sharded_matches() {
        let fused = fuse(&library::qft(9), 3);
        let reference = single_device_state(&fused);
        let dist = MultiGcdBackend::new(Flavor::Cuda, 4);
        let (state, _) = dist.run::<f64>(&fused, &RunOptions::default()).expect("run");
        assert!(reference.max_abs_diff(&state) < 1e-12);
    }

    #[test]
    fn estimate_matches_run_timing() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 6, 3));
        let fused = fuse(&circuit, 3);
        for devices in [1usize, 2, 4] {
            let a = MultiGcdBackend::new(Flavor::Hip, devices);
            let run_report = a.run::<f32>(&fused, &RunOptions::default()).expect("run").1;
            let b = MultiGcdBackend::new(Flavor::Hip, devices);
            let est = b.estimate(&fused, Precision::Single).expect("estimate");
            assert_eq!(run_report.swaps, est.swaps, "D={devices}");
            assert_eq!(run_report.swap_epochs, est.swap_epochs, "D={devices}");
            assert!(
                (run_report.simulated_seconds - est.simulated_seconds).abs() < 1e-9,
                "D={devices}"
            );
        }
    }

    #[test]
    fn estimate_matches_run_timing_under_every_option_mix() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 6, 5));
        let fused = fuse(&circuit, 3);
        for policy in [SwapPolicy::Eager, SwapPolicy::Lookahead] {
            for overlap in [false, true] {
                let options = DistOptions { policy, overlap, chunks: 4 };
                let a = MultiGcdBackend::new(Flavor::Hip, 4).with_options(options);
                let run_report = a.run::<f32>(&fused, &RunOptions::default()).expect("run").1;
                let b = MultiGcdBackend::new(Flavor::Hip, 4).with_options(options);
                let est = b.estimate(&fused, Precision::Single).expect("estimate");
                assert_eq!(run_report.swaps, est.swaps, "{policy:?} overlap={overlap}");
                assert!(
                    (run_report.simulated_seconds - est.simulated_seconds).abs() < 1e-9,
                    "{policy:?} overlap={overlap}"
                );
            }
        }
    }

    #[test]
    fn measurement_in_sharded_state() {
        let mut c = qsim_circuit::Circuit::new(6);
        use qsim_circuit::gates::GateKind;
        c.push(GateKind::H, &[0]);
        for q in 1..6 {
            c.push(GateKind::Cnot, &[q - 1, q]);
        }
        c.push(GateKind::Measurement, &[0, 1, 2, 3, 4, 5]);
        let fused = fuse(&c, 2);
        for seed in 0..10 {
            let dist = MultiGcdBackend::new(Flavor::Hip, 4);
            let (state, report) =
                dist.run::<f64>(&fused, &RunOptions { seed, sample_count: 0 }).expect("run");
            let (_, outcome) = &report.measurements[0];
            assert!(*outcome == 0 || *outcome == 0b111111, "GHZ gave {outcome:06b}");
            assert!((state.amplitude(*outcome).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn two_level_topology_is_slower_than_uniform_fast_links() {
        use crate::interconnect::Topology;
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        let fused = fuse(&circuit, 4);
        let uniform = MultiGcdBackend::new(Flavor::Hip, 4)
            .estimate(&fused, Precision::Single)
            .expect("estimate");
        let hierarchical =
            MultiGcdBackend::with_topology(Flavor::Hip, 4, Topology::frontier_node())
                .estimate(&fused, Precision::Single)
                .expect("estimate");
        // Same swaps and functional behaviour, slower cross-package links.
        assert_eq!(uniform.swaps, hierarchical.swaps);
        assert!(hierarchical.simulated_seconds > uniform.simulated_seconds);
        // ...and functional equivalence is unaffected by topology.
        let small = fuse(&generate_rqc(&RqcOptions::for_qubits(8, 4, 2)), 2);
        let (a, _) = MultiGcdBackend::new(Flavor::Hip, 4)
            .run::<f64>(&small, &RunOptions::default())
            .expect("run");
        let (b, _) = MultiGcdBackend::with_topology(Flavor::Hip, 4, Topology::frontier_node())
            .run::<f64>(&small, &RunOptions::default())
            .expect("run");
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn capacity_grows_with_devices() {
        // 34 qubits single precision = 128 GiB: too big for one GCD once
        // you go to 35, but 2 devices halve the shard.
        let c = qsim_circuit::Circuit::new(35);
        let fused = fuse(&c, 2);
        assert!(MultiGcdBackend::new(Flavor::Hip, 1).estimate(&fused, Precision::Single).is_err());
        assert!(MultiGcdBackend::new(Flavor::Hip, 2).estimate(&fused, Precision::Single).is_ok());
    }

    #[test]
    fn too_wide_gate_for_shard_is_rejected() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(6, 4, 1));
        let fused = fuse(&circuit, 4);
        // 16 devices leave only 2 local qubits; a 4-qubit fused gate
        // cannot be localized.
        let dist = MultiGcdBackend::new(Flavor::Hip, 16);
        assert!(matches!(
            dist.estimate(&fused, Precision::Single),
            Err(BackendError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn more_devices_fewer_seconds_at_scale() {
        // Strong scaling on the paper's 30-qubit RQC: 2 GCDs beat 1
        // despite the interconnect traffic.
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        let fused = fuse(&circuit, 4);
        let t1 = MultiGcdBackend::new(Flavor::Hip, 1)
            .estimate(&fused, Precision::Single)
            .expect("estimate")
            .simulated_seconds;
        let t2 = MultiGcdBackend::new(Flavor::Hip, 2)
            .estimate(&fused, Precision::Single)
            .expect("estimate")
            .simulated_seconds;
        assert!(t2 < t1, "2 GCDs {t2} should beat 1 GCD {t1}");
        // ...but far from perfectly (swap traffic): parallel efficiency
        // below 100 %.
        assert!(t2 > t1 / 2.0, "scaling cannot be super-linear: {t2} vs {t1}");
    }

    #[test]
    fn lookahead_moves_fewer_bytes_than_eager() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 16, 11));
        let fused = fuse(&circuit, 3);
        let eager = MultiGcdBackend::new(Flavor::Hip, 8)
            .with_options(DistOptions::naive())
            .estimate(&fused, Precision::Single)
            .expect("eager");
        let ahead = MultiGcdBackend::new(Flavor::Hip, 8)
            .with_options(DistOptions { policy: SwapPolicy::Lookahead, ..DistOptions::naive() })
            .estimate(&fused, Precision::Single)
            .expect("lookahead");
        assert!(
            ahead.exchanged_bytes_per_device <= eager.exchanged_bytes_per_device,
            "lookahead {} vs eager {}",
            ahead.exchanged_bytes_per_device,
            eager.exchanged_bytes_per_device
        );
        assert!(ahead.swaps <= eager.swaps);
        // Functional equivalence under both policies.
        let small = fuse(&generate_rqc(&RqcOptions::for_qubits(9, 6, 4)), 2);
        let reference = single_device_state(&small);
        for policy in [SwapPolicy::Eager, SwapPolicy::Lookahead] {
            let dist = MultiGcdBackend::new(Flavor::Hip, 4)
                .with_options(DistOptions { policy, ..DistOptions::default() });
            let (state, _) = dist.run::<f64>(&small, &RunOptions::default()).expect("run");
            assert!(reference.max_abs_diff(&state) < 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn overlap_hides_link_time() {
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        let fused = fuse(&circuit, 4);
        let serialized = MultiGcdBackend::new(Flavor::Hip, 4)
            .with_options(DistOptions { overlap: false, ..DistOptions::default() })
            .estimate(&fused, Precision::Single)
            .expect("serialized");
        let overlapped = MultiGcdBackend::new(Flavor::Hip, 4)
            .with_options(DistOptions { overlap: true, ..DistOptions::default() })
            .estimate(&fused, Precision::Single)
            .expect("overlapped");
        // Same schedule, same bytes — only the timeline interleaving
        // differs, and pipelining must win.
        assert_eq!(serialized.swaps, overlapped.swaps);
        assert_eq!(serialized.exchanged_bytes_per_device, overlapped.exchanged_bytes_per_device);
        assert!(
            overlapped.simulated_seconds < serialized.simulated_seconds,
            "overlap {} vs serialized {}",
            overlapped.simulated_seconds,
            serialized.simulated_seconds
        );
    }

    #[test]
    fn run_plan_reports_through_run_report() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 6, 2));
        let dist = MultiGcdBackend::new(Flavor::Hip, 4);
        let plan = dist.plan_circuit(&circuit, &PlanOptions::default(), Precision::Single);
        let (state, report) =
            dist.run_plan::<f32>(&plan, &RunOptions { seed: 1, sample_count: 64 }).expect("run");
        assert_eq!(state.num_qubits(), 9);
        assert_eq!(report.samples.len(), 64);
        assert!(report.device.starts_with("4x "));
        assert!(report.simulated_seconds > 0.0);
        assert!(report.launches_matching(EXCHANGE_KERNEL) > 0);
        let est = dist.estimate_plan(&plan, Precision::Single).expect("estimate");
        assert_eq!(est.fused_gates, report.fused_gates);
        assert_eq!(est.fusion_strategy, report.fusion_strategy);
    }

    #[test]
    fn sampling_matches_single_device_distribution() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 8, 6));
        let fused = fuse(&circuit, 4);
        let dist = MultiGcdBackend::new(Flavor::Hip, 4);
        let opts = RunOptions { seed: 5, sample_count: 20_000 };
        let (state, report) = dist.run::<f32>(&fused, &opts).expect("run");
        assert_eq!(report.samples.len(), 20_000);
        let xeb = qsim_core::statespace::linear_xeb(&state, &report.samples);
        assert!((0.8..=1.2).contains(&xeb), "sharded sample XEB {xeb}");
    }

    /// A hand-built 6-qubit plan of one fused gate.
    fn one_gate_plan(qubits: Vec<usize>, matrix: GateMatrix<f64>) -> FusedCircuit {
        use qsim_fusion::FusedGate;
        let gate = FusedGate { qubits, matrix, source_gates: 1, time_range: (0, 0) };
        FusedCircuit { num_qubits: 6, ops: vec![FusedOp::Unitary(gate)], max_fused_qubits: 2 }
    }

    /// The pre-run gate stands in front of the shard walk as it does in
    /// front of the single-device one: a non-unitary plan does not run to
    /// a state of norm² 4, and malformed ones are rejected, not panicked
    /// on in the kernels.
    #[test]
    fn sharded_runs_go_through_the_pre_run_gate() {
        let mut non_unitary = GateMatrix::<f64>::identity(2);
        non_unitary.set(0, 0, Cplx::new(2.0, 0.0));
        for (code, fused) in [
            ("QP0205", one_gate_plan(vec![0], non_unitary)),
            ("QP0202", one_gate_plan(vec![0, 1], GateMatrix::identity(2))),
            ("QP0201", one_gate_plan(vec![1, 1], GateMatrix::identity(4))),
        ] {
            let rejected = |result: Result<DistReport, BackendError>| match result {
                Err(BackendError::AnalysisRejected(diags)) => diags.iter().any(|d| d.code == code),
                _ => false,
            };
            let dist = MultiGcdBackend::new(Flavor::Hip, 2);
            let run = dist.run::<f64>(&fused, &RunOptions::default()).map(|(_, report)| report);
            assert!(rejected(run), "{code}: run");
            assert!(rejected(dist.estimate(&fused, Precision::Double)), "{code}: estimate");
        }
    }

    #[test]
    fn sharded_reports_carry_the_plans_warnings() {
        // H·H fuses to the identity: warning QP0214, not a rejection.
        let mut c = qsim_circuit::Circuit::new(6);
        c.push(qsim_circuit::gates::GateKind::H, &[0]);
        c.push(qsim_circuit::gates::GateKind::H, &[0]);
        let (opts, run) = (PlanOptions::default(), RunOptions::default());
        let single = SimBackend::new(Flavor::Hip);
        let plan = single.plan_circuit(&c, &opts, Precision::Double);
        let warnings = single.run_plan::<f64>(&plan, &run).expect("run").1.analysis_warnings;
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("QP0214"));

        let dist = MultiGcdBackend::new(Flavor::Hip, 2);
        let plan = dist.plan_circuit(&c, &opts, Precision::Double);
        assert_eq!(dist.run_plan::<f64>(&plan, &run).expect("run").1.analysis_warnings, warnings);
        let est = dist.estimate_plan(&plan, Precision::Double).expect("estimate");
        assert_eq!(est.analysis_warnings, warnings);
        assert_eq!(dist.run::<f64>(&plan.fused, &run).expect("run").1.analysis_warnings, warnings);
    }
}
