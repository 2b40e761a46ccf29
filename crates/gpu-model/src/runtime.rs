//! The simulated GPU runtime handle — the Rust analogue of the HIP/CUDA
//! runtime API surface qsim's backends program against (`hipMalloc`,
//! `hipMemcpyAsync`, kernel launch, streams, `hipDeviceSynchronize`).
//!
//! Kernels execute *functionally* on the host: `launch` takes a closure
//! that performs the real computation (typically fanning out over rayon),
//! while the virtual timeline is charged the duration the [`crate::perf`]
//! model predicts for the declared work and launch geometry on the
//! modeled device.

use std::sync::{Arc, Mutex};

use crate::error::GpuError;
use crate::memory::{lock, DeviceBuffer, MemoryPool};
use crate::perf::{kernel_time, memcpy_time, LaunchProfile};
use crate::specs::DeviceSpec;
pub use crate::timeline::StreamId;
use crate::timeline::Timeline;
use crate::trace::{SpanKind, TraceSink, TraceSpan};

/// Memory traffic and arithmetic of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelWork {
    /// Bytes read from + written to device memory.
    pub bytes: f64,
    /// Floating-point operations.
    pub flops: f64,
    /// Full passes over the state vector this launch begins (informational
    /// accounting for cache-blocked sweeps; does not affect modeled time).
    /// 1.0 for an ordinary gate kernel; 0.0 for a launch folded into an
    /// already-open sweep pass.
    pub passes: f64,
}

/// Declaration of a kernel launch: symbol, geometry, and work.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel symbol as it should appear in traces
    /// (e.g. `"ApplyGateL_Kernel"`).
    pub name: String,
    /// Grid size in blocks.
    pub blocks: u64,
    /// Threads per block ("threads per workgroup" in HIP terms).
    pub threads_per_block: u32,
    /// Static shared memory (LDS) per block, bytes.
    pub shared_mem_bytes: u32,
    /// Declared work for the performance model.
    pub work: KernelWork,
    /// Whether the kernel computes in double precision.
    pub double_precision: bool,
}

/// A simulated GPU (or CPU modeled through the same interface).
///
/// Cheap to share: clone the `Arc` you wrap it in, or pass `&Gpu`; all
/// interior state is synchronized.
pub struct Gpu {
    spec: DeviceSpec,
    timeline: Mutex<Timeline>,
    pool: Arc<Mutex<MemoryPool>>,
    sink: Option<Arc<dyn TraceSink>>,
    state_passes: Mutex<f64>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu").field("spec", &self.spec.name).finish()
    }
}

impl Gpu {
    /// Bring up a device.
    pub fn new(spec: DeviceSpec) -> Self {
        let capacity = spec.memory_bytes;
        Gpu {
            spec,
            timeline: Mutex::new(Timeline::new()),
            pool: Arc::new(Mutex::new(MemoryPool::new(capacity))),
            sink: None,
            state_passes: Mutex::new(0.0),
        }
    }

    /// Bring up a device with a trace sink attached (rocprof-style
    /// profiling enabled).
    pub fn with_trace(spec: DeviceSpec, sink: Arc<dyn TraceSink>) -> Self {
        let mut gpu = Self::new(spec);
        gpu.sink = Some(sink);
        gpu
    }

    /// The device's specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Create a new stream (`hipStreamCreate`).
    pub fn create_stream(&self) -> StreamId {
        lock(&self.timeline).create_stream()
    }

    /// Allocate a zero-initialised buffer of `len` elements
    /// (`hipMalloc`). Fails with [`GpuError::OutOfMemory`] when the
    /// modeled capacity is exhausted.
    pub fn malloc<T: Default + Clone>(&self, len: usize) -> Result<DeviceBuffer<T>, GpuError> {
        DeviceBuffer::new(len, self.pool.clone())
    }

    fn emit(&self, name: &str, kind: SpanKind, stream: StreamId, start: f64, end: f64) {
        if let Some(sink) = &self.sink {
            sink.record(TraceSpan {
                name: name.to_string(),
                kind,
                stream: stream.index(),
                start_us: start,
                dur_us: end - start,
                device: self.spec.name.clone(),
            });
        }
    }

    /// Charge an externally-modeled activity (e.g. a device-to-device
    /// interconnect exchange whose cost comes from a link model) to the
    /// timeline, with an explicit duration.
    pub fn charge_custom(
        &self,
        name: &str,
        kind: SpanKind,
        stream: StreamId,
        dur_us: f64,
    ) -> Result<(f64, f64), GpuError> {
        let (start, end) = lock(&self.timeline).schedule(stream, dur_us)?;
        self.emit(name, kind, stream, start, end);
        Ok((start, end))
    }

    /// Charge a host↔device copy of `bytes` to the timeline without
    /// moving any data — the accounting path shared by the real copies
    /// and by dry-run (`estimate`) executions.
    pub fn charge_memcpy(
        &self,
        kind: SpanKind,
        bytes: u64,
        stream: StreamId,
    ) -> Result<(f64, f64), GpuError> {
        let dur_us = memcpy_time(&self.spec, bytes) * 1e6;
        let (start, end) = lock(&self.timeline).schedule(stream, dur_us)?;
        self.emit(kind.label(), kind, stream, start, end);
        Ok((start, end))
    }

    /// Charge a kernel launch to the timeline without running a body —
    /// the dry-run counterpart of [`Gpu::launch`]. Geometry validation is
    /// identical.
    pub fn charge_launch(
        &self,
        desc: &KernelDesc,
        stream: StreamId,
    ) -> Result<(f64, f64), GpuError> {
        let (s, e, _) = self.launch_inner(desc, stream, None::<fn()>)?;
        Ok((s, e))
    }

    /// Asynchronous host→device copy (`hipMemcpyAsync`).
    pub fn memcpy_h2d_async<T: Copy>(
        &self,
        dst: &mut DeviceBuffer<T>,
        src: &[T],
        stream: StreamId,
    ) -> Result<(), GpuError> {
        if dst.len() != src.len() {
            return Err(GpuError::InvalidValue(format!(
                "memcpy H2D size mismatch: dst {} elements, src {}",
                dst.len(),
                src.len()
            )));
        }
        let bytes = dst.bytes();
        dst.as_mut_slice().copy_from_slice(src);
        self.charge_memcpy(SpanKind::MemcpyH2D, bytes, stream)?;
        Ok(())
    }

    /// Launch a kernel: validates geometry against the device, charges the
    /// modeled duration to `stream`, runs `body` (the functional
    /// computation) on the host, and emits a trace span.
    ///
    /// Returns the simulated `(start, end)` timestamps in µs.
    pub fn launch<R>(
        &self,
        desc: &KernelDesc,
        stream: StreamId,
        body: impl FnOnce() -> R,
    ) -> Result<(f64, f64, R), GpuError> {
        let (s, e, r) = self.launch_inner(desc, stream, Some(body))?;
        Ok((s, e, r.expect("body was provided")))
    }

    fn launch_inner<R>(
        &self,
        desc: &KernelDesc,
        stream: StreamId,
        body: Option<impl FnOnce() -> R>,
    ) -> Result<(f64, f64, Option<R>), GpuError> {
        if desc.blocks == 0 {
            return Err(GpuError::InvalidLaunch("grid must have at least one block".into()));
        }
        if desc.threads_per_block == 0 {
            return Err(GpuError::InvalidLaunch("block must have at least one thread".into()));
        }
        if desc.threads_per_block > self.spec.max_threads_per_block {
            return Err(GpuError::InvalidLaunch(format!(
                "block of {} threads exceeds device maximum {}",
                desc.threads_per_block, self.spec.max_threads_per_block
            )));
        }
        if desc.shared_mem_bytes > self.spec.shared_mem_per_block {
            return Err(GpuError::InvalidLaunch(format!(
                "{} B of shared memory exceeds the {} B per-block limit",
                desc.shared_mem_bytes, self.spec.shared_mem_per_block
            )));
        }
        let profile = LaunchProfile {
            bytes: desc.work.bytes,
            flops: desc.work.flops,
            blocks: desc.blocks,
            threads_per_block: desc.threads_per_block,
            double_precision: desc.double_precision,
        };
        let dur_us = kernel_time(&self.spec, &profile) * 1e6;
        let (start, end) = lock(&self.timeline).schedule(stream, dur_us)?;
        *lock(&self.state_passes) += desc.work.passes;
        let result = body.map(|b| b());
        self.emit(&desc.name, SpanKind::Kernel, stream, start, end);
        Ok((start, end, result))
    }

    /// Accumulated full passes over the state vector, summed from the
    /// `passes` field of every launched kernel's [`KernelWork`]. With
    /// per-gate execution this equals the number of gate kernels; a
    /// cache-blocked sweep reports fewer.
    pub fn state_passes(&self) -> f64 {
        *lock(&self.state_passes)
    }

    /// Make `waiter` wait for all work enqueued on `src` so far
    /// (`hipEventRecord` + `hipStreamWaitEvent`, keeping no event: see
    /// [`Timeline::stream_wait_stream`]).
    pub fn stream_wait_stream(&self, waiter: StreamId, src: StreamId) -> Result<(), GpuError> {
        lock(&self.timeline).stream_wait_stream(waiter, src)
    }

    /// Wait for one stream (`hipStreamSynchronize`); returns simulated µs.
    pub fn sync_stream(&self, stream: StreamId) -> Result<f64, GpuError> {
        lock(&self.timeline).sync_stream(stream)
    }

    /// Drain the device (`hipDeviceSynchronize`); returns simulated µs.
    pub fn synchronize(&self) -> f64 {
        lock(&self.timeline).synchronize()
    }

    /// Charge host-side work (e.g. the gate-fusion transpiler) to the
    /// simulated clock.
    pub fn advance_host_us(&self, us: f64) {
        lock(&self.timeline).advance_host(us);
    }

    /// `(allocated, peak, free)` device memory in bytes.
    pub fn memory_usage(&self) -> (u64, u64, u64) {
        let p = lock(&self.pool);
        (p.allocated(), p.peak(), p.free())
    }

    /// Restart peak-memory tracking from the current allocation level, so
    /// a long-lived device serving many runs can report a per-run peak.
    pub fn reset_peak_memory(&self) {
        lock(&self.pool).reset_peak();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gpu() -> Gpu {
        let mut spec = DeviceSpec::a100();
        spec.memory_bytes = 1 << 20; // 1 MiB for OOM tests
        Gpu::new(spec)
    }

    fn desc(name: &str, blocks: u64, tpb: u32) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            blocks,
            threads_per_block: tpb,
            shared_mem_bytes: 0,
            work: KernelWork { bytes: 1e6, flops: 1e6, passes: 1.0 },
            double_precision: false,
        }
    }

    #[test]
    fn malloc_and_oom() {
        let gpu = small_gpu();
        let buf = gpu.malloc::<f32>(1024).unwrap();
        assert_eq!(buf.len(), 1024);
        assert_eq!(gpu.memory_usage().0, 4096);
        assert!(matches!(gpu.malloc::<f32>(1 << 20), Err(GpuError::OutOfMemory { .. })));
    }

    #[test]
    fn kernel_launch_runs_body_and_advances_clock() {
        let gpu = small_gpu();
        let mut ran = false;
        let (start, end, ()) = gpu
            .launch(&desc("TestKernel", 1024, 64), StreamId::DEFAULT, || {
                ran = true;
            })
            .unwrap();
        assert!(ran);
        assert!(end > start);
        assert_eq!(gpu.synchronize(), end);
    }

    #[test]
    fn launch_returns_body_result() {
        let gpu = small_gpu();
        let (_, _, x) = gpu.launch(&desc("K", 1, 32), StreamId::DEFAULT, || 42).unwrap();
        assert_eq!(x, 42);
    }

    #[test]
    fn invalid_launch_geometry() {
        let gpu = small_gpu();
        assert!(gpu.launch(&desc("K", 0, 32), StreamId::DEFAULT, || ()).is_err());
        assert!(gpu.launch(&desc("K", 1, 0), StreamId::DEFAULT, || ()).is_err());
        assert!(gpu.launch(&desc("K", 1, 4096), StreamId::DEFAULT, || ()).is_err());
        let mut d = desc("K", 1, 32);
        d.shared_mem_bytes = 10 * 1024 * 1024;
        assert!(matches!(
            gpu.launch(&d, StreamId::DEFAULT, || ()),
            Err(GpuError::InvalidLaunch(_))
        ));
    }

    #[test]
    fn memcpy_h2d_copies_and_charges() {
        let gpu = small_gpu();
        let src = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut buf = gpu.malloc::<f32>(4).unwrap();
        gpu.memcpy_h2d_async(&mut buf, &src, StreamId::DEFAULT).unwrap();
        assert_eq!(src, buf.as_slice());
        assert!(gpu.synchronize() > 0.0);
    }

    #[test]
    fn memcpy_size_mismatch() {
        let gpu = small_gpu();
        let mut buf = gpu.malloc::<f32>(4).unwrap();
        assert!(gpu.memcpy_h2d_async(&mut buf, &[1.0f32; 3], StreamId::DEFAULT).is_err());
    }

    #[test]
    fn streams_overlap_kernels() {
        let gpu = small_gpu();
        let s2 = gpu.create_stream();
        let d = desc("K", 1 << 16, 64);
        let (a0, a1, ()) = gpu.launch(&d, StreamId::DEFAULT, || ()).unwrap();
        let (b0, b1, ()) = gpu.launch(&d, s2, || ()).unwrap();
        assert_eq!(a0, b0, "kernels on different streams overlap");
        assert_eq!(gpu.synchronize(), a1.max(b1));
    }

    #[test]
    fn trace_sink_receives_spans() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Counter(Mutex<Vec<String>>);
        impl TraceSink for Counter {
            fn record(&self, span: TraceSpan) {
                self.0.lock().unwrap().push(span.name);
            }
        }
        let sink = Arc::new(Counter::default());
        let mut spec = DeviceSpec::mi250x_gcd();
        spec.memory_bytes = 1 << 20;
        let gpu = Gpu::with_trace(spec, sink.clone());
        let mut buf = gpu.malloc::<f32>(4).unwrap();
        gpu.memcpy_h2d_async(&mut buf, &[0.0; 4], StreamId::DEFAULT).unwrap();
        gpu.launch(&desc("ApplyGateH_Kernel", 64, 64), StreamId::DEFAULT, || ()).unwrap();
        let names = sink.0.lock().unwrap().clone();
        assert_eq!(names.len(), 2);
        assert!(names[0].contains("H2D"));
        assert_eq!(names[1], "ApplyGateH_Kernel");
    }

    #[test]
    fn state_passes_accumulate_from_launches() {
        let gpu = small_gpu();
        assert_eq!(gpu.state_passes(), 0.0);
        gpu.launch(&desc("A", 64, 64), StreamId::DEFAULT, || ()).unwrap();
        gpu.charge_launch(&desc("B", 64, 64), StreamId::DEFAULT).unwrap();
        let mut folded = desc("C", 64, 64);
        folded.work.passes = 0.0; // joins an open sweep pass
        gpu.launch(&folded, StreamId::DEFAULT, || ()).unwrap();
        assert_eq!(gpu.state_passes(), 2.0);
    }

    #[test]
    fn streams_wait_on_streams() {
        let gpu = small_gpu();
        let s2 = gpu.create_stream();
        gpu.launch(&desc("A", 1 << 16, 64), StreamId::DEFAULT, || ()).unwrap();
        gpu.stream_wait_stream(s2, StreamId::DEFAULT).unwrap();
        let (b0, _, ()) = gpu.launch(&desc("B", 1, 64), s2, || ()).unwrap();
        let t_ev = gpu.sync_stream(StreamId::DEFAULT).unwrap();
        assert!(b0 >= t_ev);
    }
}
