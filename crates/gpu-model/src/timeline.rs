//! Virtual device timeline: streams, stream waits, and the simulated
//! clock.
//!
//! Work items (kernels, async copies) enqueue onto *streams*; items in one
//! stream serialize, items in different streams overlap — which is how the
//! `hipMemcpyAsync` compute/copy overlap of the paper's Figures 1 & 6
//! arises. All times are **microseconds** of simulated device time (the
//! unit Perfetto traces use).

use crate::error::GpuError;

/// Handle to a stream (stream 0 is the default stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The default stream.
    pub const DEFAULT: StreamId = StreamId(0);

    /// Raw index (for trace labeling).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The simulated clock.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Host-side enqueue cursor, µs. Work cannot start before the host
    /// has issued it.
    host_now_us: f64,
    /// Completion time of the last item per stream, µs.
    streams: Vec<f64>,
    /// Where the clock's origin lies on the device's whole timeline, µs:
    /// the sum of the spans [`Timeline::rebase`] cut off.
    base_us: f64,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// Fresh timeline with only the default stream, at t = 0.
    pub fn new() -> Self {
        Timeline { host_now_us: 0.0, streams: vec![0.0], base_us: 0.0 }
    }

    /// Create an additional stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(self.host_now_us);
        StreamId(self.streams.len() - 1)
    }

    fn check_stream(&self, s: StreamId) -> Result<(), GpuError> {
        if s.0 < self.streams.len() {
            Ok(())
        } else {
            Err(GpuError::InvalidHandle(format!("stream {} does not exist", s.0)))
        }
    }

    /// Enqueue an item of `duration_us` on `stream`; returns its
    /// `(start, end)` timestamps. The item starts when the stream is free
    /// and the host has issued it.
    pub fn schedule(&mut self, stream: StreamId, duration_us: f64) -> Result<(f64, f64), GpuError> {
        self.check_stream(stream)?;
        assert!(duration_us >= 0.0, "durations are non-negative");
        let start = self.streams[stream.0].max(self.host_now_us);
        let end = start + duration_us;
        self.streams[stream.0] = end;
        Ok((start, end))
    }

    /// Make `waiter` wait for everything enqueued on `src` so far: a
    /// `hipEventRecord` on `src` followed by `hipStreamWaitEvent` on
    /// `waiter`, without keeping the event.
    pub fn stream_wait_stream(&mut self, waiter: StreamId, src: StreamId) -> Result<(), GpuError> {
        self.check_stream(waiter)?;
        self.check_stream(src)?;
        let t = self.streams[src.0];
        if t > self.streams[waiter.0] {
            self.streams[waiter.0] = t;
        }
        Ok(())
    }

    /// Block the host until `stream` drains (`hipStreamSynchronize`).
    pub fn sync_stream(&mut self, stream: StreamId) -> Result<f64, GpuError> {
        self.check_stream(stream)?;
        if self.streams[stream.0] > self.host_now_us {
            self.host_now_us = self.streams[stream.0];
        }
        Ok(self.host_now_us)
    }

    /// Block the host until the whole device drains
    /// (`hipDeviceSynchronize`); returns the simulated time, µs.
    pub fn synchronize(&mut self) -> f64 {
        let max = self.streams.iter().copied().fold(self.host_now_us, f64::max);
        self.host_now_us = max;
        max
    }

    /// Advance the host cursor by `us` of host-side work (e.g. gate
    /// fusion running on the CPU between launches).
    pub fn advance_host(&mut self, us: f64) {
        assert!(us >= 0.0);
        self.host_now_us += us;
    }

    /// Drain the device and move the origin there: every stream and the
    /// host cursor read 0 again, so what is timed next does not depend on
    /// how long the device ran before. [`Timeline::base_us`] keeps the
    /// origin's place on the whole timeline.
    pub fn rebase(&mut self) {
        self.base_us += self.synchronize();
        self.host_now_us = 0.0;
        self.streams.fill(0.0);
    }

    /// The origin's place on the device's whole timeline, µs: add it to a
    /// time this clock reports for the absolute one.
    pub fn base_us(&self) -> f64 {
        self.base_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_serializes() {
        let mut tl = Timeline::new();
        let (s1, e1) = tl.schedule(StreamId::DEFAULT, 10.0).unwrap();
        let (s2, e2) = tl.schedule(StreamId::DEFAULT, 5.0).unwrap();
        assert_eq!((s1, e1), (0.0, 10.0));
        assert_eq!((s2, e2), (10.0, 15.0));
        assert_eq!(tl.synchronize(), 15.0);
    }

    #[test]
    fn different_streams_overlap() {
        let mut tl = Timeline::new();
        let s = tl.create_stream();
        let (a0, a1) = tl.schedule(StreamId::DEFAULT, 10.0).unwrap();
        let (b0, b1) = tl.schedule(s, 8.0).unwrap();
        assert_eq!((a0, a1), (0.0, 10.0));
        assert_eq!((b0, b1), (0.0, 8.0)); // overlapped
        assert_eq!(tl.synchronize(), 10.0);
    }

    #[test]
    fn events_order_streams() {
        let mut tl = Timeline::new();
        let s = tl.create_stream();
        tl.schedule(StreamId::DEFAULT, 10.0).unwrap();
        tl.schedule(s, 4.0).unwrap();
        tl.stream_wait_stream(s, StreamId::DEFAULT).unwrap();
        assert_eq!(tl.schedule(s, 1.0).unwrap(), (10.0, 11.0)); // waited for the default stream
                                                                // Waiting on a stream that finished earlier moves nothing.
        tl.stream_wait_stream(StreamId::DEFAULT, s).unwrap();
        assert_eq!(tl.schedule(StreamId::DEFAULT, 1.0).unwrap(), (11.0, 12.0));
        assert!(tl.stream_wait_stream(StreamId(9), s).is_err());
    }

    #[test]
    fn host_cursor_gates_new_work() {
        let mut tl = Timeline::new();
        tl.schedule(StreamId::DEFAULT, 10.0).unwrap();
        tl.synchronize();
        tl.advance_host(5.0); // host does 5 µs of work
        let (s0, _) = tl.schedule(StreamId::DEFAULT, 1.0).unwrap();
        assert_eq!(s0, 15.0);
    }

    #[test]
    fn sync_stream_only_waits_for_that_stream() {
        let mut tl = Timeline::new();
        let s = tl.create_stream();
        tl.schedule(StreamId::DEFAULT, 100.0).unwrap();
        tl.schedule(s, 10.0).unwrap();
        assert_eq!(tl.sync_stream(s).unwrap(), 10.0);
        assert_eq!(tl.synchronize(), 100.0);
    }

    #[test]
    fn rebase_restarts_every_clock_at_an_idle_origin() {
        let mut tl = Timeline::new();
        let s = tl.create_stream();
        tl.schedule(StreamId::DEFAULT, 10.0).unwrap();
        tl.schedule(s, 25.0).unwrap();
        tl.advance_host(3.0);
        tl.rebase();
        assert_eq!(tl.base_us(), 25.0);
        assert_eq!(tl.schedule(s, 1.0).unwrap(), (0.0, 1.0));
        assert_eq!(tl.schedule(StreamId::DEFAULT, 2.0).unwrap(), (0.0, 2.0));
        tl.rebase();
        assert_eq!((tl.base_us(), tl.synchronize()), (27.0, 0.0));
    }

    #[test]
    fn invalid_handles_rejected() {
        let mut tl = Timeline::new();
        assert!(tl.schedule(StreamId(9), 1.0).is_err());
        assert!(tl.sync_stream(StreamId(9)).is_err());
        assert!(tl.stream_wait_stream(StreamId::DEFAULT, StreamId(9)).is_err());
    }
}
