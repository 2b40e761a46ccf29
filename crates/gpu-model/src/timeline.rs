//! Virtual device timeline: streams, events, and the simulated clock.
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

/// Handle to a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

/// The simulated clock.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Host-side enqueue cursor, µs. Work cannot start before the host
    /// has issued it.
    host_now_us: f64,
    /// Completion time of the last item per stream, µs.
    streams: Vec<f64>,
    /// Recorded event timestamps, µs.
    events: Vec<f64>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// Fresh timeline with only the default stream, at t = 0.
    pub fn new() -> Self {
        Timeline { host_now_us: 0.0, streams: vec![0.0], events: Vec::new() }
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

    /// Record an event capturing `stream`'s current completion time
    /// (`hipEventRecord`).
    pub fn record_event(&mut self, stream: StreamId) -> Result<EventId, GpuError> {
        self.check_stream(stream)?;
        self.events.push(self.streams[stream.0]);
        Ok(EventId(self.events.len() - 1))
    }

    /// Make `stream` wait for `event` (`hipStreamWaitEvent`).
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) -> Result<(), GpuError> {
        self.check_stream(stream)?;
        let t = *self
            .events
            .get(event.0)
            .ok_or_else(|| GpuError::InvalidHandle(format!("event {} does not exist", event.0)))?;
        if t > self.streams[stream.0] {
            self.streams[stream.0] = t;
        }
        Ok(())
    }

    /// Make `waiter` wait for everything enqueued on `src` so far: a
    /// `hipEventRecord` on `src` followed by `hipStreamWaitEvent` on
    /// `waiter`, without keeping the event. A long-lived device that
    /// orders its streams this way never grows its event table.
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
        let ev = tl.record_event(StreamId::DEFAULT).unwrap();
        tl.stream_wait_event(s, ev).unwrap();
        let (b0, _) = tl.schedule(s, 1.0).unwrap();
        assert_eq!(b0, 10.0); // waited for the event
    }

    #[test]
    fn stream_wait_stream_is_record_then_wait_without_the_event() {
        let busy = |tl: &mut Timeline| {
            let s = tl.create_stream();
            tl.schedule(StreamId::DEFAULT, 10.0).unwrap();
            tl.schedule(s, 4.0).unwrap();
            s
        };
        let (mut recorded, mut direct) = (Timeline::new(), Timeline::new());
        let (a, b) = (busy(&mut recorded), busy(&mut direct));
        let ev = recorded.record_event(StreamId::DEFAULT).unwrap();
        recorded.stream_wait_event(a, ev).unwrap();
        direct.stream_wait_stream(b, StreamId::DEFAULT).unwrap();
        assert_eq!(recorded.schedule(a, 1.0).unwrap(), (10.0, 11.0));
        assert_eq!(direct.schedule(b, 1.0).unwrap(), (10.0, 11.0));
        // Waiting on a stream that finished earlier moves nothing.
        direct.stream_wait_stream(StreamId::DEFAULT, b).unwrap();
        assert_eq!(direct.schedule(StreamId::DEFAULT, 1.0).unwrap(), (11.0, 12.0));
        assert_eq!((recorded.events.len(), direct.events.len()), (1, 0));
        assert!(direct.stream_wait_stream(StreamId(9), b).is_err());
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
    fn invalid_handles_rejected() {
        let mut tl = Timeline::new();
        assert!(tl.schedule(StreamId(9), 1.0).is_err());
        assert!(tl.record_event(StreamId(9)).is_err());
        let ev = tl.record_event(StreamId::DEFAULT).unwrap();
        assert!(tl.stream_wait_event(StreamId(9), ev).is_err());
    }
}
