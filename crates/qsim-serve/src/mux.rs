//! The multiplexed TCP front end: many connections per I/O thread.
//!
//! A thread per connection is simple and fine up to a few hundred
//! clients, but a thousand mostly-idle connections cost a thousand
//! parked threads (stacks, scheduler load, one context switch per
//! request). [`MuxServer`] instead runs a **fixed pool of I/O
//! threads**, each owning a set of nonblocking connections it services
//! in a readiness loop:
//!
//! - the accept loop hands fresh connections to I/O threads round-robin
//!   over an `mpsc` channel and pokes the receiving thread's waker;
//! - each thread blocks in `poll(2)` over its sockets and its waker, with
//!   no timeout (only the drain grace bounds it while stopping), so the
//!   threads of an idle server do not wake at all;
//! - it ticks the connections `poll` reports and, after a wake, those
//!   with open sample streams. A tick reads what is available,
//!   dispatches every complete request line through
//!   [`crate::protocol::handle_line`], polls its streams and flushes
//!   once, so a job born `Done` (a result-cache hit) goes out as
//!   acknowledgement plus frames in one write;
//! - the finish sequence pokes every thread's waker once per call, so a
//!   streamed job's frames leave as soon as the job is terminal.
//!
//! **Backpressure** is per connection and byte-denominated: once a
//! connection's pending write buffer crosses [`WRITE_WATERMARK`], the
//! thread stops reading new requests from it (and stops appending
//! stream frames) until the client drains its socket. A client that
//! never reads cannot balloon server memory past the watermark plus one
//! response, and a line longer than [`MAX_LINE_BYTES`] kills the
//! connection instead of buffering without bound.
//!
//! **Streaming**: a `submit` with `"stream": true` and a nonzero
//! `sample_count` is acknowledged normally; when the job later reaches
//! a terminal state, its sampled bitstrings are pushed as
//! `{"event":"samples","id":…,"seq":…,"samples":[…],"last":…}` frames
//! in chunks of [`STREAM_CHUNK`], so the client neither polls `result`
//! nor parses one giant line. Frames may interleave with responses to
//! other requests on the same connection; `id` disambiguates.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::job::JobId;
use crate::protocol::handle_line;
use crate::service::{ResultError, Service};

/// I/O threads when the embedder does not choose: enough that one slow
/// `handle_line` (a submit that plans a large circuit) does not stall
/// every connection, few enough to stay cheap next to the worker pool.
pub const DEFAULT_IO_THREADS: usize = 4;

/// Pending-write bytes past which a connection stops being read from
/// (and stops accruing stream frames) until the client drains.
pub const WRITE_WATERMARK: usize = 64 * 1024;

/// Hard cap on one request line; a connection that exceeds it without a
/// newline is protocol-broken and is dropped.
pub const MAX_LINE_BYTES: usize = 1024 * 1024;

/// Samples per streamed `samples` frame.
pub const STREAM_CHUNK: usize = 512;

/// Grace period after shutdown for flushing pending responses to slow
/// clients before connections are dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const POLLNVAL: c_short = 0x20;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
}

/// The mux's health counters: the `io` section of the `metrics` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Returns from `poll(2)`, over every I/O thread.
    pub polls: u64,
    /// Waker pokes the I/O threads consumed.
    pub wakes: u64,
    /// Connections left out of `POLLIN` at the [`WRITE_WATERMARK`], once
    /// per `poll`.
    pub watermark_stalls: u64,
    /// Connections dropped for a line over [`MAX_LINE_BYTES`].
    pub line_cap_drops: u64,
}

/// The live counters behind [`IoStats`], owned by the service.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    polls: AtomicU64,
    wakes: AtomicU64,
    watermark_stalls: AtomicU64,
    line_cap_drops: AtomicU64,
}

impl IoCounters {
    pub(crate) fn snapshot(&self) -> IoStats {
        IoStats {
            polls: self.polls.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            watermark_stalls: self.watermark_stalls.load(Ordering::Relaxed),
            line_cap_drops: self.line_cap_drops.load(Ordering::Relaxed),
        }
    }
}

/// The write end of one I/O thread's wake socket. A poke is one byte;
/// the thread drains them all after `poll` returns and *before* it looks
/// at its streams, so a poke that lands after the look is still pending
/// at the next `poll` and no finish is ever slept through.
#[derive(Debug)]
pub(crate) struct Waker(UnixStream);

impl Waker {
    pub(crate) fn wake(&self) {
        // A full socket buffer (`WouldBlock`) already polls readable.
        let _ = (&self.0).write(&[1]);
    }
}

/// Remote stop control for a running [`MuxServer::serve`] loop.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl ShutdownHandle {
    /// Stop the accept loop. Safe to call more than once.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `incoming()`; poke it awake with a
        // throwaway connection so it observes the flag.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A listening multiplexed endpoint bound to a local address.
#[derive(Debug)]
pub struct MuxServer {
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    io_threads: usize,
}

impl MuxServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) over `service`,
    /// with `io_threads` connection-servicing threads (clamped to ≥ 1).
    pub fn bind(
        addr: &str,
        service: Arc<Service>,
        io_threads: usize,
    ) -> std::io::Result<MuxServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(MuxServer {
            listener,
            service,
            stop: Arc::new(AtomicBool::new(false)),
            io_threads: io_threads.max(1),
        })
    }

    /// The bound address — report this to clients when using port 0.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes the accept loop exit from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { stop: self.stop.clone(), addr: self.listener.local_addr().ok() }
    }

    /// Accept connections until a `shutdown` verb (or
    /// [`ShutdownHandle::shutdown`]) stops the loop, then drain: I/O
    /// threads flush what they can within a grace period, the service
    /// finishes queued jobs, new submissions are refused. A service is
    /// served once: its finish sequence wakes this server's threads.
    pub fn serve(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut wake_ends = Vec::with_capacity(self.io_threads);
        let mut wakers = Vec::with_capacity(self.io_threads);
        for _ in 0..self.io_threads {
            let (read_end, write_end) = UnixStream::pair()?;
            read_end.set_nonblocking(true)?;
            write_end.set_nonblocking(true)?;
            wake_ends.push(read_end);
            wakers.push(Waker(write_end));
        }
        let wakers = self.service.register_wakers(wakers)?;
        let stop_io = |senders: Vec<Sender<TcpStream>>| {
            // Dropping the senders is the I/O threads' stop signal: they
            // exit once their channel is dead and their connections drain.
            drop(senders);
            wakers.iter().for_each(Waker::wake);
        };
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(self.io_threads);
        let mut threads = Vec::with_capacity(self.io_threads);
        for (i, wake) in wake_ends.into_iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            senders.push(tx);
            let service = self.service.clone();
            let stop = self.stop.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("qsim-serve-io-{i}"))
                .spawn(move || io_loop(&service, &stop, &rx, &wake, addr));
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    stop_io(senders);
                    return Err(e);
                }
            }
        }
        let mut next = 0usize;
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Round-robin dispatch. Send can only fail if the thread
            // panicked; the remaining threads keep serving.
            let to = next % senders.len();
            if senders[to].send(stream).is_ok() {
                wakers[to].wake();
            }
            next = next.wrapping_add(1);
        }
        stop_io(senders);
        for t in threads {
            let _ = t.join();
        }
        self.service.shutdown();
        Ok(())
    }
}

/// One I/O thread: adopt incoming connections, tick the ones `poll`
/// reported (and, after a wake, the ones with open streams), block in
/// `poll` until a socket or the waker is ready.
fn io_loop(
    service: &Service,
    stop: &AtomicBool,
    incoming: &Receiver<TcpStream>,
    wake: &UnixStream,
    listen_addr: SocketAddr,
) {
    let io = service.io_counters();
    let mut conns: Vec<Conn> = Vec::new();
    // `fds[0]` is the waker; `fds[1 + i]` is `conns[i]` as the last
    // `poll` saw it. A connection adopted since has no entry yet: `poll`
    // is level-triggered, so the next one reports whatever it holds.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut woken = false;
    let mut accept_closed = false;
    let mut stopping_since: Option<Instant> = None;
    loop {
        loop {
            match incoming.try_recv() {
                Ok(stream) => conns.extend(Conn::adopt(stream)),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    accept_closed = true;
                    break;
                }
            }
        }
        let stopping = stop.load(Ordering::Acquire);
        if stopping && stopping_since.is_none() {
            stopping_since = Some(Instant::now());
        }
        // While stopping, every connection is ticked: the idle ones are
        // dropped at once instead of waiting out the grace.
        let mut i = 0;
        conns.retain_mut(|conn| {
            let revents = fds.get(1 + i).map_or(0, |fd| fd.revents);
            i += 1;
            if !(stopping || revents != 0 || (woken && !conn.streams.is_empty())) {
                return true;
            }
            // A hung-up or failed socket cannot take a response; it got
            // its last tick (any request it held still ran).
            conn.tick(service, stop, listen_addr, stopping, io)
                && revents & (POLLERR | POLLHUP | POLLNVAL) == 0
        });
        // Shutdown: flush within the grace window, then cut the rest
        // loose — a client that stopped reading must not wedge the
        // server's exit.
        if let Some(since) = stopping_since {
            if conns.is_empty() || since.elapsed() > DRAIN_GRACE {
                return;
            }
        }
        if accept_closed && conns.is_empty() {
            return;
        }

        fds.clear();
        fds.push(PollFd { fd: wake.as_raw_fd(), events: POLLIN, revents: 0 });
        fds.extend(conns.iter().map(|conn| PollFd {
            fd: conn.stream.as_raw_fd(),
            events: conn.interest(stopping, io),
            revents: 0,
        }));
        let timeout_ms = stopping_since.map_or(-1, |since| {
            let left = DRAIN_GRACE.saturating_sub(since.elapsed()).as_millis();
            c_int::try_from(left + 1).unwrap_or(c_int::MAX)
        });
        // SAFETY: `fds` holds `fds.len()` initialised `pollfd`s, borrowed
        // uniquely for the call, and every descriptor in it is open (the
        // waker and the connections outlive the call).
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        io.polls.fetch_add(1, Ordering::Relaxed);
        if ready < 0 {
            // EINTR: nothing is known to be ready; look again.
            fds.iter_mut().for_each(|fd| fd.revents = 0);
        }
        woken = fds[0].revents != 0;
        if woken {
            io.wakes.fetch_add(drain_pokes(wake), Ordering::Relaxed);
        }
    }
}

/// Consume every pending poke; returns how many there were.
fn drain_pokes(mut wake: &UnixStream) -> u64 {
    let mut buf = [0u8; 64];
    let mut pokes = 0u64;
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return pokes,
            Ok(n) => pokes += n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return pokes,
        }
    }
}

/// Request bytes not yet dispatched, and how far they have been searched
/// for a newline. Each byte is examined once however it trickles in, and
/// the lines a tick dispatches leave the buffer in one drain.
#[derive(Debug, Default)]
struct LineBuf {
    bytes: Vec<u8>,
    /// Start of the next line.
    consumed: usize,
    /// Bytes before this hold no newline past `consumed`.
    scanned: usize,
}

thread_local! {
    /// Bytes [`LineBuf::next_line`] examined on this thread, counted in
    /// test builds only.
    static EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl LineBuf {
    /// The next complete line (its range in `bytes`, newline excluded).
    fn next_line(&mut self) -> Option<std::ops::Range<usize>> {
        let rest = &self.bytes[self.scanned..];
        let found = rest.iter().position(|&b| b == b'\n');
        if cfg!(test) {
            EXAMINED.with(|n| n.set(n.get() + found.map_or(rest.len(), |pos| pos + 1)));
        }
        match found {
            Some(pos) => {
                let line = self.consumed..self.scanned + pos;
                self.scanned += pos + 1;
                self.consumed = self.scanned;
                Some(line)
            }
            None => {
                self.scanned = self.bytes.len();
                None
            }
        }
    }

    /// Drop the lines handed out, moving the remainder once.
    fn compact(&mut self) {
        self.bytes.drain(..self.consumed);
        self.scanned -= self.consumed;
        self.consumed = 0;
    }
}

/// One multiplexed connection: a nonblocking socket plus its read
/// buffer, pending-write bytes and streaming subscriptions.
struct Conn {
    stream: TcpStream,
    rbuf: LineBuf,
    wbuf: Vec<u8>,
    /// Jobs whose samples go out on this connection once they finish.
    streams: Vec<JobId>,
    /// EOF seen or shutdown requested: flush `wbuf`, then drop.
    closing: bool,
}

impl Conn {
    fn adopt(stream: TcpStream) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(Conn {
            stream,
            rbuf: LineBuf::default(),
            wbuf: Vec::new(),
            streams: Vec::new(),
            closing: false,
        })
    }

    /// Whether requests are read: not once closing or stopping.
    fn reading(&self, stopping: bool) -> bool {
        !(self.closing || stopping)
    }

    /// The `poll` events to wait for: request bytes while reading and
    /// under the watermark, room to write while output is pending.
    fn interest(&self, stopping: bool, io: &IoCounters) -> c_short {
        let mut events = 0;
        if self.reading(stopping) {
            if self.wbuf.len() < WRITE_WATERMARK {
                events |= POLLIN;
            } else {
                io.watermark_stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !self.wbuf.is_empty() {
            events |= POLLOUT;
        }
        events
    }

    /// Service this connection once without blocking: read, dispatch
    /// complete lines, poll streams, flush. Returns whether to keep the
    /// connection.
    fn tick(
        &mut self,
        service: &Service,
        stop: &AtomicBool,
        listen_addr: SocketAddr,
        stopping: bool,
        io: &IoCounters,
    ) -> bool {
        if self.reading(stopping)
            && self.wbuf.len() < WRITE_WATERMARK
            && !(self.read(io) && self.dispatch(service, stop, listen_addr))
        {
            return false;
        }
        // Frames queued past the watermark would defeat the backpressure
        // the watermark exists for. Frames held back there go out in the
        // same tick once the flush has made room: nothing else would
        // tick the connection for them.
        loop {
            let held = self.wbuf.len() >= WRITE_WATERMARK && !self.streams.is_empty();
            if !held && !self.streams.is_empty() {
                self.poll_streams(service);
            }
            if !self.flush() {
                return false;
            }
            if !(held && self.wbuf.len() < WRITE_WATERMARK) {
                break;
            }
        }
        self.reading(stopping) || !self.wbuf.is_empty() || !self.streams.is_empty()
    }

    /// Write as much pending output as the socket takes now; `false`
    /// when the connection is dead.
    fn flush(&mut self) -> bool {
        let mut sent = 0;
        while sent < self.wbuf.len() {
            match self.stream.write(&self.wbuf[sent..]) {
                Ok(0) => return false,
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.wbuf.drain(..sent);
        true
    }

    /// Read whatever is available; `false` when the connection is dead.
    fn read(&mut self, io: &IoCounters) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closing = true;
                    return true;
                }
                Ok(n) => {
                    self.rbuf.bytes.extend_from_slice(&chunk[..n]);
                    if self.rbuf.bytes.len() > MAX_LINE_BYTES {
                        io.line_cap_drops.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                    // Keep draining the socket only while lines are
                    // short; a fair scheduler moves on.
                    if n < chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Dispatch every complete line in the read buffer; `false` when
    /// the connection is dead (a line that is not UTF-8).
    fn dispatch(&mut self, service: &Service, stop: &AtomicBool, listen_addr: SocketAddr) -> bool {
        while let Some(line) = self.rbuf.next_line() {
            let Ok(line) = std::str::from_utf8(&self.rbuf.bytes[line]) else {
                return false;
            };
            if line.trim().is_empty() {
                continue;
            }
            let handled = handle_line(service, line);
            // `json!`-built responses always serialize.
            let Ok(response) = serde_json::to_string(&handled.response) else {
                return false;
            };
            self.wbuf.extend_from_slice(response.as_bytes());
            self.wbuf.push(b'\n');
            self.streams.extend(handled.stream);
            if handled.shutdown {
                stop.store(true, Ordering::Release);
                // The accept loop blocks in `incoming()`; poke it awake.
                let _ = TcpStream::connect(listen_addr);
                self.closing = true;
                break;
            }
        }
        self.rbuf.compact();
        true
    }

    /// Append the frames of every stream whose job is done and drop
    /// those subscriptions; reading the report delivers the job, so its
    /// record may age out only after its frames are written. A job that
    /// ended without a report (or is unknown, or aged out unread past
    /// the registry's grace period) is dropped silently: the client sees
    /// its terminal state via `status`.
    fn poll_streams(&mut self, service: &Service) {
        let wbuf = &mut self.wbuf;
        self.streams.retain(|&id| match service.result(id) {
            Ok(report) => {
                write_frames(wbuf, id, &report.samples);
                false
            }
            Err(ResultError::NoResult(state)) => !state.is_terminal(),
            Err(ResultError::UnknownJob | ResultError::Expired(_)) => false,
        });
    }
}

/// Append `id`'s sample frames to `out`, one line each: the bitstrings in
/// [`STREAM_CHUNK`]-sized `samples` events, `last: true` on the final
/// one. A job that finished without samples gets one empty last frame,
/// so the client's stream always terminates explicitly. The bytes are
/// what `serde_json::to_string` makes of the `json!` object with these
/// keys in this order: every number is an integer below 2^53 (samples
/// are under 2^`MAX_QUBITS`), which it prints as such.
fn write_frames(out: &mut Vec<u8>, id: JobId, samples: &[u64]) {
    let total = samples.len().div_ceil(STREAM_CHUNK).max(1);
    let mut chunks = samples.chunks(STREAM_CHUNK);
    for seq in 0..total {
        // Writes into a `Vec` cannot fail.
        let _ = write!(out, r#"{{"event":"samples","id":{},"seq":{seq},"samples":["#, id.0);
        for (i, sample) in chunks.next().unwrap_or_default().iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            let _ = write!(out, "{sample}");
        }
        let _ = writeln!(out, r#"],"last":{}}}"#, seq + 1 == total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use serde_json::{json, Value};
    use std::io::{BufRead, BufReader};

    fn start_mux(
        io_threads: usize,
    ) -> (Arc<Service>, SocketAddr, ShutdownHandle, std::thread::JoinHandle<std::io::Result<()>>)
    {
        let service =
            Arc::new(Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() }));
        let server = MuxServer::bind("127.0.0.1:0", service.clone(), io_threads).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        (service, addr, handle, thread)
    }

    fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Value {
        let mut framed = line.to_string();
        framed.push('\n');
        stream.write_all(framed.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        serde_json::from_str(&response).unwrap()
    }

    #[test]
    fn tcp_round_trip_and_graceful_shutdown() {
        let (service, addr, _stop, thread) = start_mux(2);
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let circuit = qsim_circuit::parser::write_circuit(&qsim_circuit::library::bell());
        let submit =
            serde_json::to_string(&json!({ "verb": "submit", "circuit": (circuit) })).unwrap();
        let resp = request(&mut conn, &mut reader, &submit);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
        let id = resp.get("id").and_then(Value::as_u64).unwrap();

        service.wait(JobId(id), Duration::from_secs(30));
        let result = request(&mut conn, &mut reader, &format!(r#"{{"verb":"result","id":{id}}}"#));
        assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true), "{result:?}");
        assert!(result.get("report").is_some());

        let bye = request(&mut conn, &mut reader, r#"{"verb":"shutdown"}"#);
        assert_eq!(bye.get("shutting_down").and_then(Value::as_bool), Some(true));
        thread.join().unwrap().unwrap();
        assert!(!service.metrics().accepting);
    }

    #[test]
    fn streaming_submit_pushes_sample_frames() {
        let (_service, addr, stop, thread) = start_mux(1);
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let circuit = qsim_circuit::parser::write_circuit(&qsim_circuit::library::ghz(8));
        let submit = serde_json::to_string(&json!({
            "verb": "submit", "circuit": (circuit),
            "sample_count": 1200, "stream": true, "seed": 11,
        }))
        .unwrap();
        let ack = request(&mut conn, &mut reader, &submit);
        assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true), "{ack:?}");
        let id = ack.get("id").and_then(Value::as_u64).unwrap();

        // 1200 samples at 512/frame → seq 0,1 full + seq 2 last.
        let mut collected = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let frame: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(frame.get("event").and_then(Value::as_str), Some("samples"), "{frame:?}");
            assert_eq!(frame.get("id").and_then(Value::as_u64), Some(id));
            let seq = frame.get("seq").and_then(Value::as_u64).unwrap();
            let samples = frame.get("samples").and_then(Value::as_array).unwrap();
            collected.push((seq, samples.len()));
            if frame.get("last").and_then(Value::as_bool) == Some(true) {
                break;
            }
        }
        assert_eq!(collected, vec![(0, 512), (1, 512), (2, 176)]);

        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn many_connections_share_few_io_threads() {
        let (service, addr, stop, thread) = start_mux(2);
        let circuit = qsim_circuit::parser::write_circuit(&qsim_circuit::library::ghz(6));
        let submit =
            serde_json::to_string(&json!({ "verb": "submit", "circuit": (circuit) })).unwrap();
        let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..64)
            .map(|_| {
                let c = TcpStream::connect(addr).unwrap();
                let r = BufReader::new(c.try_clone().unwrap());
                (c, r)
            })
            .collect();
        // Interleave: every connection submits before any reads, so the
        // I/O threads juggle all 64 at once.
        for (conn, _) in conns.iter_mut() {
            let mut framed = submit.clone();
            framed.push('\n');
            conn.write_all(framed.as_bytes()).unwrap();
        }
        let mut ids = Vec::new();
        for (_, reader) in conns.iter_mut() {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let v: Value = serde_json::from_str(&response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
            ids.push(v.get("id").and_then(Value::as_u64).unwrap());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64, "every connection got its own job id");
        for &id in &ids {
            service.wait(JobId(id), Duration::from_secs(60));
        }
        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_handle_stops_an_idle_mux_server() {
        let (_service, _addr, stop, thread) = start_mux(3);
        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn a_service_is_served_once() {
        let (service, addr, stop, thread) = start_mux(1);
        // Wait until the first server registered its wakers.
        let mut probe = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(probe.try_clone().unwrap());
        request(&mut probe, &mut reader, r#"{"verb":"metrics"}"#);
        let second = MuxServer::bind("127.0.0.1:0", service, 1).unwrap();
        assert!(second.serve().is_err(), "a second server over one service is refused");
        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    /// An idle connection costs its I/O thread nothing: no `poll` returns
    /// while it sends nothing.
    #[test]
    fn an_idle_connection_does_not_poll() {
        let (service, addr, stop, thread) = start_mux(2);
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let metrics = request(&mut conn, &mut reader, r#"{"verb":"metrics"}"#);
        let io = metrics.get("metrics").and_then(|m| m.get("io")).expect("metrics.io");
        for key in ["polls", "wakes", "watermark_stalls", "line_cap_drops"] {
            assert!(io.get(key).and_then(Value::as_u64).is_some(), "io.{key}: {io:?}");
        }
        // The return that delivered the request was counted before it ran.
        let before = service.metrics().io.polls;
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(service.metrics().io.polls, before, "an idle connection woke its thread");
        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    /// A client that reads late: answers pile up past the watermark, the
    /// connection is left out of `POLLIN` and waits on `POLLOUT`, and
    /// every answer still arrives in order — a cache hit's stream held
    /// back behind the backlog included.
    #[test]
    fn a_late_reader_gets_every_answer_past_the_watermark() {
        let (service, addr, stop, thread) = start_mux(1);
        let mut conn = TcpStream::connect(addr).unwrap();
        // A frame that never comes fails the test instead of hanging it.
        conn.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let circuit = qsim_circuit::parser::write_circuit(&qsim_circuit::library::ghz(8));
        let submit = serde_json::to_string(&json!({
            "verb": "submit", "circuit": (circuit),
            "sample_count": 1200, "stream": true, "seed": 5,
        }))
        .unwrap();
        let read_frames = |reader: &mut BufReader<TcpStream>| {
            let mut samples = 0;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let frame: Value = serde_json::from_str(&line).unwrap();
                samples += frame.get("samples").and_then(Value::as_array).unwrap().len();
                if frame.get("last").and_then(Value::as_bool) == Some(true) {
                    return samples;
                }
            }
        };
        let id = request(&mut conn, &mut reader, &submit).get("id").and_then(Value::as_u64);
        assert_eq!(read_frames(&mut reader), 1200);

        // 3 000 reports of ~4.6 KiB each, more than loopback's socket
        // buffers hold, then the same streamed submit.
        let mut burst = format!("{{\"verb\":\"result\",\"id\":{}}}\n", id.unwrap()).repeat(3000);
        burst.push_str(&submit);
        burst.push('\n');
        conn.write_all(burst.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        for _ in 0..3000 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with(r#"{"ok":true,"id":"#), "{}", &line[..line.len().min(80)]);
        }
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.starts_with(r#"{"ok":true,"id":"#), "{ack}");
        assert_eq!(read_frames(&mut reader), 1200);
        assert!(service.metrics().io.watermark_stalls > 0, "{:?}", service.metrics().io);
        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn a_line_over_the_cap_drops_its_connection() {
        let (service, addr, stop, thread) = start_mux(1);
        let mut conn = TcpStream::connect(addr).unwrap();
        // The server may hang up before the client has written it all.
        let _ = conn.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]);
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
        assert!(rest.is_empty());
        assert_eq!(service.metrics().io.line_cap_drops, 1);
        stop.shutdown();
        thread.join().unwrap().unwrap();
    }

    /// A line trickled one byte at a time, and a thousand lines in one
    /// read: either way each byte is searched for a newline once.
    #[test]
    fn line_framing_examines_each_byte_once() {
        let examined = || EXAMINED.with(std::cell::Cell::get);

        let mut buf = LineBuf::default();
        let line = vec![b'x'; 100_000];
        let start = examined();
        let mut lines = Vec::new();
        for &b in line.iter().chain(b"\n") {
            buf.bytes.push(b);
            while let Some(range) = buf.next_line() {
                lines.push(buf.bytes[range].to_vec());
            }
            buf.compact();
        }
        assert_eq!(lines, vec![line.clone()]);
        assert_eq!(examined() - start, line.len() + 1);
        assert!(buf.bytes.is_empty());

        let mut buf = LineBuf::default();
        let pipelined: Vec<u8> = (0..1000)
            .flat_map(|i| {
                format!(r#"{{"verb":"status","id":{i}}}"#).into_bytes().into_iter().chain([b'\n'])
            })
            .collect();
        buf.bytes.extend_from_slice(&pipelined);
        buf.bytes.extend_from_slice(b"{\"verb\"");
        let start = examined();
        let mut count = 0;
        while let Some(range) = buf.next_line() {
            assert_eq!(
                &buf.bytes[range],
                format!(r#"{{"verb":"status","id":{count}}}"#).as_bytes()
            );
            count += 1;
        }
        buf.compact();
        assert_eq!(count, 1000);
        assert_eq!(examined() - start, pipelined.len() + 7);
        assert_eq!(buf.bytes, b"{\"verb\"");
        // The partial line is not searched again when it completes.
        buf.bytes.extend_from_slice(b":1}\n");
        let start = examined();
        let range = buf.next_line().unwrap();
        assert_eq!(&buf.bytes[range], b"{\"verb\":1}");
        assert_eq!(examined() - start, 4);
    }

    /// A finished streamed job whose frames no I/O thread has polled yet
    /// survives many later completions, then gets every frame.
    #[test]
    fn an_unpolled_stream_outlives_later_completions_and_gets_its_last_frame() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let mut spec = crate::job::JobSpec::new(qsim_circuit::library::ghz(8));
        spec.sample_count = 600;
        let warm = service.submit(spec.clone()).unwrap();
        service.wait(warm, Duration::from_secs(60));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::adopt(listener.accept().unwrap().0).unwrap();
        // Subscribed, born done, not polled.
        let streamed = service.submit(spec.clone()).unwrap();
        conn.streams.push(streamed);
        for _ in 0..3 * crate::RETAINED_TERMINAL {
            let id = service.submit(spec.clone()).unwrap();
            service.result(id).unwrap();
        }
        assert!(service.metrics().registry_aged_out > 0);
        conn.poll_streams(&service);
        assert!(conn.streams.is_empty());
        let frames: Vec<Value> = std::str::from_utf8(&conn.wbuf)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        let samples: usize =
            frames.iter().map(|f| f.get("samples").and_then(Value::as_array).unwrap().len()).sum();
        assert_eq!(samples, 600);
        assert_eq!(frames.last().unwrap().get("last").and_then(Value::as_bool), Some(true));
        service.shutdown();
    }

    /// The direct frame writer emits what `serde_json` makes of the
    /// `json!` frame objects it replaced, byte for byte.
    #[test]
    fn frames_match_the_json_tree_they_replaced() {
        let reference = |id: u64, samples: &[u64]| -> Vec<u8> {
            let chunks: Vec<&[u64]> = if samples.is_empty() {
                vec![&[][..]]
            } else {
                samples.chunks(STREAM_CHUNK).collect()
            };
            let total = chunks.len();
            let mut out = Vec::new();
            for (seq, chunk) in chunks.into_iter().enumerate() {
                let frame = json!({
                    "event": "samples",
                    "id": (id),
                    "seq": (seq as u64),
                    "samples": (chunk.to_vec()),
                    "last": (seq + 1 == total),
                });
                out.extend_from_slice(serde_json::to_string(&frame).unwrap().as_bytes());
                out.push(b'\n');
            }
            out
        };
        let top = (1u64 << 36) - 1;
        for count in [0usize, 1, 511, 512, 513, 1200] {
            let samples: Vec<u64> = (0..count as u64)
                .map(|i| match i % 4 {
                    0 => i,
                    1 => top - i,
                    2 => top,
                    _ => i.wrapping_mul(0x9E37_79B9) & top,
                })
                .collect();
            for id in [1u64, 987_654_321] {
                let mut out = Vec::new();
                write_frames(&mut out, JobId(id), &samples);
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    String::from_utf8(reference(id, &samples)).unwrap(),
                    "{count} samples, id {id}"
                );
            }
        }
    }
}
