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
//!   over an `mpsc` channel;
//! - each tick, a thread flushes pending writes, polls its streaming
//!   jobs, reads whatever bytes are available without blocking, and
//!   dispatches every complete request line through
//!   [`crate::protocol::handle_line`];
//! - a thread with no progress on any connection sleeps briefly instead
//!   of spinning, so an idle fleet costs (almost) nothing.
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

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use crate::job::JobId;
use crate::protocol::handle_line;
use crate::service::Service;

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

/// How long an I/O thread sleeps when a full pass over its connections
/// made no progress.
const IDLE_SLEEP: Duration = Duration::from_micros(300);

/// Grace period after shutdown for flushing pending responses to slow
/// clients before connections are dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

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
    /// finishes queued jobs, new submissions are refused.
    pub fn serve(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(self.io_threads);
        let mut threads = Vec::with_capacity(self.io_threads);
        for i in 0..self.io_threads {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            senders.push(tx);
            let service = self.service.clone();
            let stop = self.stop.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qsim-serve-io-{i}"))
                    .spawn(move || io_loop(&service, &stop, &rx, addr))?,
            );
        }
        let mut next = 0usize;
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Round-robin dispatch. Send can only fail if the thread
            // panicked; the remaining threads keep serving.
            let _ = senders[next % senders.len()].send(stream);
            next = next.wrapping_add(1);
        }
        // Dropping the senders is the I/O threads' stop signal: they
        // exit once their channel is dead and their connections drain.
        drop(senders);
        for t in threads {
            let _ = t.join();
        }
        self.service.shutdown();
        Ok(())
    }
}

/// One I/O thread: adopt incoming connections, tick each one, sleep
/// when a full pass made no progress.
fn io_loop(
    service: &Service,
    stop: &Arc<AtomicBool>,
    incoming: &Receiver<TcpStream>,
    listen_addr: SocketAddr,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut accept_closed = false;
    let mut stopping_since: Option<Instant> = None;
    loop {
        loop {
            match incoming.try_recv() {
                Ok(stream) => {
                    if let Some(conn) = Conn::adopt(stream) {
                        conns.push(conn);
                    }
                }
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
        let mut progressed = false;
        conns.retain_mut(|conn| {
            let tick = conn.tick(service, stop, listen_addr, stopping);
            progressed |= tick.progressed;
            tick.alive
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
        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// What one [`Conn::tick`] accomplished.
struct Tick {
    /// Keep the connection in the loop?
    alive: bool,
    /// Did any bytes move or any request run? (Gates the idle sleep.)
    progressed: bool,
}

/// A streaming subscription created by `submit` + `"stream": true`.
#[derive(Debug)]
struct SampleStream {
    id: JobId,
}

/// One multiplexed connection: a nonblocking socket plus its read
/// buffer, pending-write queue and streaming subscriptions.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: VecDeque<u8>,
    streams: Vec<SampleStream>,
    /// EOF seen or shutdown requested: flush `wbuf`, then drop.
    closing: bool,
}

impl Conn {
    fn adopt(stream: TcpStream) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
            streams: Vec::new(),
            closing: false,
        })
    }

    /// Service this connection once without blocking: flush, poll
    /// streams, read, dispatch complete lines.
    fn tick(
        &mut self,
        service: &Service,
        stop: &Arc<AtomicBool>,
        listen_addr: SocketAddr,
        stopping: bool,
    ) -> Tick {
        let mut progressed = false;

        // 1. Flush as much of the pending write queue as the socket
        //    accepts right now.
        while !self.wbuf.is_empty() {
            let (front, _) = self.wbuf.as_slices();
            match self.stream.write(front) {
                Ok(0) => return Tick { alive: false, progressed },
                Ok(n) => {
                    self.wbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Tick { alive: false, progressed },
            }
        }

        // 2. Poll streaming jobs — but only while the client is keeping
        //    up; frames queued past the watermark would defeat the
        //    backpressure the watermark exists for.
        if !self.streams.is_empty() && self.wbuf.len() < WRITE_WATERMARK {
            let mut frames: Vec<String> = Vec::new();
            self.streams.retain(|s| match stream_frames(service, s.id) {
                StreamPoll::Pending => true,
                StreamPoll::Emit(mut lines) => {
                    frames.append(&mut lines);
                    false
                }
                StreamPoll::Gone => false,
            });
            for frame in frames {
                self.enqueue(&frame);
                progressed = true;
            }
        }

        if self.closing || stopping {
            // Stop reading new requests; stay only to drain what is
            // already owed to the client.
            let done = self.wbuf.is_empty() && self.streams.is_empty();
            return Tick { alive: !done, progressed };
        }

        // 3. Read whatever is available, within the backpressure gate.
        if self.wbuf.len() < WRITE_WATERMARK {
            let mut chunk = [0u8; 4096];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.closing = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                        if self.rbuf.len() > MAX_LINE_BYTES {
                            return Tick { alive: false, progressed };
                        }
                        // Keep draining the socket only while lines are
                        // short; a fair scheduler moves on.
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Tick { alive: false, progressed },
                }
            }
        }

        // 4. Dispatch every complete line in the read buffer.
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let Ok(line) = std::str::from_utf8(&line[..line.len() - 1]) else {
                return Tick { alive: false, progressed };
            };
            if line.trim().is_empty() {
                continue;
            }
            let handled = handle_line(service, line);
            progressed = true;
            // `json!`-built responses always serialize.
            let Ok(response) = serde_json::to_string(&handled.response) else {
                return Tick { alive: false, progressed };
            };
            self.enqueue(&response);
            if let Some(id) = handled.stream {
                self.streams.push(SampleStream { id });
            }
            if handled.shutdown {
                stop.store(true, Ordering::Release);
                // The accept loop blocks in `incoming()`; poke it awake.
                let _ = TcpStream::connect(listen_addr);
                self.closing = true;
                break;
            }
        }

        let done = self.closing && self.wbuf.is_empty() && self.streams.is_empty();
        Tick { alive: !done, progressed }
    }

    /// Queue one response line (newline appended) for writing.
    fn enqueue(&mut self, line: &str) {
        self.wbuf.extend(line.as_bytes());
        self.wbuf.push_back(b'\n');
    }
}

/// One streaming subscription's poll verdict.
enum StreamPoll {
    /// Job still in flight.
    Pending,
    /// Job finished; emit these frame lines and drop the subscription.
    Emit(Vec<String>),
    /// Job unknown or finished without a report; drop silently (the
    /// client sees the terminal state via `status`).
    Gone,
}

/// Frames for `id` if its job has completed: the sampled bitstrings in
/// [`STREAM_CHUNK`]-sized `samples` events, `last: true` on the final
/// one. A job that finished without samples emits one empty last frame
/// so the client's stream always terminates explicitly.
fn stream_frames(service: &Service, id: JobId) -> StreamPoll {
    let Some(status) = service.status(id) else { return StreamPoll::Gone };
    if !status.state.is_terminal() {
        return StreamPoll::Pending;
    }
    let Some(report) = service.report(id) else { return StreamPoll::Gone };
    let samples = &report.samples;
    let chunks: Vec<&[u64]> =
        if samples.is_empty() { vec![&[][..]] } else { samples.chunks(STREAM_CHUNK).collect() };
    let total = chunks.len();
    let mut lines = Vec::with_capacity(total);
    for (seq, chunk) in chunks.into_iter().enumerate() {
        let frame = json!({
            "event": "samples",
            "id": (id.0),
            "seq": (seq as u64),
            "samples": (chunk.to_vec()),
            "last": (seq + 1 == total),
        });
        match serde_json::to_string(&frame) {
            Ok(line) => lines.push(line),
            Err(_) => return StreamPoll::Gone,
        }
    }
    StreamPoll::Emit(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use serde_json::Value;
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
}
