//! The load generator's side of the wire: one thread, a few nonblocking
//! connections to a `MuxServer` over loopback, newline-delimited JSON.
//! When nothing can move the thread blocks in `ppoll` until a byte
//! arrives or the next job is due; it never sleeps and looks again.
//!
//! Every job is a `submit` with `"stream": true`; the server answers
//! with an acknowledgement carrying the job id and, when the job is
//! done, pushes its samples as frames. A job is complete when the frame
//! with `last: true` has been read.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use serde_json::Value;

/// `struct pollfd` and `struct timespec` of Linux on 64-bit targets.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

const POLLIN: i16 = 1;
const POLLOUT: i16 = 4;

extern "C" {
    fn ppoll(fds: *mut PollFd, count: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// One job as the generator sees it.
#[derive(Debug)]
pub struct Job {
    /// Index into the workload's shapes.
    pub shape: usize,
    /// Connection the job was sent on (and its frames come back on).
    pub conn: usize,
    /// When the job was due to be sent; latency counts from here.
    pub due: Instant,
    /// When the generator handed the request to the socket.
    pub sent: Instant,
    pub acked: Option<Instant>,
    pub first_frame: Option<Instant>,
    pub done: Option<Instant>,
    /// Server-side job id, from the acknowledgement.
    pub id: Option<u64>,
    /// Samples received so far.
    pub samples: usize,
    /// The samples themselves, kept only for jobs checked bit for bit.
    pub kept: Option<Vec<u64>>,
    /// Why the job counts as failed.
    pub failure: Option<String>,
}

impl Job {
    /// Milliseconds from due to last byte.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|done| done.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// What the next response line on a connection answers.
#[derive(Debug)]
enum Pending {
    Submit(usize),
    Probe,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

/// The generator's connections and every job sent over them.
pub struct Client {
    conns: Vec<Conn>,
    pub jobs: Vec<Job>,
    by_id: HashMap<u64, usize>,
    /// Jobs not yet complete or failed.
    pub outstanding: usize,
    probe_answers: usize,
    /// Scratch for socket reads, kept so that a poll (there are tens of
    /// thousands a second) does not zero a fresh buffer.
    chunk: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr, connections: usize) -> Result<Client, String> {
        let mut conns = Vec::with_capacity(connections);
        for i in 0..connections {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {i}: {e}"))?;
            stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
            stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            conns.push(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                pending: VecDeque::new(),
            });
        }
        Ok(Client {
            conns,
            jobs: Vec::new(),
            by_id: HashMap::new(),
            outstanding: 0,
            probe_answers: 0,
            chunk: vec![0u8; 16 * 1024],
        })
    }

    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Queue one `submit` line (newline included) on a connection and
    /// start tracking its job. Returns the job's index.
    pub fn submit(
        &mut self,
        conn: usize,
        line: &[u8],
        shape: usize,
        due: Instant,
        keep: bool,
    ) -> usize {
        let index = self.jobs.len();
        self.jobs.push(Job {
            shape,
            conn,
            due,
            sent: Instant::now(),
            acked: None,
            first_frame: None,
            done: None,
            id: None,
            samples: 0,
            kept: keep.then(Vec::new),
            failure: None,
        });
        self.outstanding += 1;
        let c = &mut self.conns[conn];
        c.wbuf.extend_from_slice(line);
        c.pending.push_back(Pending::Submit(index));
        index
    }

    /// Move bytes both ways on every connection without blocking and
    /// handle every complete line. Returns the jobs that completed (or
    /// failed) during this call; `progressed` tells whether any byte
    /// moved, so the caller knows when sleeping is safe.
    pub fn poll(&mut self, finished: &mut Vec<usize>) -> Result<bool, String> {
        let mut progressed = false;
        for ci in 0..self.conns.len() {
            let conn = &mut self.conns[ci];
            while !conn.wbuf.is_empty() {
                match conn.stream.write(&conn.wbuf) {
                    Ok(0) => return Err("server closed a connection".into()),
                    Ok(n) => {
                        conn.wbuf.drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            loop {
                match conn.stream.read(&mut self.chunk) {
                    Ok(0) => return Err("server closed a connection".into()),
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&self.chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            if !conn.rbuf.contains(&b'\n') {
                continue;
            }
            // Handling a line needs the whole client; lend it the buffer.
            let mut rbuf = std::mem::take(&mut conn.rbuf);
            let now = Instant::now();
            let mut consumed = 0;
            while let Some(pos) = rbuf[consumed..].iter().position(|&b| b == b'\n') {
                self.on_line(ci, &rbuf[consumed..consumed + pos], now, finished)?;
                consumed += pos + 1;
            }
            rbuf.drain(..consumed);
            self.conns[ci].rbuf = rbuf;
        }
        Ok(progressed)
    }

    fn on_line(
        &mut self,
        conn: usize,
        line: &[u8],
        now: Instant,
        finished: &mut Vec<usize>,
    ) -> Result<(), String> {
        let text = std::str::from_utf8(line).map_err(|e| format!("response is not UTF-8: {e}"))?;
        let doc: Value =
            serde_json::from_str(text).map_err(|e| format!("response is not JSON: {e}: {text}"))?;
        if doc.get("event").and_then(Value::as_str) == Some("samples") {
            let id = doc.get("id").and_then(Value::as_u64).ok_or("frame without id")?;
            let Some(&index) = self.by_id.get(&id) else {
                return Err(format!("frame for unknown job id {id}"));
            };
            let job = &mut self.jobs[index];
            let samples =
                doc.get("samples").and_then(Value::as_array).ok_or("frame without samples")?;
            job.first_frame.get_or_insert(now);
            job.samples += samples.len();
            if let Some(kept) = &mut job.kept {
                kept.extend(samples.iter().filter_map(Value::as_u64));
            }
            if doc.get("last").and_then(Value::as_bool) == Some(true) {
                job.done = Some(now);
                self.outstanding -= 1;
                finished.push(index);
            }
            return Ok(());
        }
        match self.conns[conn].pending.pop_front() {
            Some(Pending::Submit(index)) => {
                let job = &mut self.jobs[index];
                job.acked = Some(now);
                if doc.get("ok").and_then(Value::as_bool) == Some(true) {
                    let id = doc.get("id").and_then(Value::as_u64).ok_or("ack without id")?;
                    job.id = Some(id);
                    self.by_id.insert(id, index);
                } else {
                    job.failure = Some(format!("refused: {text}"));
                    self.outstanding -= 1;
                    finished.push(index);
                }
                Ok(())
            }
            Some(Pending::Probe) => {
                self.probe_answers += 1;
                Ok(())
            }
            None => Err(format!("response nobody asked for: {text}")),
        }
    }

    /// Block until a connection has bytes to read (or room for bytes this
    /// side still has to write) or `timeout` has passed. A generator that
    /// slept a fixed time and looked again would wake ten thousand times a
    /// second on the CPU it shares with the server, and would find every
    /// answer half a sleep late.
    pub fn wait(&self, timeout: Duration) {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.wbuf.is_empty() { POLLIN } else { POLLIN | POLLOUT },
                revents: 0,
            })
            .collect();
        let timeout = Timespec {
            seconds: timeout.as_secs() as i64,
            nanoseconds: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` holds `fds.len()` entries and outlives the call; a
        // null mask leaves the signal mask alone. An error (EINTR) only
        // makes the caller look again early.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &timeout, std::ptr::null()) };
    }

    /// Poll until nothing is outstanding or `timeout` passes; whatever is
    /// still outstanding then has failed.
    pub fn drain(&mut self, timeout: Duration, finished: &mut Vec<usize>) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.outstanding > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            if !self.poll(finished)? {
                self.wait(left);
            }
        }
        if self.outstanding > 0 {
            for (index, job) in self.jobs.iter_mut().enumerate() {
                if job.done.is_none() && job.failure.is_none() {
                    job.failure = Some("no last frame before the drain deadline".into());
                    finished.push(index);
                }
            }
            self.outstanding = 0;
        }
        Ok(())
    }

    /// Round-trip microseconds of one request that is answered at once
    /// (`status` of a finished job): socket, mux tick and `handle_line`,
    /// with no job behind it.
    pub fn round_trip_us(&mut self, line: &[u8]) -> Result<f64, String> {
        let before = self.probe_answers;
        let start = Instant::now();
        self.conns[0].wbuf.extend_from_slice(line);
        self.conns[0].pending.push_back(Pending::Probe);
        let mut finished = Vec::new();
        while self.probe_answers == before {
            if start.elapsed() > Duration::from_secs(5) {
                return Err("no answer to a status probe within 5 s".into());
            }
            if !self.poll(&mut finished)? {
                self.wait(Duration::from_secs(5));
            }
        }
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }
}
