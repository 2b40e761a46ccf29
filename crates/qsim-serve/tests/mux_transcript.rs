//! The mux front end's wire bytes, pinned.
//!
//! A scripted session against a one-I/O-thread [`MuxServer`]: each
//! request goes out only after its acknowledgement and any sample frames
//! have been read, so the order of bytes on the wire is fixed. Every byte
//! the server sends is compared with `mux_transcript.txt`: `>` lines are
//! what the client sent, `<` lines what came back, `#` lines say what a
//! step covers. The script streams a 1 200-sample job run on a worker
//! (three frames), resubmits it (a result-cache hit), submits a stream
//! with no samples, asks `status` and `cancel` of the finished job,
//! sends an unknown verb and a malformed line, sends a line that is not
//! UTF-8 on a connection of its own, and shuts the server down.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use qsim_circuit::{library, parser};
use qsim_serve::{MuxServer, Service, ServiceConfig};

/// One client connection and the transcript it writes.
struct Session<'a> {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: &'a mut String,
}

impl Session<'_> {
    /// Send `request` (a newline is appended) and record it.
    fn send(&mut self, request: &[u8]) {
        let mut line = request.to_vec();
        line.push(b'\n');
        self.stream.write_all(&line).unwrap();
        match std::str::from_utf8(request) {
            Ok(text) => self.out.push_str(&format!("> {text}\n")),
            Err(_) => {
                let hex: Vec<String> = request.iter().map(|b| format!("{b:02x}")).collect();
                self.out.push_str(&format!("> (bytes) {}\n", hex.join(" ")));
            }
        }
    }

    /// Read one response line and record it; `None` at end of stream.
    fn receive(&mut self) -> Option<String> {
        let mut line = Vec::new();
        self.reader.read_until(b'\n', &mut line).unwrap();
        if line.is_empty() {
            self.out.push_str("< (end of stream)\n");
            return None;
        }
        let text = String::from_utf8(line).expect("responses are UTF-8");
        self.out.push_str(&format!("< {text}"));
        Some(text)
    }

    /// Read lines until the stream frame marked last.
    fn receive_frames(&mut self) {
        while let Some(line) = self.receive() {
            if line.contains("\"last\":true") {
                return;
            }
        }
        panic!("stream ended before its last frame");
    }

    /// Send `request` and read its one-line answer.
    fn ask(&mut self, note: &str, request: &str) {
        self.out.push_str(&format!("# {note}\n"));
        self.send(request.as_bytes());
        self.receive();
    }
}

fn connect(addr: std::net::SocketAddr, out: &mut String) -> Session<'_> {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    Session { stream, reader, out }
}

#[test]
fn mux_wire_bytes_match_the_recorded_transcript() {
    let service =
        Arc::new(Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }));
    let server = MuxServer::bind("127.0.0.1:0", service, 1).unwrap();
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.serve());

    let circuit =
        serde_json::to_string(&serde_json::Value::String(parser::write_circuit(&library::ghz(8))))
            .unwrap();
    let submit = |samples: usize| {
        format!(
            r#"{{"verb":"submit","circuit":{circuit},"seed":11,"sample_count":{samples},"stream":true}}"#
        )
    };

    let mut out = String::new();
    let mut a = connect(addr, &mut out);
    a.out.push_str("# streamed submit, run on a worker: ack, then 512 + 512 + 176 samples\n");
    a.send(submit(1200).as_bytes());
    a.receive();
    a.receive_frames();
    a.out.push_str("# the same submit again: a result-cache hit, born done\n");
    a.send(submit(1200).as_bytes());
    a.receive();
    a.receive_frames();
    a.ask("a stream of zero samples is acknowledged and streams nothing", &submit(0));
    a.ask("status of the finished job", r#"{"verb":"status","id":1}"#);
    a.ask("cancel of the finished job", r#"{"verb":"cancel","id":1}"#);
    a.ask("an unknown verb", r#"{"verb":"warp"}"#);
    a.ask("a malformed line", "not json");
    drop(a);

    let mut b = connect(addr, &mut out);
    b.out.push_str("# a line that is not UTF-8, on its own connection: dropped unanswered\n");
    b.send(&[0xff, 0xfe, b'{', b'}']);
    assert!(b.receive().is_none(), "a non-UTF-8 line closes the connection");
    drop(b);

    let mut a = connect(addr, &mut out);
    a.ask("shutdown: acknowledged, then the connection closes", r#"{"verb":"shutdown"}"#);
    assert!(a.receive().is_none(), "the shutdown connection closes");
    drop(a);
    thread.join().unwrap().unwrap();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/mux_transcript.txt");
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    if let Some((n, (want, got))) =
        expected.lines().zip(out.lines()).enumerate().find(|(_, (want, got))| want != got)
    {
        panic!("transcript line {} differs:\nexpected: {want}\n     got: {got}", n + 1);
    }
    assert_eq!(expected.lines().count(), out.lines().count(), "transcript length\n{out}");
    assert_eq!(expected, out);
}
