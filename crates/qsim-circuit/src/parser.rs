//! Reader/writer for qsim's text circuit format.
//!
//! The format (used by the `circuit_q30` RQC file the paper benchmarks):
//! the first non-empty line is the number of qubits; every following line
//! is `time gate qubit… [param…]`, whitespace-separated. `#` starts a
//! comment. Examples:
//!
//! ```text
//! 30
//! 0 h 0
//! 0 x_1_2 1
//! 1 fs 0 1 0.5235987755982988 0.16
//! 2 rz 3 0.25
//! 3 m 0 1 2
//! ```

use std::fmt;
use std::str::SplitWhitespace;

use crate::circuit::{Circuit, GateOp};
use crate::gates::GateKind;

/// A parse failure with its (1-based) line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

/// Parse a circuit from qsim's text format and validate it structurally.
pub fn parse_circuit(text: &str) -> Result<Circuit, ParseError> {
    let c = parse_circuit_unchecked(text)?;
    // Structural validation reports typed diagnostics; surface the
    // first one (with its stable code) as the parse error.
    c.validate().map_err(|diags| {
        let first = &diags[0];
        ParseError {
            line: 0,
            message: format!(
                "[{}] at {}: {}{}",
                first.code,
                first.span,
                first.message,
                if diags.len() > 1 {
                    format!(" (+{} more)", diags.len() - 1)
                } else {
                    String::new()
                }
            ),
        }
    })?;
    Ok(c)
}

/// Parse without the final structural validation. The `analyze`
/// subcommand uses this so the lint engine can report *every* diagnostic
/// of a malformed file, not just the first.
pub fn parse_circuit_unchecked(text: &str) -> Result<Circuit, ParseError> {
    let mut circuit: Option<Circuit> = None;
    // Room for an op per line, so `ops` is allocated once. Counted in
    // byte-wide sums of up to 255 bytes, which the compiler vectorizes.
    let newlines = text
        .as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))));
    let lines = 1 + newlines.sum::<usize>();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        match circuit {
            None => {
                let n: usize = line.parse().map_err(|_| ParseError {
                    line: lineno,
                    message: format!("expected qubit count, got '{line}'"),
                })?;
                if n == 0 || n > qsim_core::statevec::MAX_QUBITS {
                    return err(lineno, format!("qubit count {n} out of supported range"));
                }
                let mut c = Circuit::new(n);
                c.ops.reserve_exact(lines);
                circuit = Some(c);
            }
            Some(ref mut c) => {
                let time: usize = match tok.next() {
                    Some(t) => t.parse().map_err(|_| ParseError {
                        line: lineno,
                        message: format!("bad time '{t}'"),
                    })?,
                    None => return err(lineno, "missing time"),
                };
                let name = match tok.next() {
                    Some(g) => g,
                    None => return err(lineno, "missing gate name"),
                };
                let op = parse_gate(lineno, time, name, tok)?;
                c.ops.push(op);
            }
        }
    }
    match circuit {
        Some(mut c) => {
            // Mostly blank or comment lines: give the room back.
            if c.ops.capacity() > 2 * c.ops.len() {
                c.ops.shrink_to_fit();
            }
            Ok(c)
        }
        None => err(0, "empty circuit file"),
    }
}

fn parse_usize(line: usize, tok: &str, what: &str) -> Result<usize, ParseError> {
    tok.parse().map_err(|_| ParseError { line, message: format!("bad {what} '{tok}'") })
}

/// `"nan"` and `"inf"` parse as `f64`, but no gate built from them is unitary.
fn parse_f64(line: usize, tok: &str, what: &str) -> Result<f64, ParseError> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => err(line, format!("{what} '{tok}' is not finite")),
        Err(_) => err(line, format!("bad {what} '{tok}'")),
    }
}

/// What a gate mnemonic takes and makes: `(qubit_count, param_count,
/// kind from the params)`, `None` for unknown gates. A measurement (`m`)
/// takes any number of qubits, written `usize::MAX`.
fn signature(name: &str) -> Option<(usize, usize, KindOf)> {
    Some(match name {
        "id" => (1, 0, |_| GateKind::Id),
        "x" => (1, 0, |_| GateKind::X),
        "y" => (1, 0, |_| GateKind::Y),
        "z" => (1, 0, |_| GateKind::Z),
        "h" => (1, 0, |_| GateKind::H),
        "s" => (1, 0, |_| GateKind::S),
        "t" => (1, 0, |_| GateKind::T),
        "x_1_2" => (1, 0, |_| GateKind::X12),
        "y_1_2" => (1, 0, |_| GateKind::Y12),
        "hz_1_2" => (1, 0, |_| GateKind::Hz12),
        "rx" => (1, 1, |[t, _]| GateKind::Rx(t)),
        "ry" => (1, 1, |[t, _]| GateKind::Ry(t)),
        "rz" => (1, 1, |[t, _]| GateKind::Rz(t)),
        "rxy" => (1, 2, |[p, t]| GateKind::Rxy(p, t)),
        "cz" => (2, 0, |_| GateKind::Cz),
        "cnot" => (2, 0, |_| GateKind::Cnot),
        "sw" => (2, 0, |_| GateKind::Swap),
        "is" => (2, 0, |_| GateKind::ISwap),
        "cp" => (2, 1, |[p, _]| GateKind::CPhase(p)),
        "fs" => (2, 2, |[t, p]| GateKind::FSim(t, p)),
        "m" => (usize::MAX, 0, |_| GateKind::Measurement),
        _ => return None,
    })
}

/// A gate's kind from its parameters, in file order.
type KindOf = fn([f64; 2]) -> GateKind;

/// The op of one gate line, from the tokens after its gate name, read in
/// one pass: a wrong token count is reported before the first bad token.
fn parse_gate(
    line: usize,
    time: usize,
    name: &str,
    rest: SplitWhitespace<'_>,
) -> Result<GateOp, ParseError> {
    let Some((nq, np, kind)) = signature(name) else {
        return err(line, format!("unknown gate '{name}'"));
    };
    let measure = nq == usize::MAX;
    let mut qubits = Vec::with_capacity(if measure { 1 } else { nq });
    let mut params = [0.0; 2];
    let (mut count, mut bad) = (0, None);
    for t in rest {
        let parsed = if count < nq {
            parse_usize(line, t, "qubit").map(|q| qubits.push(q))
        } else if count < nq + np {
            parse_f64(line, t, "parameter").map(|p| params[count - nq] = p)
        } else {
            Ok(())
        };
        bad = bad.or(parsed.err());
        count += 1;
    }
    if measure && count == 0 {
        return err(line, "measurement needs at least one qubit");
    }
    if !measure && count != nq + np {
        return err(
            line,
            format!("gate '{name}' expects {nq} qubit(s) and {np} param(s), got {count} token(s)"),
        );
    }
    match bad {
        Some(e) => Err(e),
        None => Ok(GateOp::new(time, kind(params), qubits)),
    }
}

/// Serialize a circuit to qsim's text format (inverse of
/// [`parse_circuit`]; floats are written with enough digits to round-trip).
pub fn write_circuit(circuit: &Circuit) -> String {
    let mut out = String::with_capacity(16 * circuit.ops.len() + 8);
    out.push_str(&circuit.num_qubits.to_string());
    out.push('\n');
    for op in &circuit.ops {
        out.push_str(&op.time.to_string());
        out.push(' ');
        out.push_str(op.kind.name());
        for q in &op.qubits {
            out.push(' ');
            out.push_str(&q.to_string());
        }
        for p in op.kind.params() {
            out.push(' ');
            // {:?} prints f64 with round-trip precision.
            out.push_str(&format!("{p:?}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let c = parse_circuit("2\n0 h 0\n1 cz 0 1\n").unwrap();
        assert_eq!(c.num_qubits, 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.ops[0].kind, GateKind::H);
        assert_eq!(c.ops[1].kind, GateKind::Cz);
        assert_eq!(c.ops[1].qubits, vec![0, 1]);
    }

    #[test]
    fn parse_params_and_comments() {
        let text = "# RQC fragment\n3\n0 rz 1 0.25 # quarter turn\n\n1 fs 0 2 0.5 0.125\n2 rxy 1 0.3 0.7\n";
        let c = parse_circuit(text).unwrap();
        assert_eq!(c.ops[0].kind, GateKind::Rz(0.25));
        assert_eq!(c.ops[1].kind, GateKind::FSim(0.5, 0.125));
        assert_eq!(c.ops[2].kind, GateKind::Rxy(0.3, 0.7));
    }

    #[test]
    fn parse_measurement_variadic() {
        let c = parse_circuit("3\n0 h 0\n1 m 0 1 2\n").unwrap();
        assert_eq!(c.ops[1].kind, GateKind::Measurement);
        assert_eq!(c.ops[1].qubits, vec![0, 1, 2]);
    }

    #[test]
    fn unknown_gate_rejected() {
        let e = parse_circuit("2\n0 foo 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown gate"));
    }

    #[test]
    fn wrong_token_count_rejected() {
        let e = parse_circuit("2\n0 cz 0\n").unwrap_err();
        assert!(e.message.contains("expects 2 qubit"));
        let e = parse_circuit("2\n0 rz 0\n").unwrap_err();
        assert!(e.message.contains("expects 1 qubit(s) and 1 param"));
    }

    #[test]
    fn bad_tokens_rejected() {
        assert!(parse_circuit("two\n").is_err());
        assert!(parse_circuit("2\nzero h 0\n").is_err());
        assert!(parse_circuit("2\n0 h q0\n").is_err());
        assert!(parse_circuit("2\n0 rz 0 angle\n").is_err());
        assert!(parse_circuit("").is_err());
        assert!(parse_circuit("2\n0\n").is_err());
        assert!(parse_circuit("2\n0 m\n").is_err());
    }

    #[test]
    fn non_finite_parameters_rejected_with_line_and_token() {
        for tok in ["nan", "inf", "-inf", "NaN"] {
            let e = parse_circuit(&format!("2\n0 h 0\n1 rz 1 {tok}\n2 cz 0 1\n")).unwrap_err();
            assert_eq!(e.line, 3, "{tok}");
            assert!(e.message.contains(&format!("'{tok}' is not finite")), "{tok}: {e}");
        }
        // Second parameter of a two-parameter gate, too.
        assert_eq!(parse_circuit("2\n0 fs 0 1 0.5 inf\n").unwrap_err().line, 2);
    }

    #[test]
    fn out_of_range_qubit_rejected_via_validate() {
        assert!(parse_circuit("2\n0 h 5\n").is_err());
    }

    #[test]
    fn qubit_count_bounds() {
        assert!(parse_circuit("0\n").is_err());
        assert!(parse_circuit("99\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "4\n0 h 0\n0 x_1_2 1\n1 fs 0 1 0.5235987755982988 0.16\n2 rz 3 -0.25\n3 cnot 2 3\n4 m 0 1\n";
        let c = parse_circuit(text).unwrap();
        let written = write_circuit(&c);
        let c2 = parse_circuit(&written).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn roundtrip_preserves_float_precision() {
        let theta = std::f64::consts::PI / 6.0;
        let mut c = Circuit::new(2);
        c.add(0, GateKind::FSim(theta, 1.0 / 3.0), &[0, 1]);
        let c2 = parse_circuit(&write_circuit(&c)).unwrap();
        match c2.ops[0].kind {
            GateKind::FSim(t, p) => {
                assert_eq!(t, theta);
                assert_eq!(p, 1.0 / 3.0);
            }
            ref k => panic!("wrong kind {k:?}"),
        }
    }
}
