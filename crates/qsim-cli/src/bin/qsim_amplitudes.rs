//! `qsim_amplitudes` — mirror of qsim's amplitude-query tool: run a
//! circuit and print the amplitudes of specific output bitstrings
//! (read from a file, one binary string per line, most-significant qubit
//! first, as in qsim's input convention).
//!
//! ```text
//! qsim_amplitudes -c circuits/circuit_q24 -i bitstrings.txt -b hip -f 4
//! ```

use std::process::ExitCode;

use qsim_backends::{Flavor, RunOptions, SimBackend};
use qsim_circuit::parser::parse_circuit;
use qsim_cli::args::{parse_backend, parse_max_fused};
use qsim_fusion::fuse;

const USAGE: &str = "\
qsim_amplitudes — compute amplitudes of selected output bitstrings

USAGE:
    qsim_amplitudes -c <circuit-file> -i <bitstring-file> [options]

OPTIONS:
    -c FILE    circuit file in qsim text format (required)
    -i FILE    bitstrings to query, one per line, '0'/'1' chars with the
               most-significant qubit first (required)
    -f N       maximum number of fused gate qubits, 1..=6 (default 2)
    -b NAME    backend: cpu | cuda | custatevec | hip (default cpu)
    -h         this help
";

fn parse_bitstrings(text: &str, num_qubits: usize) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.len() != num_qubits {
            return Err(format!(
                "line {}: bitstring '{line}' has {} bits, circuit has {num_qubits} qubits",
                lineno + 1,
                line.len()
            ));
        }
        let mut value = 0u64;
        // Most-significant qubit first: leftmost char is the top qubit.
        for ch in line.chars() {
            value = (value << 1)
                | match ch {
                    '0' => 0,
                    '1' => 1,
                    other => return Err(format!("line {}: bad bit '{other}'", lineno + 1)),
                };
        }
        out.push(value);
    }
    if out.is_empty() {
        return Err("no bitstrings in input file".into());
    }
    Ok(out)
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut circuit_file = String::new();
    let mut bitstring_file = String::new();
    let mut max_fused = 2usize;
    let mut backend = Flavor::CpuAvx;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            return Ok(());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "-c" => circuit_file = value.clone(),
            "-i" => bitstring_file = value.clone(),
            "-f" => max_fused = parse_max_fused(value)?,
            "-b" => backend = parse_backend(value)?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if circuit_file.is_empty() || bitstring_file.is_empty() {
        return Err(format!("both -c and -i are required\n\n{USAGE}"));
    }

    let circuit_text = std::fs::read_to_string(&circuit_file)
        .map_err(|e| format!("cannot read {circuit_file}: {e}"))?;
    let circuit = parse_circuit(&circuit_text).map_err(|e| format!("parse error: {e}"))?;
    let queries_text = std::fs::read_to_string(&bitstring_file)
        .map_err(|e| format!("cannot read {bitstring_file}: {e}"))?;
    let queries = parse_bitstrings(&queries_text, circuit.num_qubits)?;

    let fused = fuse(&circuit, max_fused);
    let (state, report) = SimBackend::new(backend)
        .run::<f32>(&fused, &RunOptions::default())
        .map_err(|e| e.to_string())?;

    eprintln!(
        "# {} qubits, {} fused passes on {} — modeled {:.4} s",
        circuit.num_qubits, report.fused_gates, report.device, report.simulated_seconds
    );
    for q in queries {
        let a = state.amplitude(q as usize);
        let bits: String = (0..circuit.num_qubits)
            .rev()
            .map(|b| if (q >> b) & 1 == 1 { '1' } else { '0' })
            .collect();
        println!("{bits}  {:+.8}  {:+.8}", a.re, a.im);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
