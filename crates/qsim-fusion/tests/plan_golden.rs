//! Golden plans: every strategy × budget × cost model, pinned bit for bit.
//!
//! The planner's contract is that a plan, its predicted cost and its
//! predicted traffic are pure functions of `(circuit, strategy, budget,
//! model)`. `plan_golden.txt` holds one line per cell — op count, chosen
//! budget, the bits of the two predictions, and a hash of every op's
//! qubits, matrix bits and provenance — recorded before the fuser became
//! decide-then-build, so any refactor of the scan, the builder or a
//! model's plan walk that moves one bit fails here. The hash is
//! [`StableHasher`], not `FusedCircuit::content_hash` (std's
//! `DefaultHasher`), so the goldens survive a toolchain bump; the CPU
//! model takes an explicit lane width so the host ISA does not enter.
//!
//! To re-record after an intended change, run the test and replace the
//! file with the table the failure prints.

use std::fmt::Write as _;
use std::hash::Hasher;

use gpu_model::specs::DeviceSpec;
use qsim_circuit::circuit::{Circuit, GateOp};
use qsim_circuit::gates::GateKind;
use qsim_circuit::parser::parse_circuit;
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::stablehash::StableHasher;
use qsim_core::sweep::SweepConfig;
use qsim_core::types::Precision;
use qsim_fusion::{plan, FusedCircuit, FusedOp, FusionStrategy, LaunchCostModel, LaunchPolicy};

fn plan_hash(fused: &FusedCircuit) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(fused.num_qubits);
    h.write_usize(fused.ops.len());
    for op in &fused.ops {
        match op {
            FusedOp::Unitary(g) => {
                h.write_u8(0);
                h.write_usize(g.qubits.len());
                for &q in &g.qubits {
                    h.write_usize(q);
                }
                let entries = g.matrix().as_slice();
                h.write_usize(entries.len());
                for a in entries {
                    h.write_u64(a.re.to_bits());
                    h.write_u64(a.im.to_bits());
                }
                h.write_usize(g.source_gates);
                h.write_usize(g.time_range.0);
                h.write_usize(g.time_range.1);
            }
            FusedOp::Measurement { qubits, time } => {
                h.write_u8(1);
                h.write_usize(qubits.len());
                for &q in qubits {
                    h.write_usize(q);
                }
                h.write_usize(*time);
            }
        }
    }
    h.finish()
}

/// Two RQC halves joined by a measurement barrier and a controlled gate,
/// so the goldens cover barriers and `expand_controlled`.
fn rqc_with_measurement_and_control() -> Circuit {
    let mut c = generate_rqc(&RqcOptions::for_qubits(12, 6, 11));
    let t = c.ops.iter().map(|op| op.time).max().expect("rqc has gates") + 1;
    c.add(t, GateKind::Measurement, &[3, 4]);
    c.ops.push(GateOp::with_controls(t + 1, GateKind::H, vec![0], vec![5]));
    for op in generate_rqc(&RqcOptions::for_qubits(12, 6, 12)).ops {
        c.ops.push(GateOp { time: op.time + t + 2, ..op });
    }
    c
}

fn actual_table() -> String {
    let q30 =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../circuits/circuit_q30"))
            .expect("circuits/circuit_q30 is committed");
    let circuits = [
        ("q30", parse_circuit(&q30).expect("circuit_q30 parses")),
        ("rqc12m", rqc_with_measurement_and_control()),
    ];
    // The three flavors' policies at the time the goldens were recorded,
    // spelled out so a change to `Flavor::launch_policy` cannot move them.
    let gpu = |spec, low_qubit_byte_overhead| LaunchCostModel {
        spec,
        policy: LaunchPolicy {
            tpb_high: 64,
            tpb_low: 32,
            low_qubit_byte_overhead,
            shuffle_flops_per_low_qubit: 4.0,
            uploads_matrices: true,
            lane_qubits: 0,
            sweep: SweepConfig::disabled(),
        },
        precision: Precision::Single,
    };
    let cpu4 = LaunchCostModel {
        spec: DeviceSpec::epyc_trento(),
        policy: LaunchPolicy {
            tpb_high: 128,
            tpb_low: 128,
            low_qubit_byte_overhead: 0.06,
            shuffle_flops_per_low_qubit: 6.0,
            uploads_matrices: false,
            lane_qubits: 4,
            sweep: SweepConfig::default(),
        },
        precision: Precision::Single,
    };
    let models = [
        ("mi250x", gpu(DeviceSpec::mi250x_gcd(), 2.0)),
        ("a100", gpu(DeviceSpec::a100(), 0.05)),
        ("cpu4", cpu4),
    ];
    let cells: Vec<(FusionStrategy, usize)> = [FusionStrategy::Greedy, FusionStrategy::Cost]
        .into_iter()
        .flat_map(|s| (1..=6).map(move |f| (s, f)))
        .chain([(FusionStrategy::Auto, 4)])
        .collect();

    let mut table = String::new();
    for (cname, circuit) in &circuits {
        for (mname, model) in &models {
            for &(strategy, f) in &cells {
                let p = plan(circuit, strategy, f, model);
                writeln!(
                    table,
                    "{cname} {mname} {strategy} f{f}: ops={} chosen={} cost={:016x} traffic={:016x} hash={:016x}",
                    p.fused.ops.len(),
                    p.fused.max_fused_qubits,
                    p.predicted_cost_seconds.to_bits(),
                    p.predicted_traffic.bytes.to_bits(),
                    plan_hash(&p.fused),
                )
                .expect("write to String");
            }
        }
    }
    table
}

#[test]
fn plans_match_goldens_bit_for_bit() {
    let actual = actual_table();
    let golden = include_str!("plan_golden.txt");
    if let Some((want, got)) = golden.lines().zip(actual.lines()).find(|(w, g)| w != g) {
        panic!(
            "plan drifted from golden\n  golden: {want}\n  actual: {got}\nfull table:\n{actual}"
        );
    }
    assert_eq!(golden.lines().count(), actual.lines().count(), "full table:\n{actual}");
}
