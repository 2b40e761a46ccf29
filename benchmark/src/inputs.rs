//! Everything the workloads feed the program, derived from `--seed`.
//! The same seed gives the same circuits, job seeds, arrival times and
//! job order; the program only ever receives the generated text.

use qsim_circuit::parser::write_circuit;
use qsim_circuit::{generate_rqc, library, RqcOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cycles of every random circuit (the paper's supremacy depth).
pub const RQC_CYCLES: usize = 14;

/// qsim text of an `n`-qubit, 14-cycle random quantum circuit.
pub fn rqc_text(qubits: usize, seed: u64) -> String {
    write_circuit(&generate_rqc(&RqcOptions::for_qubits(qubits, RQC_CYCLES, seed)))
}

/// qsim text of the paper's 30-qubit circuit (5 × 6 grid) under `seed`.
pub fn paper_q30_text(seed: u64) -> String {
    write_circuit(&generate_rqc(&RqcOptions { seed, ..RqcOptions::paper_q30() }))
}

pub fn qft_text(qubits: usize) -> String {
    write_circuit(&library::qft(qubits))
}

pub fn ghz_text(qubits: usize) -> String {
    write_circuit(&library::ghz(qubits))
}

/// A job seed that differs for every `(run seed, stream, index)`, so no
/// two jobs of a run share a result-cache key by accident. SplitMix64
/// finaliser over the packed inputs.
pub fn job_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // The wire protocol carries numbers as f64: stay below 2^53.
    (z ^ (z >> 31)) >> 11
}

/// Due times (seconds from the start of the measured interval) of an
/// open-loop arrival process: `rate_per_s × seconds` arrivals placed
/// uniformly at random, which is a Poisson process given its count.
/// Fixing the count keeps the number of jobs, and so the percentile a
/// run can support, the same for every seed. Independent tenants do not
/// wait for each other, so the schedule never looks at the server.
pub fn open_loop_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_A221);
    let jobs = (rate_per_s * seconds).round() as usize;
    let mut due: Vec<f64> = (0..jobs).map(|_| rng.gen::<f64>() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// The order in which job shapes arrive: every consecutive block of
/// `shares.sum()` jobs holds shape `i` exactly `shares[i]` times, in a
/// seeded shuffle. Exact shares keep a percentile from landing on the
/// boundary between two shapes in one run and beside it in the next.
pub fn shape_deck(seed: u64, shares: &[usize], jobs: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEC4_0F5A);
    let block: Vec<usize> =
        shares.iter().enumerate().flat_map(|(shape, &n)| std::iter::repeat_n(shape, n)).collect();
    assert!(!block.is_empty(), "a deck needs at least one card");
    let mut deck = Vec::with_capacity(jobs + block.len());
    while deck.len() < jobs {
        let mut cards = block.clone();
        for i in (1..cards.len()).rev() {
            cards.swap(i, rng.gen_range(0..=i));
        }
        deck.extend(cards);
    }
    deck.truncate(jobs);
    deck
}

/// How late the generator sent each job, milliseconds (never negative):
/// a generator that falls behind its schedule must not be mistaken for
/// a slow server, so its lag is reported beside the latencies.
pub fn lateness_ms(due_s: &[f64], sent_s: &[f64]) -> Vec<f64> {
    due_s.iter().zip(sent_s).map(|(due, sent)| (sent - due).max(0.0) * 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = open_loop_schedule(2023, 100.0, 5.0);
        assert_eq!(a, open_loop_schedule(2023, 100.0, 5.0));
        assert_ne!(a, open_loop_schedule(7, 100.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        assert_eq!(a.len(), 500);
        // Exponential-looking gaps: the longest is several mean gaps.
        let longest = a.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
        assert!(longest > 3.0 / 100.0, "{longest}");
    }

    #[test]
    fn deck_holds_exact_shares_in_seeded_order() {
        let shares = [6, 5, 4, 3, 2];
        let deck = shape_deck(2023, &shares, 200);
        assert_eq!(deck, shape_deck(2023, &shares, 200));
        assert_ne!(deck, shape_deck(7, &shares, 200));
        for block in deck.chunks(20) {
            for (shape, &share) in shares.iter().enumerate() {
                assert_eq!(block.iter().filter(|&&s| s == shape).count(), share);
            }
        }
        assert_eq!(shape_deck(1, &shares, 7).len(), 7);
    }

    #[test]
    fn lateness_counts_only_the_generator_running_behind() {
        let late = lateness_ms(&[0.0, 1.0, 2.0], &[0.0005, 0.999, 2.25]);
        assert!((late[0] - 0.5).abs() < 1e-9);
        assert_eq!(late[1], 0.0);
        assert!((late[2] - 250.0).abs() < 1e-9);
    }

    #[test]
    fn job_seeds_are_distinct_and_survive_json() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..3 {
            for index in 0..2000 {
                let s = job_seed(2023, stream, index);
                assert!(s < 1 << 53);
                assert_eq!(s as f64 as u64, s);
                assert!(seen.insert(s));
            }
        }
        assert_ne!(job_seed(2023, 0, 0), job_seed(7, 0, 0));
    }

    #[test]
    fn circuits_follow_the_seed() {
        assert_eq!(rqc_text(12, 5), rqc_text(12, 5));
        assert_ne!(rqc_text(12, 5), rqc_text(12, 6));
        assert!(paper_q30_text(5).starts_with("30\n"));
    }
}
