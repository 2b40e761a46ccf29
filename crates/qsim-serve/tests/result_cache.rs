//! The result cache's correctness contract, end to end through the
//! service: a cache hit is indistinguishable from running the job —
//! bit for bit — and only an *exactly* key-equal resubmission may hit.
//! Plus the two budget behaviours the design leans on: a full cache
//! sheds back to the admission ledger before live work is bounced, and
//! a hot plan survives a parade of cold circuits (the regression the
//! per-entry-eviction cache fixes). The plan cache charges each plan
//! what it keeps resident.

use std::time::Duration;

use proptest::prelude::*;
use qsim_backends::Flavor;
use qsim_circuit::circuit::Circuit;
use qsim_circuit::gates::GateKind;
use qsim_circuit::library;
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::types::Precision;
use qsim_serve::queue::QueuedJob;
use qsim_serve::{JobSpec, JobState, Service, ServiceConfig};

const WAIT: Duration = Duration::from_secs(120);

/// A deterministic pseudo-random circuit (no external RNG: a toy LCG
/// picks gates) so every proptest case is reproducible from its seed.
fn random_circuit(n: usize, ops: usize, seed: u64) -> Circuit {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut c = Circuit::new(n);
    for t in 0..ops {
        let angle = (next(62832) as f64) * 1e-4 - std::f64::consts::PI;
        match next(6) {
            0 => c.add(t, GateKind::H, &[next(n as u64) as usize]),
            1 => c.add(t, GateKind::T, &[next(n as u64) as usize]),
            2 => c.add(t, GateKind::Rx(angle), &[next(n as u64) as usize]),
            3 => c.add(t, GateKind::Rz(angle), &[next(n as u64) as usize]),
            _ => {
                let a = next(n as u64) as usize;
                let b = (a + 1 + next(n as u64 - 1) as usize) % n;
                c.add(t, GateKind::Cnot, &[a, b])
            }
        };
    }
    c
}

fn run_to_done(service: &Service, spec: JobSpec) -> qsim_backends::RunReport {
    let id = service.submit(spec).expect("submit");
    let status = service.wait(id, WAIT).expect("known job");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.report(id).expect("done job has a report")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A key-equal resubmission hits the cache and returns the **same
    /// report, bit for bit** (full JSON equality — the hit is a clone
    /// of the completed run's report). And the cached payload matches a
    /// fresh run on a cache-less service: same samples, same
    /// measurement record — across flavors, precisions and seeds.
    #[test]
    fn cache_hit_is_bit_identical_to_a_fresh_run(
        n in 4usize..=6,
        ops in 6usize..=14,
        circuit_seed in 0u64..1000,
        job_seed in 0u64..1000,
        sample_count in prop::sample::select(vec![0usize, 33]),
        flavor in prop::sample::select(vec![Flavor::CpuAvx, Flavor::Hip]),
        precision in prop::sample::select(vec![Precision::Single, Precision::Double]),
    ) {
        let mut spec = JobSpec::new(random_circuit(n, ops, circuit_seed));
        spec.flavor = flavor;
        spec.precision = precision;
        spec.seed = job_seed;
        spec.sample_count = sample_count;

        let cached = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let first = run_to_done(&cached, spec.clone());
        let hit = run_to_done(&cached, spec.clone());
        // The hit must be the completed run's report, verbatim.
        prop_assert_eq!(
            serde_json::to_string(&hit.to_json()).unwrap(),
            serde_json::to_string(&first.to_json()).unwrap()
        );
        let m = cached.metrics();
        prop_assert_eq!(m.result_cache.hits, 1);
        prop_assert!(m.completed >= 2, "the hit still counts as a completed job");
        cached.shutdown();

        let uncached = Service::start(ServiceConfig {
            workers: 1,
            result_cache_budget_bytes: 0,
            ..ServiceConfig::default()
        });
        let fresh = run_to_done(&uncached, spec);
        prop_assert_eq!(&hit.samples, &fresh.samples);
        prop_assert_eq!(&hit.measurements, &fresh.measurements);
        prop_assert_eq!(uncached.metrics().result_cache.hits, 0);
        uncached.shutdown();
    }
}

/// Changing the seed or the shot count — the two axes beyond the plan
/// key — changes the result key: the resubmission misses and runs.
#[test]
fn seed_and_shot_count_changes_miss() {
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let mut spec = JobSpec::new(library::ghz(8));
    spec.seed = 1;
    spec.sample_count = 16;

    run_to_done(&service, spec.clone());
    assert_eq!(service.metrics().result_cache.hits, 0);

    let mut other_seed = spec.clone();
    other_seed.seed = 2;
    run_to_done(&service, other_seed);

    let mut other_shots = spec.clone();
    other_shots.sample_count = 32;
    run_to_done(&service, other_shots);

    let m = service.metrics();
    assert_eq!(m.result_cache.hits, 0, "different seed / shots must not hit: {:?}", m.result_cache);
    assert_eq!(m.result_cache.insertions, 3);

    // The exact original key does hit.
    run_to_done(&service, spec);
    assert_eq!(service.metrics().result_cache.hits, 1);
    service.shutdown();
}

/// A job is never published `Done` before its report is in the cache: a
/// client that saw `Done` and resubmits the same spec at once always
/// hits. (With the insert after the publication, a second worker's
/// finish sequence or a descheduled first one lets the resubmission miss
/// and run again.)
#[test]
fn resubmission_right_after_done_always_hits() {
    const ROUNDS: u64 = 200;
    let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    for round in 0..ROUNDS {
        let mut spec = JobSpec::new(library::ghz(6));
        spec.seed = round;
        spec.sample_count = 8;
        run_to_done(&service, spec.clone());
        run_to_done(&service, spec);
    }
    let m = service.metrics();
    assert_eq!(m.result_cache.hits, ROUNDS, "{:?}", m.result_cache);
    assert_eq!(m.result_cache.insertions, ROUNDS, "{:?}", m.result_cache);
    service.shutdown();
}

/// `keep_state` jobs are never cached: their point is the state vector,
/// which is moved out once.
#[test]
fn keep_state_jobs_bypass_the_cache() {
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let mut spec = JobSpec::new(library::bell());
    spec.keep_state = true;
    run_to_done(&service, spec.clone());
    run_to_done(&service, spec);
    let m = service.metrics();
    assert_eq!((m.result_cache.hits, m.result_cache.insertions), (0, 0), "{:?}", m.result_cache);
    service.shutdown();
}

/// The acceptance-criterion test: the result cache's occupancy is real
/// admission-ledger budget, and a submission the full ledger would
/// bounce forces the cache to shed instead — live work wins, the
/// service neither rejects nor OOMs.
#[test]
fn full_result_cache_sheds_before_starving_the_state_pool() {
    // Budget fits one 32 KiB state (ghz 12, single) *or* one fat cached
    // report (6000 samples ≈ 49 KiB), not both.
    let service = Service::start(ServiceConfig {
        workers: 1,
        memory_budget_bytes: 64 << 10,
        ..ServiceConfig::default()
    });
    let mut fat = JobSpec::new(library::ghz(12));
    fat.sample_count = 6000;
    run_to_done(&service, fat);
    let before = service.metrics();
    assert!(
        before.result_cache.occupancy_bytes > 48 << 10,
        "fat report resident: {:?}",
        before.result_cache
    );
    assert_eq!(
        before.reserved_bytes, before.result_cache.occupancy_bytes,
        "cache occupancy is charged on the admission ledger"
    );

    // A fresh 32 KiB job: 49 KiB cached + 32 KiB requested > 64 KiB, so
    // naive admission would reject with backpressure. The shed-retry
    // path must evict the cached report and admit.
    let mut live = JobSpec::new(library::ghz(12));
    live.seed = 99;
    match service.submit(live) {
        Ok(id) => {
            let status = service.wait(id, WAIT).expect("known job");
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        }
        Err(e) => panic!("live work must be admitted over cached bytes, got {e}"),
    }
    let after = service.metrics();
    assert!(after.result_cache.evictions >= 1, "cache shed an entry: {:?}", after.result_cache);
    assert!(after.result_cache.shed_bytes > 0, "{:?}", after.result_cache);
    assert_eq!(after.rejected, 0, "no submission was bounced");
    service.shutdown();
}

/// The plan-cache regression test at service level: under cap pressure
/// from a parade of distinct cold circuits, a hot circuit that keeps
/// getting traffic stays planned — the old fixed-cap map wholesale-
/// cleared and replanned it. (Result caching is off so every submit
/// exercises the planner path; seeds vary so jobs are distinct anyway.)
#[test]
fn hot_plan_survives_a_cold_circuit_parade() {
    let hot = library::ghz(8);
    let cold = |i: u64| random_circuit(6, 8, 100 + i);
    // Room for about four plans of the parade.
    let widest = (0..12)
        .map(cold)
        .chain([hot.clone()])
        .map(|circuit| QueuedJob::plan_spec(&JobSpec::new(circuit)).resident_bytes());
    let service = Service::start(ServiceConfig {
        workers: 1,
        plan_cache_budget_bytes: 4 * widest.max().expect("plans"),
        result_cache_budget_bytes: 0,
        ..ServiceConfig::default()
    });
    let mut seed = 0u64;
    let mut submit = |circuit: &Circuit| {
        seed += 1;
        let mut spec = JobSpec::new(circuit.clone());
        spec.seed = seed;
        run_to_done(&service, spec);
    };

    submit(&hot); // plans + inserts the hot circuit
    submit(&hot); // first plan hit, sets the referenced bit
    let mut hot_hits = service.metrics().plan_cache.hits;
    assert_eq!(hot_hits, 1);

    // Parade: 12 distinct cold circuits against a ~4-entry budget, with
    // hot traffic interleaved the way a steady tenant's would be.
    for wave in 0..4u64 {
        for i in 0..3u64 {
            submit(&cold(wave * 3 + i));
        }
        let before = service.metrics().plan_cache;
        submit(&hot);
        let after = service.metrics().plan_cache;
        assert_eq!(after.hits, before.hits + 1, "hot plan evicted by wave {wave}: {after:?}");
        hot_hits = after.hits;
    }
    assert_eq!(hot_hits, 5);
    let stats = service.metrics().plan_cache;
    assert!(stats.evictions > 0, "the parade did apply pressure: {stats:?}");
    service.shutdown();
}

/// The five shapes of the open-loop service mix — QFT on 10 and 14
/// qubits, 14-cycle random circuits on 12, 14 and 16 — as planned jobs.
fn mix_specs() -> Vec<JobSpec> {
    let rqc = |n| generate_rqc(&RqcOptions::for_qubits(n, 14, 2023));
    [library::qft(10), rqc(12), library::qft(14), rqc(14), rqc(16)]
        .into_iter()
        .enumerate()
        .map(|(i, circuit)| {
            let mut spec = JobSpec::new(circuit);
            (spec.seed, spec.sample_count) = (i as u64, 32);
            spec
        })
        .collect()
}

/// Each cached plan is charged what it keeps resident — its fused `f64`
/// matrices and the prepared gates the workers apply — and the jobs that
/// ran on it left that charge as it was (the form was built at insert).
#[test]
fn plan_cache_charges_the_resident_bytes_of_its_plans() {
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let specs = mix_specs();
    for spec in &specs {
        run_to_done(&service, spec.clone());
    }
    let want: u64 = specs.iter().map(|spec| QueuedJob::plan_spec(spec).resident_bytes()).sum();
    let stats = service.metrics().plan_cache;
    assert_eq!((stats.entries, stats.occupancy_bytes), (5, want), "{stats:?}");
    service.shutdown();
}
