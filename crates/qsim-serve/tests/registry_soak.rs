//! A million result-cache hits through one `Service`, each result read:
//! the process's high-water mark must not track the number of jobs
//! served. Alone in its file because `VmHWM` is per process. In release
//! it takes seconds, in debug minutes, hence the `ignore`:
//!
//! ```text
//! cargo test --release -p qsim-serve --test registry_soak -- --ignored
//! ```

use std::time::Duration;

use qsim_circuit::library;
use qsim_serve::{JobSpec, JobState, Service, ServiceConfig, RETAINED_TERMINAL};

const JOBS: usize = 1_000_000;
const FIRST_READ: usize = 100_000;
/// Growth allowed from job 100 K to job 1 M. The verdict log adds 5 B a
/// job (≈ 4.3 MiB over these 900 K); keeping every record whole adds
/// ≈ 470 MiB.
const HWM_GROWTH_BOUND_KIB: u64 = 16 << 10;

/// `VmHWM` of this process, KiB (`None` off Linux).
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "a million jobs: run in release with --ignored"]
fn a_million_cached_jobs_hold_the_high_water_mark() {
    let Some(_) = vm_hwm_kib() else {
        eprintln!("no /proc/self/status VmHWM: skipped");
        return;
    };
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let mut spec = JobSpec::new(library::ghz(11));
    spec.sample_count = 32;
    let warm = service.submit(spec.clone()).expect("submit");
    let status = service.wait(warm, Duration::from_secs(60)).expect("known id");
    assert_eq!(status.state, JobState::Done);

    let mut at_first_read = 0;
    for i in 1..=JOBS {
        let id = service.submit(spec.clone()).expect("cache hit");
        assert_eq!(service.result(id).expect("born done").samples.len(), 32);
        if i == FIRST_READ {
            at_first_read = vm_hwm_kib().unwrap();
        }
    }
    let at_end = vm_hwm_kib().unwrap();
    let m = service.metrics();
    eprintln!(
        "VmHWM {at_first_read} KiB at job {FIRST_READ}, {at_end} KiB at job {JOBS}; \
         {} records, {} aged out",
        m.registry_records, m.registry_aged_out
    );
    assert!(m.registry_records <= RETAINED_TERMINAL, "{} records", m.registry_records);
    assert_eq!(m.registry_aged_out as usize, JOBS + 1 - RETAINED_TERMINAL);
    assert!(
        at_end - at_first_read <= HWM_GROWTH_BOUND_KIB,
        "VmHWM grew {} KiB from job {FIRST_READ} to job {JOBS}",
        at_end - at_first_read
    );
    service.shutdown();
}
