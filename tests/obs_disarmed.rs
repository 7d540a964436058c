//! The disarmed cost of the `ids-obs` instrumentation: with tracing off, no
//! observer installed and metrics disarmed, each entry point the pipeline
//! and the solver call is one relaxed atomic load. It allocates nothing,
//! evaluates no payload closure and buffers no event.
//!
//! This is its own test binary because it installs a counting global
//! allocator and reads the process-wide totals, which a concurrently running
//! test would add to.

use intrinsic_verify::obs::{self, alloc::CountingAlloc, Metric};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROUNDS: u64 = 10_000;

fn allocations() -> u64 {
    obs::alloc::stats().allocations
}

/// Makes the instrumentation calls of `ROUNDS` VCs on a fresh thread, so a
/// thread-local's first use counts too, and returns the allocations the
/// process made meanwhile.
fn allocations_in_rounds() -> u64 {
    std::thread::spawn(|| {
        let before = allocations();
        for i in 0..ROUNDS {
            // The per-VC scope of the pipeline, then the solver's phases.
            obs::vc_begin("vc");
            let mut vc = obs::span_with("vc", || format!("vc {i}"));
            let mut sat = obs::SegmentedSpan::new("sat");
            obs::record_metric(Metric::RestartSegmentUs, i);
            sat.restart(|| format!("restart {i}"));
            drop(sat);
            obs::instant_with("cache_hit", || format!("hit {i}"));
            vc.note(|| format!("pivots {i}"));
            drop(vc);
            assert!(obs::vc_take().is_empty(), "metrics recorded while disarmed");
            obs::set_task(None);
        }
        allocations() - before
    })
    .join()
    .expect("instrumentation thread")
}

#[test]
fn disarmed_instrumentation_allocates_and_records_nothing() {
    assert!(!obs::active() && !obs::tracing() && !obs::metrics_active());

    // The test harness's main thread can allocate once while this test
    // starts, so the rounds run three times: instrumentation that allocates,
    // on every call or on a thread's first use, does so in each of them.
    let counts: Vec<u64> = (0..3).map(|_| allocations_in_rounds()).collect();
    assert!(
        counts.contains(&0),
        "allocations in three runs of {ROUNDS} disarmed rounds: {counts:?}"
    );
    assert!(
        obs::trace_stop().is_empty(),
        "disarmed instrumentation buffered trace events"
    );

    // Positive control: armed, the same calls allocate and buffer events.
    obs::trace_start();
    let armed = allocations_in_rounds();
    let lanes = obs::trace_stop();
    assert!(armed >= ROUNDS, "{armed} allocations in armed rounds");
    let events: usize = lanes.iter().map(|l| l.events.len()).sum();
    assert!(events as u64 >= ROUNDS, "{events} events in armed rounds");
}
