//! Fault plans stay on the thread that arms them: a chaos suite running
//! on one thread must not change any answer computed beside it.
//!
//! While `chaos_suite` arms a fresh plan per case on its own thread, the
//! test thread keeps running clean work that reaches the same fail-point
//! sites: a two-worker `ExploreRequest` (whose sweep workers are spawned
//! threads) and a clean `fuzz_suite`. Every clean round must match the
//! solo runs taken before the suite started, and the explore points must
//! match `sweep_reference`.

use std::sync::Barrier;

use cred_codegen::DecMode;
use cred_dfg::gen;
use cred_explore::{sweep_reference, ExploreRequest, ParetoPoint};
use cred_verify::{chaos_suite, fuzz_suite, ChaosConfig, FuzzConfig};

const MAX_F: usize = 4;
const TRIP: u64 = 60;

/// A clean two-worker exploration's points.
fn explore(g: &cred_dfg::Dfg) -> Vec<ParetoPoint> {
    let resp = ExploreRequest::new(g.clone())
        .max_f(MAX_F)
        .trip_count(TRIP)
        .mode(DecMode::Bulk)
        .threads(2)
        .run()
        .expect("an unlimited request produces a response");
    assert!(resp.report.is_clean(), "{:?}", resp.report);
    resp.points
}

/// A clean fuzz run's tallies: cases, programs diffed, cases per order.
fn fuzz() -> (usize, usize, [usize; 2]) {
    let report = fuzz_suite(&FuzzConfig {
        cases: 20,
        seed: 3,
        ..FuzzConfig::default()
    });
    if let Some(f) = report.failures.first() {
        panic!("{}: {}", f.case, f.error);
    }
    (report.cases_run, report.programs_checked, report.by_order)
}

#[test]
fn chaos_suite_leaves_concurrent_clean_runs_untouched() {
    let g = gen::chain_with_feedback(6, 3);
    let solo_points = explore(&g);
    assert_eq!(solo_points, sweep_reference(&g, MAX_F, TRIP, DecMode::Bulk));
    let solo_fuzz = fuzz();

    let start = Barrier::new(2);
    let (report, rounds) = std::thread::scope(|s| {
        let chaos = s.spawn(|| {
            start.wait();
            chaos_suite(&ChaosConfig {
                cases: 40,
                ..ChaosConfig::default()
            })
        });
        start.wait();
        // Count the rounds that start while the suite is still running.
        let mut rounds = 0;
        while !chaos.is_finished() {
            assert_eq!(explore(&g), solo_points, "round {rounds}");
            assert_eq!(fuzz(), solo_fuzz, "round {rounds}");
            rounds += 1;
        }
        (
            chaos.join().expect("the chaos suite isolates its faults"),
            rounds,
        )
    });

    assert!(rounds > 0, "no clean round overlapped the chaos suite");
    assert!(report.is_sound(), "{:#?}", report.corruptions());
    // The suite really did inject faults while the clean rounds ran.
    assert!(report.degraded + report.faulted > 0, "{report:?}");
}
