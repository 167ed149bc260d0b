//! `verify-fuzz`: the differential fuzzer's default case stream (the
//! traffic CI runs), each case verified through `verify_case_on` on the
//! tape executor: VM compile and execute, the exact branch-and-bound and
//! the six oracle layers.
//!
//! The stream has a heavy tail in the exact search: at one seed in a few
//! hundred cases its branch-and-bound runs for seconds, and one case in
//! the first 6000 of seed 103 ran 22 s. Set-up therefore screens the
//! drawn cases with a work-unit-limited exact search and leaves out the
//! ones it cannot finish (`verify.skipped_cases`); the timed phase cycles
//! over the remaining pool. Work units are deterministic, so the pool is
//! the same on every run at one seed.

use std::time::Instant;

use cred_exact::exact_schedule_budgeted;
use cred_explore::cache::compute_plan;
use cred_resilience::Budget;
use cred_verify::{
    case_programs, fuzz_suite, random_case, verify_case_on, Case, CaseConfig, Executor, FuzzConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::{self, Counters};
use crate::{
    e2e_metrics, median, metric, process_cpu_s, repeat_setup, replay_metrics, replay_passes, Meter,
    Outcome, Timed,
};

/// Cases drawn from the stream in set-up.
const DRAWN: usize = 2000;
/// Exact-search work units past which a drawn case is left out of the
/// pool. A typical case needs tens of units and the 99th percentile
/// about 10^5; about one case in a hundred is left out.
const EXACT_WORK_LIMIT: u64 = 100_000;
/// Prefix of the stream run through `fuzz_suite` itself after the timed
/// phase, as a cross-check of the pool; it stops early at the first
/// screened-out case.
const SUITE: usize = 200;
/// Pooled cases the traced run replays layer by layer.
const TRACED: usize = 300;

struct Pool {
    cases: Vec<Case>,
    skipped: usize,
    /// Length of the stream prefix with no screened-out case (at most
    /// `SUITE`): there the pool is exactly `fuzz_suite`'s stream.
    suite_len: usize,
}

/// Set-up: draw the first `DRAWN` cases of `fuzz_suite`'s stream at this
/// seed (same generator, same labels) and screen them.
fn setup(seed: u64) -> Result<Pool, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::with_capacity(DRAWN);
    let mut skipped = 0;
    let mut suite_len = SUITE;
    for i in 0..DRAWN {
        let case = random_case(
            &mut rng,
            format!("seed{seed}-case{i}"),
            &CaseConfig::default(),
        );
        let budget = Budget::unlimited().with_work_limit(EXACT_WORK_LIMIT);
        if exact_schedule_budgeted(&case.graph, &case.machine, &budget).is_ok() {
            cases.push(case);
        } else {
            skipped += 1;
            suite_len = suite_len.min(i);
        }
    }
    if cases.is_empty() {
        return Err("every drawn case was screened out".into());
    }
    Ok(Pool {
        cases,
        skipped,
        suite_len,
    })
}

fn cred_size(rep: &cred_verify::CaseReport) -> u64 {
    rep.programs
        .iter()
        .filter(|p| p.name.starts_with("cred"))
        .map(|p| p.code_size as u64)
        .sum()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (pool, setup_s) = repeat_setup(|| setup(seed))?;
    let suite_len = pool.suite_len;

    let mut failed = 0u64;
    let mut fail = |why: String| {
        eprintln!("verify-fuzz: {why}");
        failed += 1;
    };
    let mut timed = Timed::default();
    let mut cred_size_total = 0u64;
    let mut suite_programs = 0usize;
    let mut traced_cases = Vec::with_capacity(TRACED);
    let meter = Meter::start();
    // The process CPU clock at each pass boundary: every pass does the
    // same work, so the median pass is the machine's noise filtered out.
    let mut pass_cpu_s = vec![process_cpu_s()];
    let mut i = 0usize;
    // At least one full pass over the pool, then whole or partial passes
    // until the time is up.
    while i < pool.cases.len() || meter.start.elapsed().as_secs_f64() < seconds {
        let case = &pool.cases[i % pool.cases.len()];
        let t0 = Instant::now();
        let res = verify_case_on(case, Executor::Tape);
        timed.record(meter.start, t0);
        match res {
            Ok(rep) if i < pool.cases.len() => {
                cred_size_total += cred_size(&rep);
                // The pool keeps the stream's order, so up to the first
                // screened-out case it is exactly `fuzz_suite`'s prefix.
                if i < suite_len {
                    suite_programs += rep.programs.len();
                }
                if i < TRACED && trace {
                    traced_cases.push((case.clone(), rep));
                }
            }
            Ok(_) => {}
            Err(e) => fail(format!("{case}: {e}")),
        }
        i += 1;
        if i.is_multiple_of(pool.cases.len()) {
            pass_cpu_s.push(process_cpu_s());
        }
    }
    meter.stop(&mut timed);
    let suite = fuzz_suite(&FuzzConfig {
        cases: suite_len,
        seed,
        executor: Executor::Tape,
        ..FuzzConfig::default()
    });
    if !suite.is_clean() || suite.programs_checked != suite_programs {
        fail(format!(
            "fuzz_suite: {} failures, {} programs checked, the per-case loop {suite_programs}",
            suite.failures.len(),
            suite.programs_checked
        ));
    }
    let attempted = i as u64;
    let mut per_pass: Vec<f64> = pass_cpu_s
        .windows(2)
        .map(|w| (w[1] - w[0]) * 1e6 / pool.cases.len() as f64)
        .collect();
    let mut e2e = e2e_metrics(
        setup_s,
        median(&mut per_pass),
        &timed,
        attempted,
        failed,
        cred_size_total,
    );
    e2e.push(metric("verify.skipped_cases", pool.skipped as f64));

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if trace {
        let mut oracle_ns = Vec::new();
        let r = replay_passes(seconds / 2.0, |t| {
            let mut c = Counters::default();
            let mut bad = 0;
            let mut pass_oracle_ns = 0u64;
            for (id, (case, rep)) in traced_cases.iter().enumerate() {
                let id = id as u64;
                replay::case_work(case, &mut c);
                let (programs, plan, ii, executed) = t.span("verify.case", id, |t| {
                    let (mut programs, plan) = replay::case_programs(t, id, case, &mut c);
                    let (sched, exact_program) =
                        replay::exact(t, id, &case.graph, &case.machine, case.n, &mut c);
                    programs.push(exact_program);
                    let executed: Vec<Option<u64>> = programs
                        .iter()
                        .map(|p| {
                            replay::execute(t, id, p, &mut c)
                                .ok()
                                .map(|res| res.computes_executed)
                        })
                        .collect();
                    (programs, plan, sched.ii, executed)
                });
                // The replay must rebuild what the oracle built.
                let t0 = Instant::now();
                let oracle = verify_case_on(case, Executor::Tape);
                pass_oracle_ns += t0.elapsed().as_nanos() as u64;
                let mut want = case_programs(case);
                want.push(programs.last().expect("exact program pushed").clone());
                let same_plan = plan.is_none_or(|p| p == compute_plan(&case.graph, case.f));
                let same_runs = rep.programs.len() == executed.len()
                    && rep
                        .programs
                        .iter()
                        .zip(&executed)
                        .all(|(p, e)| Some(p.computes_executed) == *e);
                let ok = oracle.is_ok()
                    && programs == want
                    && same_plan
                    && ii == rep.exact_ii
                    && same_runs;
                bad += u64::from(!ok);
            }
            oracle_ns.push(pass_oracle_ns as f64);
            (c, traced_cases.len() as u64, bad)
        });
        failed += r.failed;
        // Shares are taken of the real verify time. The oracle's own work
        // is everything `verify_case_on` spends beyond one replay of the
        // layer calls it makes: its checks plus the calls it repeats.
        layers = replay_metrics(&r, Some(median(&mut oracle_ns) as u64));
        spans = r.spans;
    }
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        spans,
    })
}
