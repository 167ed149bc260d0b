//! VM executor timing report: the tree-walking interpreter against the
//! preresolved instruction tape, per bundled kernel, plus the end-to-end
//! verification oracle on both backends.
//!
//! The tape side is timed three ways: compile + execute (the lowering is
//! paid on every measurement, the same way `credc verify` pays it once
//! per generated program), and each of its two tiers on a precompiled
//! tape — the unchecked loop that preverified tapes run and the checked
//! loop that every other tape runs. Every timed program is cross-checked
//! for bit-identical results first. Prints one JSON document (the seed
//! for `BENCH_vm.json`) to stdout, or to the file given with
//! `--out <path>`. The document records the `git describe` of the
//! checkout and the host it ran on. Run it on a committed tree: a
//! `-dirty` suffix means the numbers came from uncommitted edits on top
//! of the named commit, which no one can check out again.
//!
//! ```text
//! cargo run --release -p cred-bench --bin vm_tape_report -- --out BENCH_vm.json
//! ```

use std::time::Instant;

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::{DecMode, LoopProgram};
use cred_dfg::Dfg;
use cred_explore::cache::compute_plan;
use cred_verify::{fuzz_suite, CaseConfig, Executor, FuzzConfig};
use cred_vm::{compile, cross_check_executors, execute, execute_tape};

const REPS: usize = 9;
const PASSES: usize = 5;
const N: u64 = 2048;
const F: usize = 2;
const ORACLE_CASES: usize = 60;

/// The guard-heaviest generator output for one kernel: CRED
/// retime+unfold at `F`, trip count `N`.
fn program_for(g: &Dfg) -> LoopProgram {
    let r = compute_plan(g, F).projected;
    cred_retime_unfold(g, &r, F, N, DecMode::Bulk)
}

#[derive(Clone, Copy)]
struct KernelTiming {
    tree: u128,
    tape: u128,
    unchecked: u128,
    checked: u128,
}

fn time_kernel(acc: &mut KernelTiming, name: &str, g: &Dfg) {
    let p = program_for(g);
    cross_check_executors(&p).unwrap_or_else(|d| panic!("{name}: {d}"));
    let tape_once = compile(&p).unwrap();
    assert!(
        tape_once.preverified(),
        "{name}: generated tape must preverify"
    );
    assert_eq!(
        tape_once.execute_checked().unwrap().arrays,
        tape_once.execute().unwrap().arrays,
        "{name}: the two tiers diverge"
    );
    // Interleave the sides rep by rep, so background load on a shared
    // box distorts all minima the same way instead of landing on
    // whichever side happened to run during the noisy stretch. The
    // caller sweeps the whole kernel list multiple times and min-merges
    // into `acc` for the same reason, at coarser grain.
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(execute(&p).unwrap());
        acc.tree = acc.tree.min(t.elapsed().as_nanos());
        let t = Instant::now();
        std::hint::black_box(execute_tape(&p).unwrap());
        acc.tape = acc.tape.min(t.elapsed().as_nanos());
        let t = Instant::now();
        std::hint::black_box(tape_once.execute().unwrap());
        acc.unchecked = acc.unchecked.min(t.elapsed().as_nanos());
        let t = Instant::now();
        std::hint::black_box(tape_once.execute_checked().unwrap());
        acc.checked = acc.checked.min(t.elapsed().as_nanos());
    }
}

/// End-to-end `credc verify` throughput on both backends: the same
/// deterministic case stream through the full four-layer oracle. The
/// oracle also computes the reference recurrence, generates code, checks
/// theorems, and walks the guard trace, so its speedup is much smaller
/// than the raw executor ratio — it is the factor CI's deeper budgets
/// actually bank. At the default fuzz distribution (trip <= 40) the
/// programs are so small that lowering costs about as much as the whole
/// tree-walk, so the tape only breaks even there; `deep` measures a
/// CI-shaped heavy tail (trip up to 2048) where execution dominates.
fn time_oracle(label: &str, cases: usize, case: CaseConfig) -> String {
    let cfg_for = |executor| FuzzConfig {
        cases,
        seed: 0,
        case: case.clone(),
        shrink_failures: false,
        executor,
    };
    for e in [Executor::Tree, Executor::Tape] {
        assert!(
            fuzz_suite(&cfg_for(e)).is_clean(),
            "oracle must be clean while timing"
        );
    }
    // Same pairing rationale as `time_kernel`.
    let (mut tree, mut tape) = (u128::MAX, u128::MAX);
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(fuzz_suite(&cfg_for(Executor::Tree)));
        tree = tree.min(t.elapsed().as_nanos());
        let t = Instant::now();
        std::hint::black_box(fuzz_suite(&cfg_for(Executor::Tape)));
        tape = tape.min(t.elapsed().as_nanos());
    }
    let per_sec = |total: u128| cases as f64 / (total as f64 / 1e9);
    format!(
        "  {{ \"config\": \"{label}\", \"cases\": {cases}, \"max_trip\": {}, \
         \"tree_ns\": {tree}, \"tape_ns\": {tape}, \
         \"tree_cases_per_sec\": {:.1}, \"tape_cases_per_sec\": {:.1}, \"speedup\": {:.3} }}",
        case.max_trip,
        per_sec(tree),
        per_sec(tape),
        tree as f64 / tape as f64
    )
}

/// `git describe --always --dirty` of the working directory, or
/// `"unknown"` outside a git checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model (from `/proc/cpuinfo` where there is one), OS and
/// architecture.
fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    format!("{cpu}, {}-{}", std::env::consts::OS, std::env::consts::ARCH)
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("vm_tape_report: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let kernels = [
        ("iir", cred_kernels::iir_filter()),
        ("allpole", cred_kernels::all_pole_filter()),
        ("lattice", cred_kernels::lattice_filter()),
        ("volterra", cred_kernels::volterra_filter()),
        ("elliptic", cred_kernels::elliptic_filter()),
    ];
    let mut timed = vec![
        KernelTiming {
            tree: u128::MAX,
            tape: u128::MAX,
            unchecked: u128::MAX,
            checked: u128::MAX,
        };
        kernels.len()
    ];
    for _ in 0..PASSES {
        for (acc, (name, g)) in timed.iter_mut().zip(kernels.iter()) {
            time_kernel(acc, name, g);
        }
    }
    let rows: Vec<String> = timed
        .iter()
        .zip(kernels.iter())
        .map(|(k, (name, g))| {
            format!(
                "    {{ \"name\": \"{name}\", \"nodes\": {}, \"n\": {N}, \"f\": {F}, \
                 \"tree_ns\": {}, \"tape_ns\": {}, \"unchecked_ns\": {}, \"checked_ns\": {}, \
                 \"speedup\": {:.3}, \"speedup_unchecked\": {:.3}, \"speedup_checked\": {:.3} }}",
                g.node_count(),
                k.tree,
                k.tape,
                k.unchecked,
                k.checked,
                k.tree as f64 / k.tape as f64,
                k.tree as f64 / k.unchecked as f64,
                k.tree as f64 / k.checked as f64
            )
        })
        .collect();
    let tree_total: u128 = timed.iter().map(|k| k.tree).sum();
    let tape_total: u128 = timed.iter().map(|k| k.tape).sum();
    let unchecked_total: u128 = timed.iter().map(|k| k.unchecked).sum();
    let checked_total: u128 = timed.iter().map(|k| k.checked).sum();
    let geomean_of = |side: &dyn Fn(&KernelTiming) -> u128| {
        let logs = timed.iter().map(|k| (k.tree as f64 / side(k) as f64).ln());
        (logs.sum::<f64>() / timed.len() as f64).exp()
    };
    let oracle = time_oracle("default-fuzz", ORACLE_CASES, CaseConfig::default());
    let deep = CaseConfig {
        max_trip: 2048,
        ..CaseConfig::default()
    };
    let oracle_deep = time_oracle("deep-trips", 20, deep);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str(&format!("\"commit\": {:?},\n", git_describe()));
    doc.push_str(&format!("\"host\": {:?},\n", host()));
    doc.push_str(&format!("\"machine_threads\": {cores},\n"));
    doc.push_str(&format!("\"reps_min_of\": {},\n", REPS * PASSES));
    doc.push_str(
        "\"pass\": \"one full execution of the CRED retime+unfold program \
         (tape side pays compile + execute)\",\n",
    );
    doc.push_str("\"kernels\": [\n");
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n],\n");
    doc.push_str(&format!(
        "\"aggregate\": {{ \"tree_ns\": {tree_total}, \"tape_ns\": {tape_total}, \
         \"unchecked_ns\": {unchecked_total}, \"checked_ns\": {checked_total}, \
         \"speedup_geomean\": {:.3}, \"speedup_geomean_unchecked\": {:.3}, \
         \"speedup_geomean_checked\": {:.3} }},\n",
        geomean_of(&|k| k.tape),
        geomean_of(&|k| k.unchecked),
        geomean_of(&|k| k.checked)
    ));
    doc.push_str("\"verify_oracle\": [\n");
    doc.push_str(&oracle);
    doc.push_str(",\n");
    doc.push_str(&oracle_deep);
    doc.push_str("\n]\n}\n");

    match out_path {
        Some(p) => std::fs::write(&p, &doc).expect("write --out file"),
        None => print!("{doc}"),
    }
}
