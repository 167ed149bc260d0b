//! Pins the exact scheduler's first leaf and its branch-and-bound work.
//!
//! The golden set is the first 1000 fuzz cases of seed 0 (each on the
//! machine it draws) plus every shipped kernel on `scalar`, `vliw2` and
//! `vliw4` (except `elliptic` on `vliw4`, whose exhaustive infeasibility
//! proofs take too long for a unit test). For every entry the golden file
//! records the proven II, the first schedule the search finds (`slot` and
//! `stage` per node) and the witness tag of every rejected rung.
//!
//! Rungs rejected by a closed-form screen (window, occupancy, issue
//! width) are pinned by tag. Rungs rejected by the search are
//! pinned only as `search`: pruning may turn a mid-search critical-cycle
//! promotion into an `Exhausted` certificate, which is equally valid.
//! Every search witness must still pass `check_witness`.
//!
//! The golden was made by the search before its capacity lookahead
//! existed. Pruning must never change which leaf is found first, so a
//! drifting row means the pruning cut a subtree that held a schedule. Only
//! a deliberate change to the branch order justifies regenerating it, with
//! `UPDATE_GOLDEN=1 cargo test -p cred-verify --test exact_first_leaf`.

use cred_exact::{check, exact_schedule, ExactSchedule, Infeasible, MachineModel};
use cred_verify::{random_case, CaseConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Ceiling on the summed `ExactSchedule::branches` over the golden set.
/// The search without the capacity lookahead needed 5,763,138 slot
/// trials here; with it the set takes 145,426. The ceiling leaves about
/// 1% of room: dropping any one of the lookahead's three conditions
/// costs at least 2.5% more trials and fails this gate.
const BRANCH_CEILING: u64 = 147_000;

const FUZZ_CASES: usize = 1000;
const KERNEL_MACHINES: [&str; 3] = ["scalar", "vliw2", "vliw4"];

struct Entry {
    label: String,
    graph: cred_dfg::Dfg,
    machine: MachineModel,
    sched: ExactSchedule,
}

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Every golden entry, solved once per test binary.
fn entries() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let mut inputs = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CaseConfig::default();
        for i in 0..FUZZ_CASES {
            let case = random_case(&mut rng, format!("seed0-case{i}"), &cfg);
            inputs.push((case.label, case.graph, case.machine));
        }
        let mut kernels: Vec<PathBuf> = std::fs::read_dir(manifest_path("../../kernels"))
            .expect("kernels/ directory exists")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("loop"))
            .collect();
        kernels.sort();
        for path in kernels {
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let src = std::fs::read_to_string(&path).unwrap();
            let g = cred_lang::parse(&src).unwrap_or_else(|e| panic!("{stem}: {e}"));
            for name in KERNEL_MACHINES {
                if stem == "elliptic" && name == "vliw4" {
                    continue;
                }
                let m = MachineModel::builtin(name).expect("builtin machine");
                inputs.push((stem.clone(), g.clone(), m));
            }
        }
        inputs
            .into_iter()
            .map(|(label, graph, machine)| {
                let sched = exact_schedule(&graph, &machine);
                Entry {
                    label,
                    graph,
                    machine,
                    sched,
                }
            })
            .collect()
    })
}

/// Witness tag of a rejected rung: the closed-form screens by name,
/// anything the search produced as `search`.
fn rung_tag(w: &Infeasible) -> &'static str {
    match w {
        Infeasible::OpExceedsWindow { .. } => "window",
        Infeasible::ResourceCap { .. } => "resource-cap",
        Infeasible::IssueWidth { .. } => "issue-width",
        Infeasible::CriticalCycle { .. } | Infeasible::Exhausted { .. } => "search",
    }
}

fn join<T: ToString>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

fn row(e: &Entry) -> String {
    let tags: Vec<&str> = e
        .sched
        .rejected
        .iter()
        .map(|r| rung_tag(&r.witness))
        .collect();
    format!(
        "{} {} ii={} slot={} stage={} rungs={}",
        e.label,
        e.machine.name,
        e.sched.ii,
        join(&e.sched.slot),
        join(&e.sched.stage),
        if tags.is_empty() {
            "-".to_string()
        } else {
            tags.join(",")
        }
    )
}

#[test]
fn first_leaf_and_screens_match_the_golden() {
    let mut actual = String::new();
    for e in entries() {
        writeln!(actual, "{}", row(e)).unwrap();
    }
    let path = manifest_path("tests/golden/exact_first_leaf.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 and commit it");
    let expected: Vec<&str> = expected.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    assert_eq!(actual.len(), expected.len(), "golden row count drifted");
    for (a, x) in actual.iter().zip(&expected) {
        assert_eq!(a, x, "exact schedule drifted from the golden");
    }
}

#[test]
fn every_golden_schedule_and_witness_checks() {
    for e in entries() {
        check::check_schedule(&e.graph, &e.machine, &e.sched)
            .unwrap_or_else(|err| panic!("{} {}: {err}", e.label, e.machine.name));
        for rung in &e.sched.rejected {
            check::check_witness(&e.graph, &e.machine, rung).unwrap_or_else(|err| {
                panic!("{} {} II {}: {err}", e.label, e.machine.name, rung.ii)
            });
        }
    }
}

#[test]
fn branch_work_stays_under_the_committed_ceiling() {
    let total: u64 = entries().iter().map(|e| e.sched.branches).sum();
    assert!(
        total <= BRANCH_CEILING,
        "the golden set took {total} slot trials, over the ceiling {BRANCH_CEILING}"
    );
}
