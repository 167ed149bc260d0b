//! `explore-cold`: a seeded stream of distinct DFGs, each explored once
//! through `ExploreRequest::run_with` against a fresh cache, so every
//! plan probe misses and the W/D matrices, the retiming solver and
//! unfolding do the work.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use cred_codegen::DecMode;
use cred_dfg::gen::{random_dfg, RandomDfgConfig};
use cred_dfg::Dfg;
use cred_explore::cache::SweepCache;
use cred_explore::suite::load_kernels;
use cred_explore::{sweep_reference, ExploreRequest, ParetoPoint};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::check::check_points;
use crate::replay::{self, Counters};
use crate::{e2e_metrics, repeat_setup, replay_metrics, replay_passes, Meter, Outcome, Timed};

const MAX_F: usize = 4;
const THREADS: usize = 2;
/// Node counts of the random graphs: the span of the committed kernels.
const NODES: std::ops::RangeInclusive<usize> = 8..=40;
/// Ops checked against `sweep_reference` and replayed by the traced run.
const CHECKED: usize = 40;
/// Ops whose points sum into `cred_size_total`. Every run explores at
/// least these, so the figure depends on the seed alone.
const SIZED: usize = 200;

/// One explore op: a graph plus the trip count and decrement mode.
pub struct Op {
    pub graph: Dfg,
    pub n: u64,
    pub mode: DecMode,
}

/// The seeded op stream: the committed kernels once each, in seeded
/// order, then random DFGs. Node counts run through shuffled blocks of
/// every size in `NODES`, so each block weighs every size equally; a
/// graph whose fingerprint was already drawn is skipped.
pub struct Stream {
    rng: StdRng,
    kernels: Vec<Dfg>,
    sizes: Vec<usize>,
    seen: HashSet<u64>,
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

impl Stream {
    pub fn new(seed: u64, kernels: Vec<Dfg>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernels = kernels;
        shuffle(&mut rng, &mut kernels);
        kernels.reverse();
        Stream {
            rng,
            kernels,
            sizes: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn next_graph(&mut self) -> Dfg {
        if let Some(g) = self.kernels.pop() {
            self.seen.insert(g.fingerprint());
            return g;
        }
        loop {
            if self.sizes.is_empty() {
                self.sizes = NODES.collect();
                shuffle(&mut self.rng, &mut self.sizes);
            }
            let nodes = self.sizes.pop().expect("refilled above");
            let rng = &mut self.rng;
            let cfg = RandomDfgConfig {
                nodes,
                forward_edge_prob: rng.random_range(15..=50u32) as f64 / 100.0,
                back_edges: rng.random_range(1..=nodes),
                max_delay: rng.random_range(1..=4u32),
                max_time: rng.random_range(1..=3u32),
            };
            let g = random_dfg(rng, &cfg);
            if self.seen.insert(g.fingerprint()) {
                return g;
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        let graph = self.next_graph();
        let n = self.rng.random_range(16..=1024u64);
        let mode = if self.rng.random_bool(0.5) {
            DecMode::Bulk
        } else {
            DecMode::PerCopy
        };
        Op { graph, n, mode }
    }
}

fn request(op: &Op) -> ExploreRequest {
    ExploreRequest::new(op.graph.clone())
        .max_f(MAX_F)
        .trip_count(op.n)
        .mode(op.mode)
        .threads(THREADS)
}

/// The stream after the checked prefix, the prefix, and its reference
/// points.
type Setup = (Stream, Vec<Op>, Vec<Vec<ParetoPoint>>);

/// Set-up: load the kernels, draw the checked prefix, and compute its
/// reference points (the oracle table).
fn setup(seed: u64) -> Result<Setup, String> {
    let kernels =
        load_kernels(Path::new("kernels")).map_err(|e| format!("loading kernels: {e}"))?;
    if kernels.is_empty() {
        return Err("no kernels/*.loop found".into());
    }
    let mut stream = Stream::new(seed, kernels.into_iter().map(|(_, g)| g).collect());
    let prefix: Vec<Op> = (0..CHECKED).map(|_| stream.next_op()).collect();
    let reference = prefix
        .iter()
        .map(|op| sweep_reference(&op.graph, MAX_F, op.n, op.mode))
        .collect();
    Ok((stream, prefix, reference))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let ((mut stream, prefix, reference), setup_s) = repeat_setup(|| setup(seed))?;

    let mut failed = 0u64;
    let mut timed = Timed::default();
    let meter = Meter::start();
    let start = meter.start;
    let mut cred_size_total = 0u64;
    let mut kept = Vec::with_capacity(CHECKED);
    let mut fail = |why: String| {
        eprintln!("explore-cold: {why}");
        failed += 1;
    };
    let mut prefix = prefix.into_iter();
    let mut i = 0usize;
    while i < SIZED || start.elapsed().as_secs_f64() < seconds {
        let op = prefix.next().unwrap_or_else(|| stream.next_op());
        let req = request(&op);
        let cache = SweepCache::new();
        let t0 = Instant::now();
        let resp = req.run_with(&cache);
        timed.record(start, t0);
        match resp {
            Ok(resp) if resp.report.is_clean() && resp.points.len() == MAX_F => {
                if i < SIZED {
                    cred_size_total += resp
                        .points
                        .iter()
                        .map(|p| p.objectives.cred_size as u64)
                        .sum::<u64>();
                }
                if i < CHECKED {
                    if let Err(e) = check_points(&resp.points, &reference[i]) {
                        fail(format!("op {i}: {e}"));
                    }
                    kept.push((op, resp, cache));
                }
            }
            Ok(_) => fail(format!("op {i}: degraded, failed or missing points")),
            Err(e) => fail(format!("op {i}: {e}")),
        }
        i += 1;
    }
    meter.stop(&mut timed);
    let attempted = i as u64;
    let e2e = e2e_metrics(
        setup_s,
        timed.cpu_us_per_op(),
        &timed,
        attempted,
        failed,
        cred_size_total,
    );

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if trace {
        let r = replay_passes(seconds / 2.0, |t| {
            let mut c = Counters::default();
            let mut bad = 0;
            for (id, (op, resp, cache)) in kept.iter().enumerate() {
                let id = id as u64;
                let g = &op.graph;
                c.retime_work += (1..=MAX_F).map(|f| replay::plan_work(g, f)).sum::<u64>();
                let points: Vec<ParetoPoint> = t.span("explore.request", id, |t| {
                    (1..=MAX_F)
                        .map(|f| {
                            let plan = replay::plan(t, id, g, f, &mut c);
                            let cached = t.span("explore.cache.probe", id, |_| cache.plan(g, f));
                            bad += u64::from(*cached != plan);
                            replay::point(t, id, g, f, &plan, op.n, op.mode, &mut c)
                        })
                        .collect()
                });
                bad += u64::from(points != resp.points);
                c.cache_hits += resp.cache.hits;
                c.cache_misses += resp.cache.misses;
            }
            (c, kept.len() as u64, bad)
        });
        failed += r.failed;
        layers = replay_metrics(&r, None);
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
