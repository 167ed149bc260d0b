//! `serve-warm`: an in-process `Server` answering the committed kernels
//! from a warm cache. An open-loop phase at a fixed rate on one
//! pipelined connection, then a closed-loop saturation phase on two
//! connections.
//!
//! The process CPU time per request comes from the open-loop phase: at a
//! fixed offered load every request pays the same wake-up chain, so it
//! repeats far better than in the saturation phase, where how many
//! requests share a wake-up varies from run to run. The wall-clock
//! throughput and latencies come from the saturation phase. The open-loop latencies are reported with the per-layer
//! metrics, next to the generator's lateness: on a small shared host the
//! writer thread wakes late by about as much as the open-loop p99, so
//! that p99 measures the generator's scheduling more than the server.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cred_codegen::DecMode;
use cred_dfg::Dfg;
use cred_explore::cache::SweepCache;
use cred_explore::suite::load_kernels;
use cred_explore::{frontier, ExploreRequest, ParetoPoint};
use cred_service::json::{self, Json};
use cred_service::{Server, ServiceConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::check::{body_of, check_response_line, explore_body};
use crate::replay::{self, counting_budget, Counters};
use crate::{
    e2e_metrics, metric, percentile, repeat_setup, replay_metrics, replay_passes, Meter, Outcome,
    Timed,
};

const MAX_F: usize = 3;
const TRIP_COUNTS: [u64; 3] = [31, 100, 1001];
const MODES: [(DecMode, &str); 2] = [(DecMode::Bulk, "bulk"), (DecMode::PerCopy, "per-copy")];
const WORKERS: usize = 2;
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 1000.0;

/// One entry of the request mix, with the body a cold run renders.
struct Req {
    kernel: String,
    n: u64,
    mode: DecMode,
    mode_name: &'static str,
    body: String,
    /// CRED instructions over the cold run's points.
    cred_size: u64,
}

impl Req {
    fn line(&self, id: u64) -> String {
        format!(
            "{{\"type\":\"explore\",\"id\":{id},\"kernel\":\"{}\",\"max_f\":{MAX_F},\"n\":{},\"mode\":\"{}\"}}\n",
            self.kernel, self.n, self.mode_name
        )
    }
}

/// A running server and one connection to it.
struct Live {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), cred_explore::CredError>>,
    conn: BufReader<TcpStream>,
}

impl Live {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.conn
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        read_line(&mut self.conn)
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"type\":\"shutdown\"}\n")?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

fn read_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut s = String::new();
    match r.read_line(&mut s) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(s.trim_end_matches('\n').to_string()),
        Err(e) => Err(format!("read: {e}")),
    }
}

fn connect(addr: SocketAddr) -> Result<BufReader<TcpStream>, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(BufReader::new(s))
}

/// Set-up: load the kernels, build the request mix in seeded order with
/// each entry's cold in-process answer (the oracle table), bind and start
/// the server, and warm its cache with one checked pass over the mix.
/// The request mix, the kernels by name, and the warmed server.
type Setup = (Vec<Req>, HashMap<String, Dfg>, Live);

fn setup(seed: u64) -> Result<Setup, String> {
    let kernels =
        load_kernels(Path::new("kernels")).map_err(|e| format!("loading kernels: {e}"))?;
    if kernels.is_empty() {
        return Err("no kernels/*.loop found".into());
    }
    let mut mix = Vec::new();
    for (name, g) in &kernels {
        for n in TRIP_COUNTS {
            for (mode, mode_name) in MODES {
                let cold = ExploreRequest::new(g.clone())
                    .max_f(MAX_F)
                    .trip_count(n)
                    .mode(mode)
                    .run()
                    .map_err(|e| format!("cold run of {name}: {e}"))?;
                mix.push(Req {
                    kernel: name.clone(),
                    n,
                    mode,
                    mode_name,
                    body: explore_body(&cold)?,
                    cred_size: cold
                        .points
                        .iter()
                        .map(|p| p.objectives.cred_size as u64)
                        .sum(),
                });
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.random_range(0..=i));
    }
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        kernels_dir: Some(PathBuf::from("kernels")),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let thread = std::thread::spawn(move || server.run());
    let mut live = Live {
        addr,
        thread,
        conn: connect(addr)?,
    };
    for (id, req) in mix.iter().enumerate() {
        let line = live.call(&req.line(id as u64))?;
        check_response_line(&line, id as u64, &req.body)?;
    }
    Ok((mix, kernels.into_iter().collect(), live))
}

/// The open-loop phase: a writer thread sends request `i` at
/// `start + i / RATE` on one connection while a reader thread takes the
/// responses in order. Latency runs from each request's due time, so a
/// stall also charges the requests queued behind it. Returns the timed
/// responses, the generator's lateness in µs, and the mismatches.
fn open_loop(live: &Live, mix: &[Req], seconds: f64) -> Result<(Timed, Vec<f64>, u64), String> {
    let total = (seconds * RATE).round().max(1.0) as usize;
    let meter = Meter::start();
    let mut reader = connect(live.addr)?;
    let mut writer = reader
        .get_ref()
        .try_clone()
        .map_err(|e| format!("clone: {e}"))?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    std::thread::scope(|s| {
        let w = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut late = Vec::with_capacity(total);
            for i in 0..total {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(at.elapsed().as_secs_f64() * 1e6);
                let line = mix[i % mix.len()].line(i as u64);
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("write: {e}"))?;
            }
            Ok(late)
        });
        let r = s.spawn(move || -> Result<(Timed, u64), String> {
            let mut timed = Timed::default();
            let mut bad = 0;
            for i in 0..total {
                let line = read_line(&mut reader)?;
                timed.record(start, due(i));
                if let Err(e) = check_response_line(&line, i as u64, &mix[i % mix.len()].body) {
                    eprintln!("serve-warm: {e}");
                    bad += 1;
                }
            }
            Ok((timed, bad))
        });
        let late = w.join().map_err(|_| "writer panicked".to_string())??;
        let (mut timed, bad) = r.join().map_err(|_| "reader panicked".to_string())??;
        meter.stop(&mut timed);
        Ok((timed, late, bad))
    })
}

/// The saturation phase: two closed-loop clients on their own
/// connections for `seconds`. Returns the timed responses and the
/// mismatches.
fn closed_loop(live: &Live, mix: &[Req], seconds: f64) -> Result<(Timed, u64), String> {
    let meter = Meter::start();
    let start = meter.start;
    let results: Vec<Result<(Timed, u64), String>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|c| {
                s.spawn(move || -> Result<(Timed, u64), String> {
                    let mut conn = connect(live.addr)?;
                    let mut timed = Timed::default();
                    let (mut done, mut bad) = (0u64, 0u64);
                    while start.elapsed().as_secs_f64() < seconds {
                        let t0 = Instant::now();
                        let id = done * 2 + c;
                        let req = &mix[id as usize % mix.len()];
                        conn.get_mut()
                            .write_all(req.line(id).as_bytes())
                            .map_err(|e| format!("write: {e}"))?;
                        let line = read_line(&mut conn)?;
                        timed.record(start, t0);
                        if let Err(e) = check_response_line(&line, id, &req.body) {
                            eprintln!("serve-warm: {e}");
                            bad += 1;
                        }
                        done += 1;
                    }
                    Ok((timed, bad))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().map_err(|_| "client panicked".to_string())?)
            .collect()
    });
    let mut all = Timed::default();
    meter.stop(&mut all);
    let mut bad = 0;
    for r in results {
        let (t, b) = r?;
        all.merge(t);
        bad += b;
    }
    Ok((all, bad))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut servers = Vec::new();
    let ((mix, kernels), setup_s) = repeat_setup(|| {
        let (mix, kernels, live) = setup(seed)?;
        servers.push(live);
        Ok((mix, kernels))
    })?;
    let mut live = servers.pop().expect("set-up ran");
    for old in servers {
        old.shutdown()?;
    }

    let (open, mut late, open_bad) = open_loop(&live, &mix, seconds / 2.0)?;
    let (closed, closed_bad) = closed_loop(&live, &mix, seconds / 2.0)?;
    let stats_line = live.call("{\"type\":\"stats\"}\n")?;
    live.shutdown()?;
    let stats = json::parse(&stats_line)
        .ok()
        .and_then(|v| v.get("stats").cloned())
        .ok_or_else(|| format!("malformed stats response: {stats_line}"))?;
    let stat = |path: &[&str]| -> f64 {
        let mut v = Some(&stats);
        for k in path {
            v = v.and_then(|j| j.get(k));
        }
        v.and_then(Json::as_u64).unwrap_or(0) as f64
    };

    let attempted = (open.done_s.len() + closed.done_s.len()) as u64;
    let mut failed = open_bad + closed_bad;
    // Every response on the wire is checked; the mix's cold points sum
    // into `cred_size_total`, which depends on the mix alone.
    let cred_size_total = mix.iter().map(|r| r.cred_size).sum();
    // CPU per request comes from the open-loop phase, where the offered
    // load is fixed; the wall-clock figures from the saturation phase (see
    // the module comment).
    let e2e = e2e_metrics(
        setup_s,
        open.cpu_us_per_op(),
        &closed,
        attempted,
        failed,
        cred_size_total,
    );

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if trace {
        // The replay follows a warm request: parse, plan-cache hits (no
        // solver), code generation and maxlive per factor, rendering.
        let cache = SweepCache::new();
        for req in &mix {
            let g = &kernels[&req.kernel];
            ExploreRequest::new(g.clone())
                .max_f(MAX_F)
                .run_with(&cache)
                .map_err(|e| format!("warming the replay cache: {e}"))?;
        }
        let r = replay_passes(seconds / 2.0, |t| {
            let mut c = Counters::default();
            let mut bad = 0;
            let (hits, misses) = (cache.hits(), cache.misses());
            let budget = counting_budget();
            for (id, req) in mix.iter().enumerate() {
                let id = id as u64;
                let line = req.line(id);
                let body = t.span("explore.request", id, |t| {
                    let parsed = t.span("service.json.decode", id, |_| json::parse(&line));
                    let kernel = parsed.ok()?.get("kernel")?.as_str()?.to_string();
                    let g = &kernels[&kernel];
                    let points: Vec<ParetoPoint> = (1..=MAX_F)
                        .map(|f| {
                            let (plan, _) = t
                                .span("explore.cache.probe", id, |_| {
                                    cache.plan_budgeted(g, f, &budget)
                                })
                                .expect("a counting budget never binds");
                            replay::point(t, id, g, f, &plan, req.n, req.mode, &mut c)
                        })
                        .collect();
                    let front = frontier(&points, None);
                    Some(t.span("service.json.encode", id, |_| body_of(&points, &front)))
                });
                bad += u64::from(body.as_deref() != Some(req.body.as_str()));
            }
            c.cache_hits = cache.hits() - hits;
            c.cache_misses = cache.misses() - misses;
            c.retime_work = budget.work_used();
            bad += c.cache_misses;
            (c, mix.len() as u64, bad)
        });
        failed += r.failed;
        layers = replay_metrics(&r, None);
        spans = r.spans;
        layers.extend([
            metric("service.explore_computes", stat(&["explore_computes"])),
            metric("service.coalesced_joins", stat(&["coalesced_joins"])),
            metric("service.shed", stat(&["shed_requests"])),
            metric(
                "service.compute_p50_us",
                stat(&["explore_latency", "p50_us"]),
            ),
            metric("loadgen.late_p99_us", percentile(&mut late, 99.0)),
            metric(
                "loadgen.open_p50_us",
                percentile(&mut open.latency_us.clone(), 50.0),
            ),
            metric("loadgen.open_p99_us", open.p99_us()),
        ]);
    }
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        spans,
    })
}
