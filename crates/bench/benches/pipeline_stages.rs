//! Scalability bench: per-stage cost of the CRED pipeline (iteration
//! bound, W/D matrices, min-period retiming, unfolding, code generation,
//! VM execution) as the DFG grows.

use cred_codegen::cred::cred_pipelined;
use cred_codegen::DecMode;
use cred_dfg::{algo, gen};
use cred_retime::min_period_retiming;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;

fn graphs() -> Vec<(usize, cred_dfg::Dfg)> {
    let mut rng = StdRng::seed_from_u64(2002);
    [10usize, 20, 40, 80]
        .into_iter()
        .map(|n| {
            (
                n,
                gen::random_dfg(
                    &mut rng,
                    &gen::RandomDfgConfig {
                        nodes: n,
                        forward_edge_prob: 0.15,
                        back_edges: n / 4,
                        max_delay: 3,
                        max_time: 2,
                    },
                ),
            )
        })
        .collect()
}

fn bench_stages(c: &mut Criterion) {
    let gs = graphs();

    let mut group = c.benchmark_group("iteration_bound");
    for (n, g) in &gs {
        group.bench_with_input(BenchmarkId::from_parameter(n), g, |b, g| {
            b.iter(|| black_box(algo::iteration_bound(black_box(g))));
        });
    }
    group.finish();

    // Plus the explore engine's largest W/D input: the 40-node graph
    // unfolded at f = 4 (160 nodes).
    let unfolded = (160, cred_unfold::unfold(&gs[2].1, 4).graph);
    let mut group = c.benchmark_group("wd_matrices");
    for (n, g) in gs.iter().chain([&unfolded]) {
        group.bench_with_input(BenchmarkId::from_parameter(n), g, |b, g| {
            b.iter(|| black_box(algo::WdMatrices::compute(black_box(g))));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("min_period_retiming");
    for (n, g) in &gs {
        group.bench_with_input(BenchmarkId::from_parameter(n), g, |b, g| {
            b.iter(|| black_box(min_period_retiming(black_box(g))));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("unfold_f4");
    for (n, g) in &gs {
        group.bench_with_input(BenchmarkId::from_parameter(n), g, |b, g| {
            b.iter(|| black_box(cred_unfold::unfold(black_box(g), 4)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("cred_codegen");
    for (n, g) in &gs {
        let r = min_period_retiming(g).retiming;
        group.bench_with_input(BenchmarkId::from_parameter(n), g, |b, g| {
            b.iter(|| black_box(cred_pipelined(black_box(g), &r, 101)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("vm_execute_n1000");
    for (n, g) in &gs {
        let r = min_period_retiming(g).retiming;
        let p = cred_pipelined(g, &r, 1000);
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            b.iter(|| black_box(cred_vm::execute(black_box(p)).unwrap()));
        });
    }
    group.finish();

    let _ = DecMode::Bulk;
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
