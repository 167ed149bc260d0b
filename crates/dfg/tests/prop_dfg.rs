//! Property tests for the DFG substrate: invariants of the analyses on
//! randomly generated well-formed graphs.

use cred_dfg::algo::WdMatrices;
use cred_dfg::{algo, gen, Dfg, DfgBuilder, OpKind, Ratio};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::path::Path;

fn graph_from(seed: u64, nodes: usize, max_delay: u32, max_time: u32) -> Dfg {
    gen::random_dfg(
        &mut StdRng::seed_from_u64(seed),
        &gen::RandomDfgConfig {
            nodes,
            forward_edge_prob: 0.35,
            back_edges: (nodes / 2).max(1),
            max_delay,
            max_time,
        },
    )
}

/// The two-array W/D oracle: Floyd–Warshall over `(delay, -time)` pairs
/// compared as tuples, `None` for unreachable. Returns `(W, D)` per pair
/// and the activation order sorted as tuples.
#[allow(clippy::type_complexity)]
fn wd_reference(g: &Dfg) -> (Vec<Option<(i64, i64)>>, Vec<(i64, u32, u32)>) {
    const INF: i64 = i64::MAX / 4;
    let n = g.node_count();
    let at = |i: usize, j: usize| i * n + j;
    let mut w = vec![INF; n * n];
    let mut neg_t = vec![INF; n * n];
    for u in 0..n {
        w[at(u, u)] = 0;
        neg_t[at(u, u)] = 0;
    }
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let (i, j) = (ed.src.index(), ed.dst.index());
        let cand = (ed.delay as i64, -(g.node(ed.src).time as i64));
        if cand < (w[at(i, j)], neg_t[at(i, j)]) {
            (w[at(i, j)], neg_t[at(i, j)]) = cand;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if w[at(i, k)] >= INF {
                continue;
            }
            for j in 0..n {
                if w[at(k, j)] >= INF {
                    continue;
                }
                let cand = (w[at(i, k)] + w[at(k, j)], neg_t[at(i, k)] + neg_t[at(k, j)]);
                if cand < (w[at(i, j)], neg_t[at(i, j)]) {
                    (w[at(i, j)], neg_t[at(i, j)]) = cand;
                }
            }
        }
    }
    let time = |v: usize| g.node(cred_dfg::NodeId(v as u32)).time as i64;
    let pairs: Vec<Option<(i64, i64)>> = (0..n * n)
        .map(|p| (w[p] < INF).then(|| (w[p], time(p % n) - neg_t[p])))
        .collect();
    let mut activation: Vec<(i64, u32, u32)> = (0..n * n)
        .filter_map(|p| pairs[p].map(|(_, d)| (d, (p / n) as u32, (p % n) as u32)))
        .collect();
    activation.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    (pairs, activation)
}

/// Assert the packed-key W/D of `g` equals the two-array oracle on every
/// accessor.
fn assert_wd_matches_reference(g: &Dfg, what: &str) {
    let wd = WdMatrices::compute(g);
    let (pairs, activation) = wd_reference(g);
    let n = g.node_count();
    for u in 0..n {
        for v in 0..n {
            let expect = pairs[u * n + v];
            assert_eq!(wd.w(u, v), expect.map(|p| p.0), "{what}: W({u}, {v})");
            assert_eq!(wd.d(u, v), expect.map(|p| p.1), "{what}: D({u}, {v})");
        }
    }
    assert_eq!(wd.activation_by_d(), &activation[..], "{what}: activation");
    let mut periods: Vec<i64> = activation.iter().map(|a| a.0).collect();
    periods.sort_unstable();
    periods.dedup();
    assert_eq!(wd.candidate_periods(), periods, "{what}: candidate periods");
}

#[test]
fn wd_matches_reference_on_kernels_and_unfoldings() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let mut kernels = 0;
    for entry in std::fs::read_dir(&dir).expect("kernels/ directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|x| x != "loop") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable kernel");
        let g = cred_lang::parse(&src).expect("bundled kernel parses");
        for f in 1..=4 {
            let u = cred_unfold::unfold(&g, f);
            assert_wd_matches_reference(&u.graph, &format!("{} f={f}", path.display()));
        }
        kernels += 1;
    }
    assert_eq!(kernels, 10, "the paper suite has ten kernels");
}

/// Two nodes of time `2^31` (so `S = 2^34`) joined both ways by edges
/// of `delay` delays: the checked bound `2 * (sum_d * S + sum_t)` is
/// `4 * delay * 2^34 + 2^33`.
fn heavy_pair(delay: u32) -> Dfg {
    let mut b = DfgBuilder::new();
    let a = b.node("A", 1 << 31, OpKind::Add(0));
    let c = b.node("B", 1 << 31, OpKind::Add(0));
    b.edge(a, c, delay);
    b.edge(c, a, delay);
    b.build().unwrap()
}

#[test]
#[should_panic(expected = "exact f64 key limit 2^53")]
fn wd_refuses_graphs_over_the_key_limit() {
    // 2^19 delays per edge: the bound is 2^55 + 2^33.
    WdMatrices::compute(&heavy_pair(1 << 19));
}

#[test]
fn wd_is_exact_just_under_the_key_limit() {
    // 2^17 - 1 delays per edge: the bound is 2^53 - 2^36 + 2^33, and
    // every accessor still matches the integer oracle.
    assert_wd_matches_reference(&heavy_pair((1 << 17) - 1), "near the key limit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wd_matches_reference_on_random_graphs_and_unfoldings(
        seed in any::<u64>(),
        nodes in 8..=40usize,
        forward_pct in 15..=50u32,
        back_edges in 1..=40usize,
        max_delay in 1..=4u32,
    ) {
        // Sparse forward edges give long minimum-delay paths, whose time
        // parts come closest to the key scale `S`.
        let g = gen::random_dfg(
            &mut StdRng::seed_from_u64(seed),
            &gen::RandomDfgConfig {
                nodes,
                forward_edge_prob: forward_pct as f64 / 100.0,
                back_edges: back_edges.min(nodes),
                max_delay,
                max_time: 3,
            },
        );
        for f in 1..=4 {
            let u = cred_unfold::unfold(&g, f);
            assert_wd_matches_reference(&u.graph, &format!("seed {seed}, {nodes} nodes, f={f}"));
        }
    }

    #[test]
    fn generated_graphs_validate(seed in any::<u64>(), nodes in 1..20usize) {
        let g = graph_from(seed, nodes, 3, 4);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn cycle_period_at_least_max_node_time(seed in any::<u64>(), nodes in 1..15usize) {
        let g = graph_from(seed, nodes, 3, 5);
        let phi = algo::cycle_period(&g).unwrap();
        let max_t = g.node_ids().map(|v| g.node(v).time as u64).max().unwrap();
        prop_assert!(phi >= max_t);
        prop_assert!(phi <= g.total_time());
    }

    #[test]
    fn iteration_bound_bounded_by_extremes(seed in any::<u64>(), nodes in 2..12usize) {
        let g = graph_from(seed, nodes, 3, 4);
        if let Some(b) = algo::iteration_bound(&g) {
            // Any cycle ratio lies in [min_t / total_d, total_t].
            prop_assert!(b > Ratio::integer(0));
            prop_assert!(b <= Ratio::integer(g.total_time() as i64));
        }
    }

    #[test]
    fn scc_partitions_nodes(seed in any::<u64>(), nodes in 1..25usize) {
        let g = graph_from(seed, nodes, 2, 2);
        let sccs = algo::strongly_connected_components(&g);
        let mut seen = vec![false; g.node_count()];
        for comp in &sccs {
            for v in comp {
                prop_assert!(!seen[v.index()], "node in two components");
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn topo_order_respects_zero_delay_edges(seed in any::<u64>(), nodes in 1..20usize) {
        let g = graph_from(seed, nodes, 3, 2);
        let order = algo::zero_delay_topo_order(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for e in g.edge_ids() {
            let ed = g.edge(e);
            if ed.delay == 0 {
                prop_assert!(pos[ed.src.index()] < pos[ed.dst.index()]);
            }
        }
    }

    #[test]
    fn wd_diagonal_and_symmetric_sanity(seed in any::<u64>(), nodes in 1..10usize) {
        let g = graph_from(seed, nodes, 2, 3);
        let wd = algo::WdMatrices::compute(&g);
        for v in 0..g.node_count() {
            prop_assert_eq!(wd.w(v, v), Some(0));
            prop_assert_eq!(wd.d(v, v), Some(g.node(cred_dfg::NodeId(v as u32)).time as i64));
        }
        // W is a shortest-path metric: triangle inequality.
        let n = g.node_count();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if let (Some(ab), Some(bc), Some(ac)) = (wd.w(a, b), wd.w(b, c), wd.w(a, c)) {
                        prop_assert!(ac <= ab + bc);
                    }
                }
            }
        }
    }

    #[test]
    fn reference_execution_deterministic(seed in any::<u64>(), nodes in 1..10usize, n in 1..30usize) {
        let g = graph_from(seed, nodes, 2, 1);
        let a = g.reference_execution(n);
        let b = g.reference_execution(n);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reference_execution_prefix_stable(seed in any::<u64>(), nodes in 1..8usize, n in 2..25usize) {
        // Computing more iterations never changes earlier ones.
        let g = graph_from(seed, nodes, 2, 1);
        let long = g.reference_execution(n);
        let short = g.reference_execution(n - 1);
        for v in 0..g.node_count() {
            prop_assert_eq!(&long[v][..n - 1], &short[v][..]);
        }
    }
}
