//! Iteration bound `B(G) = max_{cycles C} T(C) / D(C)`, computed exactly.
//!
//! Every dependence cycle imposes a lower bound `T(C)/D(C)` on the average
//! time per iteration; the maximum over all cycles is the *iteration bound*.
//! A schedule is rate-optimal when its iteration period equals `B(G)`.
//!
//! The maximum cycle ratio is found by Lawler-style bisection: for a
//! candidate ratio `lambda = p/q`, some cycle has ratio `> lambda` iff the
//! graph with edge weights `w(e) = q * t(src(e)) - p * d(e)` contains a
//! positive cycle (every cycle carries at least one delay in a well-formed
//! DFG, so the denominator `D(C)` is never zero). Positive cycles are
//! detected with Bellman–Ford. The bisection runs on exact rationals and
//! terminates by snapping to the unique ratio with denominator at most the
//! total delay count — so the result is exact, never a float approximation.

use std::fmt;

use crate::{Dfg, Ratio};

/// The bisection's search range, the graph's total computation time over
/// a power-of-two grid finer than `1 / total_delays^2`, does not fit in
/// `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundRangeOverflow {
    /// Sum of all node computation times.
    pub total_time: u64,
    /// Sum of all edge delays.
    pub total_delays: u64,
}

impl fmt::Display for BoundRangeOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iteration bound: the search range, total time {} on a grid finer than \
             1/{}^2, overflows the i64 limit 2^63",
            self.total_time, self.total_delays
        )
    }
}

impl std::error::Error for BoundRangeOverflow {}

/// True iff some cycle `C` satisfies `T(C)/D(C) > lambda`, i.e. the graph
/// weighted by `w(e) = den * t(src) - num * d(e)` has a positive cycle.
fn has_cycle_ratio_above(g: &Dfg, lambda: Ratio) -> bool {
    let n = g.node_count();
    if n == 0 {
        return false;
    }
    let (p, q) = (lambda.num() as i128, lambda.den() as i128);
    let w = |e: crate::EdgeId| -> i128 {
        let ed = g.edge(e);
        q * g.node(ed.src).time as i128 - p * ed.delay as i128
    };
    // Bellman–Ford longest-path relaxation from an implicit super-source
    // (all distances start at 0): if an edge still relaxes after n rounds,
    // a positive cycle exists.
    let mut dist = vec![0i128; n];
    for _ in 0..n {
        let mut changed = false;
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let cand = dist[ed.src.index()] + w(e);
            if cand > dist[ed.dst.index()] {
                dist[ed.dst.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    // One more round to confirm continued relaxation.
    for e in g.edge_ids() {
        let ed = g.edge(e);
        if dist[ed.src.index()] + w(e) > dist[ed.dst.index()] {
            return true;
        }
    }
    false
}

/// The unique ratio with denominator `<= max_den` in the half-open interval
/// `(lo, hi]`, given that the interval is narrower than `1 / max_den^2`
/// (two distinct such ratios differ by at least that much).
fn snap_ratio(lo: Ratio, hi: Ratio, max_den: i64) -> Ratio {
    for q in 1..=max_den {
        // Largest p with p/q <= hi.
        let p = (hi.num() as i128 * q as i128 / hi.den() as i128) as i64;
        let cand = Ratio::new(p, q);
        if cand > lo && cand <= hi {
            return cand;
        }
    }
    // Interval invariant guarantees a hit; hi itself is always valid if its
    // denominator qualifies.
    hi
}

/// [`try_iteration_bound`] for graphs known to be in range.
///
/// # Panics
/// Panics where `try_iteration_bound` returns an error or panics.
pub fn iteration_bound(g: &Dfg) -> Option<Ratio> {
    try_iteration_bound(g).unwrap_or_else(|e| panic!("{e}"))
}

/// Compute the iteration bound `B(G)` exactly.
///
/// Returns `Ok(None)` for an acyclic graph (no cycle constrains the rate;
/// the iteration bound is conventionally zero / absent), and an error if
/// the bisection's search range overflows `i64`.
///
/// # Panics
/// Panics if the graph contains a zero-delay cycle (malformed; validate
/// first).
pub fn try_iteration_bound(g: &Dfg) -> Result<Option<Ratio>, BoundRangeOverflow> {
    // lambda = 0: a positive cycle exists iff the graph has any cycle at all
    // (all computation times are >= 1).
    if !has_cycle_ratio_above(g, Ratio::integer(0)) {
        return Ok(None);
    }
    let d_max = g.total_delays() as i64;
    assert!(
        d_max > 0,
        "cyclic graph with zero total delays has a zero-delay cycle"
    );
    // Bisect on the dyadic grid x / scale with a fixed power-of-two scale
    // strictly finer than 1/d_max^2, so the final bracket (lo, hi] of width
    // 1/scale contains exactly one ratio with denominator <= d_max: B(G).
    let scale = (d_max as u128 * d_max as u128 + 1).next_power_of_two();
    let mut hi: i64 = (g.total_time() as u128)
        .checked_mul(scale)
        .and_then(|range| i64::try_from(range).ok())
        .ok_or(BoundRangeOverflow {
            total_time: g.total_time(),
            total_delays: g.total_delays(),
        })?;
    // `total_time >= 1` on a cyclic graph, so `scale <= hi` fits too.
    let scale = scale as i64;
    let mut lo: i64 = 0; // invariant: some cycle ratio > lo/scale
    debug_assert!(!has_cycle_ratio_above(g, Ratio::new(hi, scale)));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if has_cycle_ratio_above(g, Ratio::new(mid, scale)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let b = snap_ratio(Ratio::new(lo, scale), Ratio::new(hi, scale), d_max);
    debug_assert!(!has_cycle_ratio_above(g, b));
    Ok(Some(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    /// Brute-force iteration bound by enumerating all simple cycles (DFS
    /// from each start node, only visiting nodes >= start to avoid
    /// duplicates). Test oracle for small graphs.
    fn brute_force_bound(g: &Dfg) -> Option<Ratio> {
        use crate::NodeId;
        let mut best: Option<Ratio> = None;
        let n = g.node_count();
        // stack of (node, time-so-far, delay-so-far)
        fn dfs(
            g: &Dfg,
            start: NodeId,
            v: NodeId,
            t_acc: i64,
            d_acc: i64,
            visited: &mut Vec<bool>,
            best: &mut Option<Ratio>,
        ) {
            for &e in g.out_edges(v) {
                let ed = g.edge(e);
                let w = ed.dst;
                let t2 = t_acc + g.node(v).time as i64;
                let d2 = d_acc + ed.delay as i64;
                if w == start {
                    if d2 > 0 {
                        let r = Ratio::new(t2, d2);
                        if best.is_none_or(|b| r > b) {
                            *best = Some(r);
                        }
                    }
                } else if w > start && !visited[w.index()] {
                    visited[w.index()] = true;
                    dfs(g, start, w, t2, d2, visited, best);
                    visited[w.index()] = false;
                }
            }
        }
        for start in g.node_ids() {
            let mut visited = vec![false; n];
            visited[start.index()] = true;
            dfs(g, start, start, 0, 0, &mut visited, &mut best);
        }
        best
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 1);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), None);
    }

    #[test]
    fn two_node_cycle() {
        // T = 2, D = 2 => B = 1.
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 0);
        b.edge(c, a, 2);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::integer(1)));
    }

    #[test]
    fn fractional_bound_27_over_2() {
        // A cycle of 5 nodes with times summing to 27 over 2 delays — the
        // reconstructed Figure 8 shape: B = 27/2 = 13.5.
        let mut b = DfgBuilder::new();
        let times = [1u32, 4, 5, 7, 10];
        let nodes: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| b.node(format!("n{i}"), t, OpKind::Add(0)))
            .collect();
        for i in 0..5 {
            let d = if i == 4 || i == 2 { 1 } else { 0 };
            b.edge(nodes[i], nodes[(i + 1) % 5], d);
        }
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(27, 2)));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // Cycle 1: T=2, D=2 (ratio 1). Cycle 2: T=9, D=3 (ratio 3).
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 0);
        b.edge(c, a, 2);
        let x = b.node("X", 4, OpKind::Add(0));
        let y = b.node("Y", 5, OpKind::Add(0));
        b.edge(x, y, 1);
        b.edge(y, x, 2);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::integer(3)));
    }

    #[test]
    fn self_loop_bound() {
        let mut b = DfgBuilder::new();
        let a = b.node("A", 7, OpKind::Add(0));
        b.edge(a, a, 3);
        let g = b.build().unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(7, 3)));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for case in 0..60 {
            let n = rng.random_range(2..7usize);
            let mut b = DfgBuilder::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| b.node(format!("n{i}"), rng.random_range(1..9u32), OpKind::Add(0)))
                .collect();
            // Random zero-delay DAG edges (forward) + random delayed edges.
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.random_bool(0.4) {
                        b.edge(nodes[i], nodes[j], 0);
                    }
                }
            }
            let extra = rng.random_range(1..=n);
            for _ in 0..extra {
                let i = rng.random_range(0..n);
                let j = rng.random_range(0..n);
                b.edge(nodes[i], nodes[j], rng.random_range(1..4u32));
            }
            let g = b.build_unchecked();
            if g.validate().is_err() {
                continue;
            }
            assert_eq!(
                iteration_bound(&g),
                brute_force_bound(&g),
                "mismatch on case {case}"
            );
        }
    }
}
