//! The Leiserson–Saxe `W` and `D` matrices.
//!
//! For a DFG `G` and nodes `u, v`:
//!
//! * `W(u, v)` — the minimum delay count over all paths `u ~> v`;
//! * `D(u, v)` — the maximum total computation time (including both
//!   endpoints) over the minimum-delay paths `u ~> v`.
//!
//! These drive the OPT min-period retiming algorithm: a clock period `c` is
//! achievable iff the difference constraints `r(u) - r(v) <= d(e)` for every
//! edge and `r(u) - r(v) <= W(u, v) - 1` for every pair with `D(u, v) > c`
//! are simultaneously satisfiable, and the candidate optimal periods are
//! exactly the entries of `D`.
//!
//! Computed with one Floyd–Warshall over a single packed key per pair.
//! The retiming paper's lexicographic edge weight `(d(e), -t(src))` sums
//! along a path to `(W, -(path time - t(dst)))`; with
//! `S = (2 * sum_t + 1).next_power_of_two()` the key
//! `W * S - (path time - t(dst))` orders exactly like that pair (the time
//! part of any sum of two path keys spans less than `S`), and keys add
//! along paths. The loop holds keys in `f64`, with `+inf` for
//! "unreachable": [`WdMatrices::try_compute`] first checks that every
//! candidate sum (two simple-path keys) stays below `2^53`, so every
//! finite value is an exactly represented integer and the branch-free
//! `min` over a copied pivot row vectorizes. The result is stored as one
//! `i64` key matrix; [`WdMatrices::w`] and [`WdMatrices::d`] decode it with
//! a shift. The activation order ([`WdMatrices::activation_by_d`]) comes
//! from one packed `u64` per pair, `(sum_t - D, u, v)` in bit fields,
//! radix-sorted on its `sum_t - D` field.

use std::fmt;

use crate::Dfg;

/// Candidate key sums must stay strictly below this magnitude, so every
/// finite `f64` key in the loop is an exact integer.
const EXACT_LIMIT: u128 = 1 << 53;

/// Stored key of an unreachable pair.
const UNREACHABLE: i64 = i64::MAX;

/// Why [`WdMatrices::try_compute`] refused a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WdError {
    /// A sum of two path keys could reach `2^53`, past which `f64` keys
    /// are no longer exact integers.
    KeyLimit {
        /// Largest magnitude a candidate key sum could reach.
        reach: u128,
        /// Sum of all edge delays.
        total_delays: u64,
        /// The key's time scale `S`.
        scale: u64,
    },
    /// The packed activation sort word would need more than 64 bits.
    SortKeyWidth {
        /// Bits the word would need.
        bits: u32,
    },
    /// The node lies on a zero-delay cycle, so `W` and `D` are undefined.
    ZeroDelayCycle {
        /// Index of a node on the cycle.
        node: usize,
    },
}

impl fmt::Display for WdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WdError::KeyLimit {
                reach,
                total_delays,
                scale,
            } => write!(
                f,
                "W/D matrices: sums of two path keys of this graph may reach {reach}, \
                 over the exact f64 key limit 2^53 (sum of delays {total_delays}, \
                 time scale {scale})"
            ),
            WdError::SortKeyWidth { bits } => write!(
                f,
                "W/D matrices: the activation sort key needs {bits} bits, over 64"
            ),
            WdError::ZeroDelayCycle { node } => {
                write!(f, "W/D matrices: node {node} lies on a zero-delay cycle")
            }
        }
    }
}

impl std::error::Error for WdError {}

/// Dense `W`/`D` matrices for all node pairs, stored as one packed key per
/// pair (see the module docs); the `Option` accessors decode it.
#[derive(Debug, Clone)]
pub struct WdMatrices {
    n: usize,
    /// `W * S - (path time - t(dst))` per pair, [`UNREACHABLE`] if there
    /// is no path.
    key: Vec<i64>,
    /// `log2(S)`.
    shift: u32,
    times: Vec<i64>,
    /// Every reachable pair as `(D(u, v), u, v)`, sorted by `D` descending
    /// (ties by `(u, v)` ascending). The period-`c` feasibility constraints
    /// are exactly the pairs with `D > c`, so this is the *activation
    /// order*: tightening `c` activates a longer prefix of this list. The
    /// incremental retiming solver consumes it verbatim.
    activation: Vec<(i64, u32, u32)>,
}

/// Split a finite key into `(W, path time - t(dst))`. The time part lies
/// in `[0, S)`, so it is the key's negation modulo `S`, and `W` is the key
/// divided by `S`, rounded up.
fn split(key: i64, shift: u32) -> (i64, i64) {
    let time = key.wrapping_neg() & ((1 << shift) - 1);
    ((key + time) >> shift, time)
}

/// Bits needed to write `x` (zero for zero).
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Widest digit of the activation sort's radix passes.
const RADIX_BITS: u32 = 11;

/// One stable counting-sort pass: the words of `src` ordered by their
/// `width`-bit digit at `shift`, each mapped through `f` into `dst`.
fn radix_pass<T>(src: &[u64], shift: u32, width: u32, dst: &mut [T], f: impl Fn(u64) -> T) {
    let digit = |k: u64| (k >> shift) as usize & ((1 << width) - 1);
    let mut start = vec![0usize; 1 << width];
    for &k in src {
        start[digit(k)] += 1;
    }
    let mut sum = 0;
    for s in start.iter_mut() {
        (*s, sum) = (sum, sum + *s);
    }
    for &k in src {
        let d = digit(k);
        dst[start[d]] = f(k);
        start[d] += 1;
    }
}

impl WdMatrices {
    /// [`WdMatrices::try_compute`] for graphs known to be in range.
    ///
    /// # Panics
    /// Panics with the [`WdError`] message where `try_compute` would
    /// return it.
    pub fn compute(g: &Dfg) -> Self {
        Self::try_compute(g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compute both matrices in `O(V^3)` (dense Floyd–Warshall).
    ///
    /// Refuses, before any path is computed, a graph where a sum of two
    /// path keys could reach `2^53` (then `f64` keys would no longer be
    /// exact) or whose activation sort word would pass 64 bits, and after
    /// the loop a graph with a zero-delay cycle (`W`/`D` are then
    /// undefined).
    pub fn try_compute(g: &Dfg) -> Result<Self, WdError> {
        let n = g.node_count();
        let times: Vec<i64> = g.node_ids().map(|v| g.node(v).time as i64).collect();
        let sum_t = g.total_time();
        let scale = (2 * sum_t + 1).next_power_of_two();
        let shift = scale.trailing_zeros();
        // Path keys lie in [-sum_t, sum_d * S], so a candidate (the sum of
        // two of them) has magnitude at most 2 * (sum_d * S + sum_t).
        let total_delays = g.total_delays();
        let reach = 2 * (total_delays as u128 * scale as u128 + sum_t as u128);
        if reach >= EXACT_LIMIT {
            return Err(WdError::KeyLimit {
                reach,
                total_delays,
                scale,
            });
        }
        let node_bits = bits(n.saturating_sub(1) as u64);
        if bits(sum_t) + 2 * node_bits > u64::BITS {
            return Err(WdError::SortKeyWidth {
                bits: bits(sum_t) + 2 * node_bits,
            });
        }

        let mut c = vec![f64::INFINITY; n * n];
        for u in 0..n {
            c[u * n + u] = 0.0;
        }
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let at = ed.src.index() * n + ed.dst.index();
            let key = (ed.delay as i64 * scale as i64 - times[ed.src.index()]) as f64;
            c[at] = c[at].min(key);
        }
        let mut row = vec![0.0f64; n];
        for k in 0..n {
            row.copy_from_slice(&c[k * n..(k + 1) * n]);
            for i in 0..n {
                let cik = c[i * n + k];
                if i == k || cik == f64::INFINITY {
                    continue;
                }
                for (x, &ckj) in c[i * n..(i + 1) * n].iter_mut().zip(&row) {
                    let s = cik + ckj;
                    *x = if s < *x { s } else { *x };
                }
            }
        }
        if let Some(node) = (0..n).find(|&v| c[v * n + v] < 0.0) {
            return Err(WdError::ZeroDelayCycle { node });
        }
        let key: Vec<i64> = c
            .into_iter()
            .map(|x| {
                if x == f64::INFINITY {
                    UNREACHABLE
                } else {
                    x as i64
                }
            })
            .collect();

        // One packed word per reachable pair: `sum_t - D` above `u` above
        // `v`. Pairs are pushed in (u, v) order, so a stable sort on the
        // `sum_t - D` field alone orders them by D descending, ties by
        // (u, v) ascending, which keeps everything derived from the
        // activation order deterministic.
        let low = 2 * node_bits;
        let mut packed = Vec::with_capacity(n * n);
        for u in 0..n {
            for (v, (&k, &t)) in key[u * n..(u + 1) * n].iter().zip(&times).enumerate() {
                if k != UNREACHABLE {
                    let d = (split(k, shift).1 + t) as u64;
                    packed.push(((sum_t - d) << low) | ((u as u64) << node_bits) | v as u64);
                }
            }
        }
        // A stable LSD radix sort over the `sum_t - D` field only, in
        // digits of at most RADIX_BITS bits; its last pass decodes each
        // word into its activation entry.
        let top = low + bits(sum_t);
        let mut shifts: Vec<u32> = (low..top).step_by(RADIX_BITS as usize).collect();
        let last = shifts.pop().unwrap_or(low);
        let mut buf = vec![0u64; if shifts.is_empty() { 0 } else { packed.len() }];
        for shift in shifts {
            radix_pass(&packed, shift, RADIX_BITS, &mut buf, |p| p);
            std::mem::swap(&mut packed, &mut buf);
        }
        let mask = (1u64 << node_bits) - 1;
        let mut activation = vec![(0, 0, 0); packed.len()];
        radix_pass(&packed, last, top - last, &mut activation, |p| {
            let d = (sum_t - (p >> low)) as i64;
            (d, ((p >> node_bits) & mask) as u32, (p & mask) as u32)
        });
        Ok(WdMatrices {
            n,
            key,
            shift,
            times,
            activation,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `(W, path time - t(dst))` of the pair, `None` if unreachable.
    fn decode(&self, u: usize, v: usize) -> Option<(i64, i64)> {
        let key = self.key[u * self.n + v];
        (key != UNREACHABLE).then(|| split(key, self.shift))
    }

    /// `W(u, v)`: minimum path delay count, `None` if unreachable.
    pub fn w(&self, u: usize, v: usize) -> Option<i64> {
        self.decode(u, v).map(|(w, _)| w)
    }

    /// `D(u, v)`: maximum computation time over minimum-delay paths
    /// (both endpoints included), `None` if unreachable.
    pub fn d(&self, u: usize, v: usize) -> Option<i64> {
        self.decode(u, v).map(|(_, t)| t + self.times[v])
    }

    /// All reachable pairs as `(D(u, v), u, v)` sorted by `D` descending —
    /// the order in which the period-`c` constraints `r(v) - r(u) <=
    /// W(u, v) - 1` activate as `c` tightens (a pair is active iff
    /// `D > c`, so every period selects a prefix of this list).
    pub fn activation_by_d(&self) -> &[(i64, u32, u32)] {
        &self.activation
    }

    /// All distinct finite `D` values, sorted ascending — the candidate
    /// clock periods for min-period retiming. Derived from the precomputed
    /// activation order, so this is a linear scan, not an `O(V^2)` re-sort.
    pub fn candidate_periods(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.activation.iter().rev().map(|&(d, _, _)| d).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, OpKind};

    fn correlator() -> (Dfg, Vec<crate::NodeId>) {
        // A 4-node ring: v0 -t=1-> v1 -> v2 -> v3, back edge with 3 delays.
        let mut b = DfgBuilder::new();
        let times = [3u32, 3, 3, 3];
        let nodes: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| b.node(format!("v{i}"), t, OpKind::Add(0)))
            .collect();
        b.edge(nodes[0], nodes[1], 1);
        b.edge(nodes[1], nodes[2], 1);
        b.edge(nodes[2], nodes[3], 1);
        b.edge(nodes[3], nodes[0], 0);
        let g = b.build().unwrap();
        (g, nodes)
    }

    use crate::Dfg;

    #[test]
    fn diagonal_is_trivial_path() {
        let (g, nodes) = correlator();
        let wd = WdMatrices::compute(&g);
        for v in &nodes {
            assert_eq!(wd.w(v.index(), v.index()), Some(0));
            assert_eq!(wd.d(v.index(), v.index()), Some(g.node(*v).time as i64));
        }
    }

    #[test]
    fn ring_w_and_d() {
        let (_, nodes) = correlator();
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let (v0, v1, v3) = (nodes[0].index(), nodes[1].index(), nodes[3].index());
        // v0 -> v1 direct: 1 delay, times 3 + 3 = 6.
        assert_eq!(wd.w(v0, v1), Some(1));
        assert_eq!(wd.d(v0, v1), Some(6));
        // v3 -> v0: zero-delay edge, times 3 + 3.
        assert_eq!(wd.w(v3, v0), Some(0));
        assert_eq!(wd.d(v3, v0), Some(6));
        // v0 -> v3: 3 delays, all four nodes on the path.
        assert_eq!(wd.w(v0, v3), Some(3));
        assert_eq!(wd.d(v0, v3), Some(12));
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = DfgBuilder::new();
        let a = b.unit("A");
        let c = b.unit("B");
        b.edge(a, c, 1);
        let g = b.build().unwrap();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.w(c.index(), a.index()), None);
        assert_eq!(wd.d(c.index(), a.index()), None);
        assert_eq!(wd.w(a.index(), c.index()), Some(1));
    }

    #[test]
    fn min_delay_path_preferred_over_shorter_time() {
        // Two paths a -> b: direct with 2 delays, and via x with 0 delays.
        // W must pick the zero-delay route even though it is "longer" in time.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(0));
        let x = b.node("X", 10, OpKind::Add(0));
        let c = b.node("B", 1, OpKind::Add(0));
        b.edge(a, c, 2);
        b.edge(a, x, 0);
        b.edge(x, c, 0);
        let g = b.build().unwrap();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.w(a.index(), c.index()), Some(0));
        assert_eq!(wd.d(a.index(), c.index()), Some(12)); // 1 + 10 + 1
    }

    #[test]
    fn tie_on_delay_takes_max_time() {
        // Two zero-delay paths a -> b; D takes the slower one.
        let mut b = DfgBuilder::new();
        let a = b.node("A", 1, OpKind::Add(0));
        let x = b.node("X", 10, OpKind::Add(0));
        let y = b.node("Y", 2, OpKind::Add(0));
        let c = b.node("B", 1, OpKind::Add(0));
        b.edge(a, x, 0);
        b.edge(x, c, 0);
        b.edge(a, y, 0);
        b.edge(y, c, 0);
        let g = b.build().unwrap();
        let wd = WdMatrices::compute(&g);
        assert_eq!(wd.w(a.index(), c.index()), Some(0));
        assert_eq!(wd.d(a.index(), c.index()), Some(12));
    }

    #[test]
    fn candidate_periods_sorted_unique() {
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let cands = wd.candidate_periods();
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        assert!(cands.contains(&3)); // single node
        assert!(cands.contains(&12)); // whole ring
    }

    #[test]
    fn activation_order_is_sorted_and_complete() {
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let act = wd.activation_by_d();
        // Sorted: D descending, ties broken by (u, v) ascending.
        assert!(act.windows(2).all(|w| w[0].0 >= w[1].0));
        assert!(act
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].1, w[0].2) < (w[1].1, w[1].2)));
        // Complete and consistent: exactly the reachable pairs, with the
        // matrix accessors' D values.
        let n = g.node_count();
        let reachable: Vec<(i64, u32, u32)> = (0..n)
            .flat_map(|u| (0..n).map(move |v| (u, v)))
            .filter_map(|(u, v)| wd.d(u, v).map(|d| (d, u as u32, v as u32)))
            .collect();
        assert_eq!(act.len(), reachable.len());
        let mut sorted = reachable;
        sorted.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        assert_eq!(act, &sorted[..]);
    }

    #[test]
    fn d_upper_bounds_cycle_period() {
        // The cycle period (longest zero-delay path) must appear among
        // candidate periods: it is D over a zero-delay path.
        let (g, _) = correlator();
        let wd = WdMatrices::compute(&g);
        let phi = crate::algo::cycle_period(&g).unwrap() as i64;
        assert!(wd.candidate_periods().contains(&phi));
    }
}
