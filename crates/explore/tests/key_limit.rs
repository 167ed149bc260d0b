//! A graph whose W/D path keys would pass the exact `f64` limit (`2^53`)
//! must fail loudly per point through the explore API: every factor is a
//! typed [`PointStatus::Failed`] naming the limit, and no point, right or
//! wrong, is produced.

use cred_dfg::{Dfg, DfgBuilder, OpKind};
use cred_explore::cache::SweepCache;
use cred_explore::{ExploreRequest, PointStatus};

/// Two nodes of time `2^31` (so `S = 2^34`) joined by `2^19`-delay edges:
/// the checked bound on a sum of two path keys is `2^55 + 2^33`.
fn over_the_key_limit() -> Dfg {
    let mut b = DfgBuilder::new();
    let a = b.node("A", 1 << 31, OpKind::Add(0));
    let c = b.node("B", 1 << 31, OpKind::Add(0));
    b.edge(a, c, 1 << 19);
    b.edge(c, a, 1 << 19);
    b.build().unwrap()
}

#[test]
fn explore_over_the_key_limit_fails_every_point_without_answers() {
    let resp = ExploreRequest::new(over_the_key_limit())
        .max_f(3)
        .threads(2)
        .run_with(&SweepCache::new())
        .expect("per-point failures still give a response");
    assert!(resp.points.is_empty(), "no point may be produced: {resp:?}");
    assert!(resp.frontier.is_empty());
    assert_eq!(resp.report.outcomes.len(), 3);
    for o in &resp.report.outcomes {
        assert!(o.point.is_none(), "f={} produced a point", o.f);
        match &o.status {
            PointStatus::Failed(msg) => assert!(msg.contains("2^53"), "f={}: {msg}", o.f),
            other => panic!("f={} expected a failure, got {other:?}", o.f),
        }
    }
    assert_eq!(resp.failures().len(), 3);
}
