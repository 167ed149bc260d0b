//! Wire-format stability: the committed response must keep replaying
//! byte-for-byte at the one schema version the server answers.
//!
//! The golden file pins the full explore response for a fixed request
//! (figure3, max_f 3, n 31, bulk, fresh server). If the test fails, the
//! wire format changed — either revert the change or bump
//! `SCHEMA_VERSION` (v1 -> v2 added the optional `machine` parameter and
//! `exact` response object; v2 -> v3 nests each point's metrics in an
//! `objectives` object with `maxlive` and renames `pareto` to
//! `frontier`). Older versions are not served: a request naming one gets
//! a typed `protocol` error. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p cred-service --test golden_wire`.

mod common;

use std::path::Path;

use common::TestServer;

const REQUEST_V3: &str =
    "{\"type\":\"explore\",\"id\":\"golden-1\",\"kernel\":\"figure3\",\"max_f\":3,\"n\":31}";

fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

fn replay(request: &str, golden: &str) {
    // A fresh server makes the embedded cache counters deterministic:
    // exactly the three per-factor plans of this request, all misses.
    let server = TestServer::spawn(|_| {});
    let resp = server.request(request);
    server.shutdown();
    let path = golden_path(golden);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, resp.clone() + "\n").expect("write golden");
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 and commit it");
    assert_eq!(
        resp,
        expected.trim_end(),
        "the wire format drifted from the committed golden response"
    );
}

#[test]
fn explore_response_replays_byte_for_byte() {
    replay(REQUEST_V3, "explore_v3.json");
    let golden = std::fs::read_to_string(golden_path("explore_v3.json")).unwrap();
    assert!(golden.contains("\"schema_version\":3"));
    assert!(golden.contains("\"frontier\":["));
    assert!(golden.contains("\"objectives\""));
    assert!(golden.contains("\"maxlive\""));
}
