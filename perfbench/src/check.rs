//! Output checks: explore points against the reference pipeline, and
//! served response lines against a cold in-process run.

use cred_explore::suite::SCHEMA_VERSION;
use cred_explore::{point_json, ExploreResponse, ParetoPoint};
use cred_service::json::{self, Json};

/// Explore points must equal the reference pipeline's, point for point.
pub fn check_points(got: &[ParetoPoint], want: &[ParetoPoint]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} points, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).find(|(g, w)| g != w) {
        None => Ok(()),
        Some((g, w)) => Err(format!("f = {}: got {g:?}, reference {w:?}", w.f)),
    }
}

fn json_list(points: &[ParetoPoint]) -> String {
    points.iter().map(point_json).collect::<Vec<_>>().join(",")
}

/// The part of a schema-v3 explore response that depends only on the
/// request: points, frontier, and the (empty) degradation and failure
/// lists. Built from a clean cold run.
pub fn explore_body(resp: &ExploreResponse) -> Result<String, String> {
    if !resp.report.is_clean() {
        return Err("the cold reference run degraded or failed".into());
    }
    Ok(body_of(&resp.points, &resp.frontier))
}

/// [`explore_body`] from points and frontier directly.
pub fn body_of(points: &[ParetoPoint], frontier: &[ParetoPoint]) -> String {
    format!(
        "\"points\":[{}],\"frontier\":[{}],\"degraded\":[],\"failed\":[]",
        json_list(points),
        json_list(frontier)
    )
}

/// A served response line must be exactly
/// `{"ok":true,"schema_version":3,"id":<id>,"type":"explore","coalesced":<bool>,<body>,"cache":{..}}`
/// where `<body>` is byte-identical to the cold run's and the trailing
/// cache object holds exactly the four counters. The `coalesced` flag and
/// the counters depend on server state, not on the request, so only their
/// shape is checked.
pub fn check_response_line(line: &str, id: u64, body: &str) -> Result<(), String> {
    let head = format!(
        "{{\"ok\":true,\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"type\":\"explore\",\"coalesced\":"
    );
    let bad = |why: &str| Err(format!("response {id}: {why}: {line}"));
    let Some(rest) = line.strip_prefix(&head) else {
        return bad("unexpected head");
    };
    let Some(rest) = rest
        .strip_prefix("true,")
        .or_else(|| rest.strip_prefix("false,"))
    else {
        return bad("coalesced is not a boolean");
    };
    let Some(tail) = rest.strip_prefix(body) else {
        return bad("points differ from the cold run");
    };
    let Some(cache) = tail.strip_prefix(",\"cache\":") else {
        return bad("no cache counters after the body");
    };
    let Some(cache) = cache.strip_suffix('}') else {
        return bad("unterminated response");
    };
    let counters = ["hits", "misses", "evictions", "poison_recoveries"];
    match json::parse(cache) {
        Ok(Json::Obj(members))
            if members.len() == counters.len()
                && members
                    .iter()
                    .zip(counters)
                    .all(|((k, v), want)| k == want && v.as_u64().is_some()) =>
        {
            Ok(())
        }
        _ => bad("malformed cache counters"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cred_codegen::DecMode;
    use cred_explore::{sweep_reference, ExploreRequest};

    fn cold() -> (cred_dfg::Dfg, ExploreResponse) {
        let g = cred_dfg::gen::chain_with_feedback(6, 3);
        let resp = ExploreRequest::new(g.clone())
            .max_f(3)
            .trip_count(100)
            .mode(DecMode::Bulk)
            .run()
            .expect("unlimited budget");
        (g, resp)
    }

    #[test]
    fn checker_rejects_a_corrupted_point() {
        let (g, resp) = cold();
        let want = sweep_reference(&g, 3, 100, DecMode::Bulk);
        check_points(&resp.points, &want).expect("engine equals reference");
        let mut bad = resp.points.clone();
        bad[1].objectives.cred_size += 1;
        assert!(check_points(&bad, &want).is_err());
        assert!(check_points(&resp.points[..2], &want).is_err());
    }

    #[test]
    fn checker_rejects_a_corrupted_response_line() {
        let (_, resp) = cold();
        let body = explore_body(&resp).expect("clean cold run");
        let line = format!(
            "{{\"ok\":true,\"schema_version\":{SCHEMA_VERSION},\"id\":7,\"type\":\"explore\",\"coalesced\":false,{body},\"cache\":{{\"hits\":3,\"misses\":0,\"evictions\":0,\"poison_recoveries\":0}}}}"
        );
        check_response_line(&line, 7, &body).expect("well-formed line");
        assert!(check_response_line(&line, 8, &body).is_err(), "wrong id");
        let first = line.find("\"cred_size\":").expect("points carry cred_size") + 13;
        let digit = line.as_bytes()[first];
        let flipped = if digit == b'9' {
            '1'
        } else {
            (digit + 1) as char
        };
        let mut corrupt = line.clone();
        corrupt.replace_range(first..first + 1, &flipped.to_string());
        assert!(
            check_response_line(&corrupt, 7, &body).is_err(),
            "corrupted point"
        );
        let truncated = line.replace(",\"poison_recoveries\":0", "");
        assert!(
            check_response_line(&truncated, 7, &body).is_err(),
            "missing counter"
        );
        let error = "{\"ok\":false,\"schema_version\":3,\"id\":7,\"error\":{}}";
        assert!(
            check_response_line(error, 7, &body).is_err(),
            "error response"
        );
    }
}
