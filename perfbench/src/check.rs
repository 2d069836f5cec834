//! Correctness checks. Each compares a reply with a fact computed apart
//! from the serving path (an uncached `QueryVis` compile, a count written
//! into the input, a reply from the in-process call) or with a property
//! the program must have. They run outside the timed phase and return the
//! first discrepancy as an error message.

use queryvis::layout::Scene;
use queryvis::{PreparedQuery, QueryVis, QueryVisOptions};
use queryvis_service::json::{self, Json};
use queryvis_service::{
    apply_patch, parse_patch_ops, scene_json, scene_json_v2, Artifacts, DrainReport, Fingerprint,
    Format, Response,
};
use std::sync::Arc;

/// The canonical fingerprint of a prepared query, through the core
/// `PatternKey` API rather than the service's scratch-buffer fast path.
pub fn fingerprint_of(prepared: &PreparedQuery) -> Fingerprint {
    Fingerprint(prepared.pattern_key().fingerprint128())
}

/// The reply an uncached compile of `sql` must produce: the `QueryVis`
/// renders of the text itself, never of a cached representative.
pub fn cold_expected(id: u64, sql: &str, formats: &[Format]) -> Result<String, String> {
    let prepared =
        QueryVis::prepare(sql, QueryVisOptions::default()).map_err(|e| format!("{e}: {sql}"))?;
    let fingerprint = fingerprint_of(&prepared);
    let sql_words = prepared.sql_word_count();
    let qv = prepared.complete();
    let rendered = formats
        .iter()
        .map(|format| {
            let text = match format {
                Format::Ascii => qv.ascii(),
                Format::Svg => qv.svg(),
                Format::SceneJson => scene_json(&qv.scene()),
                Format::Dot => qv.dot(),
                Format::Reading => qv.reading(),
            };
            (*format, Arc::<str>::from(text))
        })
        .collect();
    Ok(Response {
        id,
        outcome: Ok(Artifacts {
            fingerprint,
            fingerprint_hex: fingerprint.to_string().into(),
            sql_words,
            representative_sql: None,
            rendered,
            sample_rows: None,
        }),
    }
    .to_json_line())
}

/// Byte equality, reporting where two replies part.
pub fn same_bytes(what: &str, got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    let from = at.saturating_sub(40);
    let snip = |s: &str| {
        s.get(from..(at + 40).min(s.len()))
            .unwrap_or("<not on a char boundary>")
            .to_string()
    };
    Err(format!(
        "{what}: reply differs at byte {at} (len {} vs {}): got …{}… expected …{}…",
        got.len(),
        expected.len(),
        snip(got),
        snip(expected)
    ))
}

/// A synthetic shape's diagram has one table per binding written, plus
/// the SELECT table.
pub fn check_tables(sql: &str, bindings: usize) -> Result<(), String> {
    let qv = QueryVis::from_sql(sql).map_err(|e| format!("{e}: {sql}"))?;
    let tables = qv.stats().tables;
    if tables == bindings + 1 {
        Ok(())
    } else {
        Err(format!(
            "synthetic shape has {bindings} bindings but its diagram {tables} tables: {sql}"
        ))
    }
}

/// The `"fingerprint"` field of a success reply.
pub fn reply_fingerprint(reply: &str) -> Option<&str> {
    let start = reply.find("\"fingerprint\":\"")? + "\"fingerprint\":\"".len();
    reply.get(start..start + 32)
}

/// The reply from `,"artifacts":` to the end.
fn artifacts_tail(reply: &str) -> Option<&str> {
    reply.find(",\"artifacts\":").map(|at| &reply[at..])
}

/// What a pattern-hit reply says about its base query.
#[derive(Debug, PartialEq, Eq)]
pub enum HitVerdict {
    /// The base's fingerprint and the base's artifacts.
    Pass,
    /// A different fingerprint: the text was split from its pattern.
    Split,
}

/// A variant of a base query must carry the base's fingerprint and be
/// served the base's artifacts (`base_reply` is the warm-up reply of the
/// base text).
pub fn check_hit(reply: &str, base_reply: &str) -> Result<HitVerdict, String> {
    let (Some(got), Some(want)) = (reply_fingerprint(reply), reply_fingerprint(base_reply)) else {
        return Err(format!("reply without a fingerprint: {reply}"));
    };
    if got != want {
        return Ok(HitVerdict::Split);
    }
    match (artifacts_tail(reply), artifacts_tail(base_reply)) {
        (Some(a), Some(b)) if a == b => Ok(HitVerdict::Pass),
        _ => Err(format!(
            "fingerprint {got} served other artifacts than its base: {reply}"
        )),
    }
}

/// The client side of one editing session: the scene it has
/// acknowledged, advanced by every scene or patch it receives.
#[derive(Default)]
pub struct Shadow {
    scene: Option<Scene>,
}

fn scene_of(sql: &str) -> Result<(Fingerprint, Scene), String> {
    let prepared = QueryVis::prepare(sql, QueryVisOptions::default()).map_err(|e| e.to_string())?;
    let fingerprint = fingerprint_of(&prepared);
    Ok((fingerprint, (*prepared.complete().scene()).clone()))
}

/// A session reply (open or edit) must match a cold compile of `buffer`,
/// the text the client itself holds after its edits: the same error text
/// when the buffer does not compile; otherwise the same fingerprint and,
/// once any patch is applied to the acknowledged scene, the scene of the
/// served text (the buffer, or the disclosed pattern representative).
pub fn check_session(buffer: &str, reply: &str, shadow: &mut Shadow) -> Result<(), String> {
    let doc =
        json::parse(reply).map_err(|e| format!("session reply is not JSON ({e}): {reply}"))?;
    let cold = scene_of(buffer);
    let (fingerprint, own_scene) = match cold {
        Err(message) => {
            return match doc.get("error").and_then(Json::as_str) {
                Some(got) if got == message => Ok(()),
                _ => Err(format!(
                    "buffer {buffer:?} does not compile ({message}) but the session replied {reply}"
                )),
            };
        }
        Ok(ok) => ok,
    };
    let got = doc.get("fingerprint").and_then(Json::as_str);
    if got != Some(fingerprint.to_string().as_str()) {
        return Err(format!(
            "buffer {buffer:?} has fingerprint {fingerprint}, the session replied {reply}"
        ));
    }
    let expected = match doc.get("representative_sql").and_then(Json::as_str) {
        None => own_scene,
        Some(representative) => {
            let (rep_fingerprint, scene) = scene_of(representative)?;
            if rep_fingerprint != fingerprint {
                return Err(format!(
                    "representative {representative:?} has another fingerprint than {buffer:?}"
                ));
            }
            scene
        }
    };
    let expected_doc = scene_json_v2(&expected);
    match (doc.get("scene"), doc.get("patch").and_then(Json::as_arr)) {
        (Some(scene), None) => {
            let want = json::parse(&expected_doc).expect("scene_json_v2 is JSON");
            if *scene != want {
                return Err(format!(
                    "resync scene differs from a cold compile of {buffer:?}"
                ));
            }
        }
        (None, Some(ops)) => {
            let ops = parse_patch_ops(ops).map_err(|e| format!("bad patch ({e}): {reply}"))?;
            let base = shadow
                .scene
                .as_ref()
                .ok_or_else(|| format!("patch without an acknowledged scene: {reply}"))?;
            let patched = apply_patch(base, &ops).map_err(|e| format!("patch fails ({e})"))?;
            same_bytes("patched scene", &scene_json_v2(&patched), &expected_doc)?;
        }
        _ => {
            return Err(format!(
                "reply carries neither one scene nor one patch: {reply}"
            ))
        }
    }
    shadow.scene = Some(expected);
    Ok(())
}

/// A `close` reply acknowledges the close.
pub fn check_close(reply: &str) -> Result<(), String> {
    if reply.contains("\"closed\":true") {
        Ok(())
    } else {
        Err(format!("close not acknowledged: {reply}"))
    }
}

/// Exactly one reply per request, in request order, each byte-equal to
/// the in-process reply to the same line.
pub fn check_wire_round(got: &[String], expected: &[String]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{} replies to {} requests",
            got.len(),
            expected.len()
        ));
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        same_bytes(&format!("wire reply {i}"), g, e)?;
    }
    Ok(())
}

/// A clean drain answers every accepted request.
pub fn check_drain(report: &DrainReport) -> Result<(), String> {
    if report.dropped == 0 && report.accepted == report.responded {
        Ok(())
    } else {
        Err(format!(
            "drain dropped {} (accepted {}, responded {})",
            report.dropped, report.accepted, report.responded
        ))
    }
}
