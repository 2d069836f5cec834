//! Tests of the benchmark itself: inputs are a function of the seed, and
//! every correctness check rejects a planted wrong reply.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check::{self, HitVerdict, Shadow};
use perfbench::gen;
use perfbench::workloads::{self, ColdStream, COLD_FORMATS};
use queryvis::{QueryVis, QueryVisOptions};
use queryvis_service::{
    fingerprint_sql, DiagramService, DrainReport, Format, Request, ServiceConfig, SessionConfig,
    SessionStore,
};
use std::sync::Arc;

fn compiles(sql: &str) -> bool {
    QueryVis::prepare(sql, QueryVisOptions::default()).is_ok()
}

fn fingerprint(sql: &str) -> u128 {
    fingerprint_sql(sql, QueryVisOptions::default())
        .expect("compiles")
        .fingerprint
        .0
}

#[test]
fn same_seed_gives_the_same_inputs_byte_for_byte() {
    assert_eq!(ColdStream::new(7).take(96), ColdStream::new(7).take(96));
    assert_ne!(ColdStream::new(7).take(96), ColdStream::new(8).take(96));

    let a = workloads::hit_inputs(7, compiles);
    let b = workloads::hit_inputs(7, compiles);
    assert_eq!(
        (&a.warm, &a.base_warm, &a.items),
        (&b.warm, &b.base_warm, &b.items)
    );
    let c = workloads::hit_inputs(8, compiles);
    assert_ne!(a.items, c.items);

    assert_eq!(workloads::edit_inputs(7), workloads::edit_inputs(7));
    assert_ne!(workloads::edit_inputs(7).0, workloads::edit_inputs(8).0);

    assert_eq!(
        workloads::wire_inputs(7, compiles),
        workloads::wire_inputs(7, compiles)
    );
    assert_ne!(
        workloads::wire_inputs(7, compiles).lines,
        workloads::wire_inputs(8, compiles).lines
    );
}

#[test]
fn cold_stream_is_distinct_by_pattern_and_starts_with_corpus_and_shapes() {
    let batch = ColdStream::new(3).take(256);
    let mut fingerprints: Vec<u128> = batch.iter().map(|(sql, _)| fingerprint(sql)).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), batch.len());
    assert_eq!(batch.iter().filter(|(_, b)| b.is_some()).count(), 16);
}

#[test]
fn renaming_preserves_the_pattern_and_changes_the_text() {
    let a = workloads::hit_inputs(5, compiles);
    for item in a.items.iter().take(40) {
        let fresh = item.text_for(3);
        assert_ne!(fresh, item.text);
        if item.family.is_none() {
            assert_eq!(fingerprint(&fresh), fingerprint(&item.text), "{fresh}");
        }
    }
    assert_eq!(
        gen::rename("SELECT t.a FROM R t WHERE t.b = 'k1' AND t.c > 12", "r4_"),
        "SELECT r4_t.r4_a FROM r4_R r4_t WHERE r4_t.r4_b = 'k1' AND r4_t.r4_c > 12"
    );
}

#[test]
fn editor_scripts_replay_to_their_buffers() {
    let (_, ops) = workloads::edit_inputs(2);
    let mut buffer = String::new();
    for op in &ops {
        match &op.kind {
            workloads::OpKind::Open => buffer = op.buffer.clone(),
            workloads::OpKind::Edit(key) => gen::apply_key(&mut buffer, key),
            workloads::OpKind::Close => {}
        }
        assert_eq!(buffer, op.buffer);
    }
}

#[test]
fn cold_check_rejects_a_changed_byte_and_a_representative_reply() {
    let sql = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
    let expected = check::cold_expected(4, sql, &COLD_FORMATS).unwrap();
    let service = DiagramService::new(ServiceConfig::default());
    let request = |sql: &str| Request {
        id: 4,
        sql: sql.to_string(),
        formats: COLD_FORMATS.to_vec(),
        rows: None,
    };
    let served = service.handle(&request(sql)).to_json_line();
    assert!(check::same_bytes("cold", &served, &expected).is_ok());

    let mut planted = served.clone().into_bytes();
    let at = planted.len() / 2;
    planted[at] = if planted[at] == b'x' { b'y' } else { b'x' };
    let planted = String::from_utf8(planted).unwrap();
    assert!(check::same_bytes("cold", &planted, &expected).is_err());

    // A pattern-equivalent text served from the cache carries the
    // representative's artifacts, not its own.
    let variant = "SELECT X.person FROM Frequents X WHERE X.bar = 'Tap'";
    let cached = service.handle(&request(variant)).to_json_line();
    let own = check::cold_expected(4, variant, &COLD_FORMATS).unwrap();
    assert!(check::same_bytes("cold", &cached, &own).is_err());
}

#[test]
fn table_count_check_rejects_a_wrong_binding_count() {
    let (sql, bindings) = gen::synthetic(3, 2);
    assert!(check::check_tables(&sql, bindings).is_ok());
    assert!(check::check_tables(&sql, bindings + 1).is_err());
}

#[test]
fn hit_check_rejects_wrong_artifacts_and_flags_a_split() {
    let service = DiagramService::new(ServiceConfig::default());
    let ascii = |sql: &str| {
        service
            .handle(&Request {
                id: 0,
                sql: sql.to_string(),
                formats: vec![Format::Ascii],
                rows: None,
            })
            .to_json_line()
    };
    let base = ascii("SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'");
    let variant = ascii("SELECT X.person FROM Frequents X WHERE X.bar = 'Tap'");
    assert_eq!(check::check_hit(&variant, &base), Ok(HitVerdict::Pass));

    let wrong_art = variant.replace("person", "persnn");
    assert!(check::check_hit(&wrong_art, &base).is_err());

    let other = ascii("SELECT T.a FROM T, T u WHERE T.a = u.a");
    assert_eq!(check::check_hit(&other, &base), Ok(HitVerdict::Split));
    assert!(check::check_hit("{\"id\":0,\"error\":\"x\"}", &base).is_err());
}

#[test]
fn session_check_rejects_planted_replies() {
    let service = Arc::new(DiagramService::new(ServiceConfig::default()));
    let store = SessionStore::new(Arc::clone(&service), SessionConfig::default());
    let start = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
    let open = store.dispatch_value(
        &queryvis_service::json::parse(&gen::open_line(0, start)).unwrap(),
        0,
        1,
    );
    let mut shadow = Shadow::default();
    check::check_session(start, &open, &mut shadow).unwrap();

    // A wrong fingerprint, a wrong scene, and an error where the buffer
    // compiles are all rejected.
    let fp = check::reply_fingerprint(&open).unwrap().to_string();
    let flipped = if fp.starts_with('0') { "1" } else { "0" };
    let planted_fp = open.replacen(&fp, &format!("{flipped}{}", &fp[1..]), 1);
    assert!(check::check_session(start, &planted_fp, &mut Shadow::default()).is_err());
    let planted_scene = open.replacen("person", "persnn", 1);
    assert!(check::check_session(start, &planted_scene, &mut Shadow::default()).is_err());
    let planted_error =
        "{\"id\":0,\"session\":1,\"error\":\"parse error\",\"error_kind\":\"compile\"}";
    assert!(check::check_session(start, planted_error, &mut Shadow::default()).is_err());

    // A patch must land on the scene this client acknowledged: replay a
    // workload round until the first patch, then apply that patch to the
    // scene of another query's script.
    let (_, ops) = workloads::edit_inputs(1);
    let round_store = SessionStore::new(
        Arc::new(DiagramService::new(ServiceConfig::default())),
        SessionConfig::default(),
    );
    let mut shadows: Vec<Shadow> = Vec::new();
    let mut patched = None;
    for op in &ops {
        let reply =
            round_store.dispatch_value(&queryvis_service::json::parse(&op.line).unwrap(), op.id, 1);
        if shadows.len() <= op.script {
            shadows.push(Shadow::default());
        }
        if matches!(op.kind, workloads::OpKind::Close) {
            continue;
        }
        // Scripts 0–2 edit the first query; a later script edits another.
        if reply.contains("\"patch\"") && op.script >= 3 {
            patched = Some((op.clone(), reply));
            break;
        }
        check::check_session(&op.buffer, &reply, &mut shadows[op.script]).unwrap();
    }
    let (op, reply) = patched.expect("a round sends patches");
    let (mine, others) = shadows.split_at_mut(op.script);
    assert!(check::check_session(&op.buffer, &reply, &mut others[0]).is_ok());
    assert!(check::check_session(&op.buffer, &reply, &mut mine[0]).is_err());

    // A broken buffer must be answered with the pipeline's own error.
    let bad = "SELECT F.person FROM";
    let error_reply =
        "{\"id\":2,\"session\":1,\"error\":\"something else\",\"error_kind\":\"compile\"}";
    assert!(check::check_session(bad, error_reply, &mut shadow).is_err());
    assert!(check::check_close("{\"id\":3,\"session\":1,\"closed\":false}").is_err());
}

#[test]
fn wire_and_drain_checks_reject_missing_reordered_and_dropped_replies() {
    let expected: Vec<String> = (0..3).map(|i| format!("{{\"id\":{i}}}")).collect();
    assert!(check::check_wire_round(&expected, &expected).is_ok());
    assert!(check::check_wire_round(&expected[..2], &expected).is_err());
    let reordered = vec![
        expected[1].clone(),
        expected[0].clone(),
        expected[2].clone(),
    ];
    assert!(check::check_wire_round(&reordered, &expected).is_err());

    let clean = DrainReport {
        accepted: 5,
        responded: 5,
        dropped: 0,
        connections: 1,
        sheds: 0,
        drain_refusals: 0,
        timeouts: 0,
        too_large: 0,
        slow_disconnects: 0,
        sessions_closed: 0,
    };
    assert!(check::check_drain(&clean).is_ok());
    let dropped = DrainReport {
        responded: 4,
        dropped: 1,
        ..clean
    };
    assert!(check::check_drain(&dropped).is_err());
}

#[test]
fn every_workload_runs_briefly_and_passes_its_checks() {
    for workload in workloads::WORKLOADS {
        let outcome = workloads::run(workload, 1, 0.05, None).unwrap();
        assert!(outcome.correct, "{workload}: {:?}", outcome.problems);
        assert!(outcome.attempted >= 1000, "{workload}");
        // The reversed symmetric-conjunct texts with k = 7…10 split from
        // their pattern: four failed requests per round where the family
        // is sent, none elsewhere.
        let family_rounds = match *workload {
            "pattern_hits" | "wire_pipelined" => outcome.rounds,
            _ => 0,
        };
        assert_eq!(outcome.failed, 4 * family_rounds, "{workload}");
    }
}
