//! The four workloads. Each is one closed-loop client on one thread:
//! set up (several times, the last set-up is kept), then whole rounds of
//! requests until the timed phase reaches its length. Every round has at
//! least 1000 requests and is summarized on its own (median, 99th
//! percentile, requests per timed second); a run reports the median of
//! each over its rounds, so a burst of load from outside the process
//! moves a few rounds, not the result.
//!
//! The timed phase is the requests themselves: in process, the sum of
//! the per-request intervals (call plus reply encoding); over the wire,
//! the wall time of the window loop. Inputs are built before a round,
//! and replies are checked outside the timed intervals against facts
//! computed apart from the serving path (see [`crate::check`]).

use crate::check::{self, HitVerdict, Shadow};
use crate::gen::{self, Key};
use crate::measure;
use crate::trace::{Replay, Tracer};
use crate::wire::{self, Rig};
use proptest::sqlgen::GenConfig;
use queryvis::sql::Edit;
use queryvis::{QueryVis, QueryVisOptions};
use queryvis_service::json::{self, Json};
use queryvis_service::{
    fingerprint_sql, CacheConfig, DiagramService, Format, Request, ServiceConfig, SessionConfig,
    SessionStore,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// No new round starts after this much wall time, so that a slow build
/// of the program still ends the run well inside its time limit.
const WALL_LIMIT_S: f64 = 120.0;

pub const WORKLOADS: &[&str] = &[
    "cold_compile",
    "pattern_hits",
    "editor_session",
    "wire_pipelined",
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The current round's per-request latencies, µs.
    pub latencies: Vec<f64>,
    /// Per-round median, 99th percentile and requests per timed second.
    pub round_p50: Vec<f64>,
    pub round_p99: Vec<f64>,
    pub round_rps: Vec<f64>,
    pub reply_bytes: u64,
    /// Sum of the timed request loops, s.
    pub timed_s: f64,
    /// Each set-up's time, s.
    pub setups: Vec<f64>,
    pub rounds: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn problem(&mut self, problem: String) {
        self.correct = false;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(problem) = result {
            self.problem(problem);
        }
    }
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// Run `make` [`SETUPS`] times, timing each; keep the last result and
/// hand the others to `discard`.
fn set_up<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<T> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let made = make()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Whole rounds until the timed loops add up to `seconds`. `round`
/// returns its timed seconds and leaves its latencies in
/// `out.latencies`, which are folded into the per-round summaries.
fn rounds(
    out: &mut Outcome,
    seconds: f64,
    mut round: impl FnMut(u64, &mut Outcome) -> Result<f64, String>,
) -> Result<(), String> {
    let wall = Instant::now();
    while out.timed_s < seconds && (out.rounds == 0 || wall.elapsed().as_secs_f64() < WALL_LIMIT_S)
    {
        out.latencies.clear();
        let timed = round(out.rounds, out)?;
        out.timed_s += timed;
        out.rounds += 1;
        let n = out.latencies.len() as f64;
        out.round_rps.push(n / timed);
        out.round_p50
            .push(measure::percentile(&mut out.latencies, 0.50));
        out.round_p99
            .push(measure::percentile(&mut out.latencies, 0.99));
    }
    Ok(())
}

/// Serve `requests` back to back, each timed through `handle` plus reply
/// encoding; `check` sees every reply after its timer stopped. Returns
/// the sum of the timed intervals, s.
fn plain_round(
    service: &DiagramService,
    requests: &[Request],
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
    mut check: impl FnMut(usize, &str, &mut Outcome),
) -> f64 {
    let mut reply = String::new();
    let mut timed = 0.0;
    for (i, request) in requests.iter().enumerate() {
        let traced = tracer.as_deref_mut().map(|t| {
            let replay = t.replay(&request.sql, false);
            let probes = t.probes(service, &request.sql, replay.fingerprint);
            let formats: Vec<&str> = request.formats.iter().map(Format::name).collect();
            t.decode(&gen::request_line(request.id, &request.sql, &formats));
            (replay, probes, service.stats())
        });
        let t0 = Instant::now();
        let response = service.handle(request);
        let t1 = Instant::now();
        reply.clear();
        response.write_json_line(&mut reply);
        drop(response);
        let t2 = Instant::now();
        timed += us(t0, t2);
        out.latencies.push(us(t0, t2));
        out.reply_bytes += reply.len() as u64;
        out.attempted += 1;
        if let (Some(t), Some((replay, probes, before))) = (tracer.as_deref_mut(), traced) {
            let after = service.stats();
            t.plain_request(
                &replay,
                probes,
                &before,
                &after,
                &request.formats,
                us(t0, t1),
                us(t1, t2),
            );
        }
        check(i, &reply, out);
    }
    timed / 1e6
}

/// The traced run's wire side pass: warm a side service with `texts`,
/// time its in-process handle+encode, then the same lines over the wire.
struct SideWire {
    service: Arc<DiagramService>,
    rig: Rig,
}

impl SideWire {
    fn start() -> Result<SideWire, String> {
        let service = Arc::new(DiagramService::new(ServiceConfig::default()));
        let rig = Rig::start(Arc::clone(&service)).map_err(|e| format!("side server: {e}"))?;
        Ok(SideWire { service, rig })
    }

    fn pass(
        &mut self,
        tracer: &mut Tracer,
        texts: &[String],
        formats: &[&str],
        encode: bool,
    ) -> Result<(), String> {
        let lines: Vec<String> = texts
            .iter()
            .enumerate()
            .map(|(i, sql)| gen::request_line(i as u64, sql, formats))
            .collect();
        let requests: Vec<Request> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| Request::from_json_line(l, i as u64).expect("side lines decode"))
            .collect();
        for request in &requests {
            self.service.handle(request);
        }
        let mut in_process = 0.0;
        let mut buffer = String::new();
        for request in &requests {
            let t0 = Instant::now();
            let response = self.service.handle(request);
            let t1 = Instant::now();
            buffer.clear();
            response.write_json_line(&mut buffer);
            let t2 = Instant::now();
            in_process += us(t0, t2);
            if encode {
                tracer.add("service.encode_us", us(t1, t2));
            }
        }
        let lines: Vec<String> = lines.into_iter().map(|l| l + "\n").collect();
        let (mut replies, mut latencies) = (Vec::new(), Vec::new());
        let pass_us = self
            .rig
            .pipelined(&lines, wire::WINDOW, &mut replies, &mut latencies)
            .map_err(|e| format!("side wire pass: {e}"))?;
        tracer.wire(lines.len(), pass_us, in_process);
        Ok(())
    }

    fn stop(self) -> Result<(), String> {
        let report = self.rig.stop().ok_or("side server did not report")?;
        check::check_drain(&report)
    }
}

/// Run one workload.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    match workload {
        "cold_compile" => cold_compile(seed, seconds, tracer),
        "pattern_hits" => pattern_hits(seed, seconds, tracer),
        "editor_session" => editor_session(seed, seconds, tracer),
        "wire_pipelined" => wire_pipelined(seed, seconds, tracer),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }
}

// ---------------------------------------------------------------------
// cold_compile
// ---------------------------------------------------------------------

/// Structurally distinct queries per round.
pub const COLD_ROUND: usize = 1024;
/// Queries compiled by the warm-up, outside the stream.
const COLD_WARM: usize = 64;
/// L2 of the cold service: far below the stream, so every insert past
/// the first 256 evicts.
const COLD_CACHE: CacheConfig = CacheConfig {
    capacity: 256,
    shards: 4,
};
pub const COLD_FORMATS: [Format; 3] = [Format::Ascii, Format::Svg, Format::SceneJson];

/// The cold stream: the corpus and the synthetic shapes, then sqlgen
/// queries, keeping only texts whose pattern the stream has not had yet.
/// `bindings` is set for synthetic shapes.
pub struct ColdStream {
    rng: proptest::test_runner::TestRng,
    seen: HashSet<u128>,
    queue: Vec<(String, Option<usize>)>,
}

impl ColdStream {
    pub fn new(seed: u64) -> ColdStream {
        let mut queue: Vec<(String, Option<usize>)> = gen::corpus_texts()
            .into_iter()
            .map(|sql| (sql, None))
            .collect();
        queue.extend(
            gen::synthetic_shapes()
                .into_iter()
                .map(|(sql, bindings)| (sql, Some(bindings))),
        );
        queue.reverse();
        ColdStream {
            rng: gen::rng("cold_compile", seed),
            seen: HashSet::new(),
            queue,
        }
    }

    /// The next `count` queries, shuffled.
    pub fn take(&mut self, count: usize) -> Vec<(String, Option<usize>)> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (sql, bindings) = self.queue.pop().unwrap_or_else(|| {
                let q = proptest::sqlgen::gen_query(&gen::COLD_GEN, &mut self.rng);
                (q.canonical(), None)
            });
            if let Ok(fq) = fingerprint_sql(&sql, QueryVisOptions::default()) {
                if self.seen.insert(fq.fingerprint.0) {
                    out.push((sql, bindings));
                }
            }
        }
        gen::shuffle(&mut out, &mut self.rng);
        out
    }
}

fn cold_requests(batch: &[(String, Option<usize>)]) -> Vec<Request> {
    batch
        .iter()
        .enumerate()
        .map(|(i, (sql, _))| Request {
            id: i as u64,
            sql: sql.clone(),
            formats: COLD_FORMATS.to_vec(),
            rows: None,
        })
        .collect()
}

fn cold_compile(
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let make = || {
        let service = DiagramService::new(ServiceConfig {
            cache: COLD_CACHE,
            ..ServiceConfig::default()
        });
        let mut stream = ColdStream::new(seed);
        let mut warm_rng = gen::rng("cold_compile/warm", seed);
        let warm = gen::draw(
            &gen::COLD_GEN,
            &mut warm_rng,
            COLD_WARM,
            |q| match fingerprint_sql(&q.canonical(), QueryVisOptions::default()) {
                Ok(fq) => stream.seen.insert(fq.fingerprint.0),
                Err(_) => false,
            },
        );
        for q in &warm {
            let mut request = ascii_request(0, q.canonical());
            request.formats = COLD_FORMATS.to_vec();
            service.handle(&request);
        }
        let first = stream.take(COLD_ROUND);
        Ok((service, stream, first))
    };
    let ((service, mut stream, first), setups) = set_up(make, drop)?;
    out.setups = setups;
    let mut batch = Some(first);
    let mut side = match tracer {
        Some(_) => Some(SideWire::start()?),
        None => None,
    };
    rounds(&mut out, seconds, |_, out| {
        let batch = batch.take().unwrap_or_else(|| stream.take(COLD_ROUND));
        let requests = cold_requests(&batch);
        let before = service.stats();
        let timed = plain_round(
            &service,
            &requests,
            out,
            tracer.as_deref_mut(),
            |i, reply, out| {
                let request = &requests[i];
                let expected = check::cold_expected(request.id, &request.sql, &COLD_FORMATS);
                out.check(expected.and_then(|e| check::same_bytes(&request.sql, reply, &e)));
                if let Some(bindings) = batch[i].1 {
                    out.check(check::check_tables(&request.sql, bindings));
                }
            },
        );
        if let (Some(t), Some(side)) = (tracer.as_deref_mut(), side.as_mut()) {
            t.service_round(&before, &service.stats());
            let texts: Vec<String> = batch.into_iter().map(|(sql, _)| sql).collect();
            t.session_side_pass(&texts[..32]);
            side.pass(t, &texts[..256], &["ascii", "svg", "scene_json"], false)?;
            t.rounds += 1;
        }
        Ok(timed)
    })?;
    if let Some(side) = side {
        out.check(side.stop());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// pattern_hits
// ---------------------------------------------------------------------

/// Base queries warmed into L2 (far below its 4096 entries).
pub const HIT_BASES: usize = 2048;
/// Fresh pattern-preserving variants of each base per round.
const HIT_VARIANTS: usize = 3;
/// Rounds after which a renamed text recurs. Between two uses of one tag
/// more fresh texts pass through L1 than its FIFO holds, so a recurring
/// text misses again; and the names the interner learns stay bounded.
pub const TAG_PERIOD: u64 = 16;

/// One request of a pattern_hits round; its text is `text` renamed with
/// the tag of round `r + tag_offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitItem {
    pub text: String,
    pub tag_offset: u64,
    /// Index of the base whose warm-up reply this request must match.
    pub base: usize,
    /// Symmetric-conjunct family member `(k, reversed)`.
    pub family: Option<(usize, bool)>,
}

impl HitItem {
    pub fn text_for(&self, round: u64) -> String {
        gen::rename(
            &self.text,
            &gen::round_tag((round + self.tag_offset) % TAG_PERIOD),
        )
    }
}

/// The pattern set and the round plan.
pub struct HitInputs {
    /// Texts warmed first: every base, and both orders of the family.
    pub warm: Vec<String>,
    /// For each base, the index into `warm` of its text.
    pub base_warm: Vec<usize>,
    pub items: Vec<HitItem>,
}

/// Generate the pattern set (bases accepted by `compiles`) and the plan.
pub fn hit_inputs(seed: u64, mut compiles: impl FnMut(&str) -> bool) -> HitInputs {
    let mut rng = gen::rng("pattern_hits", seed);
    let bases = gen::draw(&GenConfig::default(), &mut rng, HIT_BASES, |q| {
        compiles(&q.canonical())
    });
    let mut warm = Vec::new();
    let mut base_warm = Vec::new();
    let mut items = Vec::new();
    for (b, q) in bases.iter().enumerate() {
        warm.push(q.canonical());
        base_warm.push(warm.len() - 1);
        let variants: Vec<String> = (0..HIT_VARIANTS)
            .map(|_| q.pattern_variant(rng.below(1 << 20)))
            .collect();
        // The exact repeat: the first variant as sent in the previous
        // round, so it is still in L1.
        items.push(HitItem {
            text: variants[0].clone(),
            tag_offset: TAG_PERIOD - 1,
            base: b,
            family: None,
        });
        for text in variants {
            items.push(HitItem {
                text,
                tag_offset: 0,
                base: b,
                family: None,
            });
        }
    }
    for k in gen::FAMILY_KS {
        let forward = gen::family(k, false);
        warm.push(forward.clone());
        warm.push(gen::family(k, true));
        base_warm.push(warm.len() - 2);
        let base = base_warm.len() - 1;
        for reverse in [false, true] {
            items.push(HitItem {
                text: gen::family(k, reverse),
                tag_offset: 0,
                base,
                family: Some((k, reverse)),
            });
        }
    }
    gen::shuffle(&mut items, &mut rng);
    HitInputs {
        warm,
        base_warm,
        items,
    }
}

fn ascii_request(id: u64, sql: String) -> Request {
    Request {
        id,
        sql,
        formats: vec![Format::Ascii],
        rows: None,
    }
}

fn pattern_hits(
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let make = || {
        let service = DiagramService::new(ServiceConfig::default());
        let inputs = hit_inputs(seed, |sql| service.warm(sql));
        let mut warm_replies = Vec::with_capacity(inputs.warm.len());
        for sql in &inputs.warm {
            warm_replies.push(
                service
                    .handle(&ascii_request(0, sql.clone()))
                    .to_json_line(),
            );
        }
        // Round 0's exact repeats are the texts of a round before it.
        for item in inputs.items.iter().filter(|i| i.tag_offset != 0) {
            service.handle(&ascii_request(0, item.text_for(0)));
        }
        Ok((service, inputs, warm_replies))
    };
    let ((service, inputs, warm_replies), setups) = set_up(make, drop)?;
    out.setups = setups;
    let base_replies: Vec<&String> = inputs.base_warm.iter().map(|&w| &warm_replies[w]).collect();
    let mut side = match tracer {
        Some(_) => Some(SideWire::start()?),
        None => None,
    };
    rounds(&mut out, seconds, |round, out| {
        let requests: Vec<Request> = inputs
            .items
            .iter()
            .enumerate()
            .map(|(i, item)| ascii_request(i as u64, item.text_for(round)))
            .collect();
        let before = service.stats();
        let timed = plain_round(
            &service,
            &requests,
            out,
            tracer.as_deref_mut(),
            |i, reply, out| {
                let item = &inputs.items[i];
                match check::check_hit(reply, base_replies[item.base]) {
                    Ok(HitVerdict::Pass) => {}
                    Ok(HitVerdict::Split) if item.family.is_some() => out.failed += 1,
                    Ok(HitVerdict::Split) => out.problem(format!(
                        "request {i} split from its base pattern: {}",
                        requests[i].sql
                    )),
                    Err(problem) => out.problem(problem),
                }
            },
        );
        let after = service.stats();
        if after.compiles != before.compiles {
            out.problem(format!(
                "round {round}: {} pattern_hits requests compiled",
                after.compiles - before.compiles
            ));
        }
        if let (Some(t), Some(side)) = (tracer.as_deref_mut(), side.as_mut()) {
            t.service_round(&before, &after);
            t.session_side_pass(&inputs.warm[..32]);
            let texts: Vec<String> = requests.into_iter().map(|r| r.sql).collect();
            side.pass(t, &texts[..256], &["ascii"], false)?;
            t.rounds += 1;
        }
        Ok(timed)
    })?;
    if let Some(side) = side {
        out.check(side.stop());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// editor_session
// ---------------------------------------------------------------------

/// Queries whose keystroke scripts make one round.
pub const EDIT_QUERIES: usize = 64;

#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    Open,
    Edit(Key),
    Close,
}

/// One session request of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub id: u64,
    pub line: String,
    pub kind: OpKind,
    /// The client's buffer after this op.
    pub buffer: String,
    pub script: usize,
}

/// The keystroke scripts of one round, as session requests. A fresh
/// store numbers sessions from 1 in open order, so script `s` edits
/// session `s + 1`.
pub fn edit_inputs(seed: u64) -> (Vec<String>, Vec<Op>) {
    let mut rng = gen::rng("editor_session", seed);
    let queries: Vec<String> = gen::draw(&gen::EDIT_GEN, &mut rng, EDIT_QUERIES, |q| {
        QueryVis::prepare(&q.canonical(), QueryVisOptions::default()).is_ok()
    })
    .iter()
    .map(|q| q.canonical())
    .collect();
    let mut ops = Vec::new();
    let scripts: Vec<gen::Script> = queries.iter().flat_map(|q| gen::scripts_for(q)).collect();
    for (s, script) in scripts.iter().enumerate() {
        let session = s as u64 + 1;
        let mut buffer = script.start.clone();
        let id = ops.len() as u64;
        ops.push(Op {
            id,
            line: gen::open_line(id, &buffer),
            kind: OpKind::Open,
            buffer: buffer.clone(),
            script: s,
        });
        for key in &script.keys {
            gen::apply_key(&mut buffer, key);
            let id = ops.len() as u64;
            ops.push(Op {
                id,
                line: gen::edit_line(id, session, key),
                kind: OpKind::Edit(key.clone()),
                buffer: buffer.clone(),
                script: s,
            });
        }
        let id = ops.len() as u64;
        ops.push(Op {
            id,
            line: gen::close_line(id, session),
            kind: OpKind::Close,
            buffer,
            script: s,
        });
    }
    (queries, ops)
}

/// The traced replay of one session op, before it is served.
struct EditTrace {
    replay: Replay,
    relex: f64,
    diff: f64,
    compiles: u64,
}

fn editor_session(
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let make = || {
        let (queries, ops) = edit_inputs(seed);
        let values: Vec<Json> = ops
            .iter()
            .map(|op| json::parse(&op.line).expect("session request lines are JSON"))
            .collect();
        // Warm-up: the whole script once, on a store that is then dropped.
        let store = SessionStore::new(
            Arc::new(DiagramService::new(ServiceConfig::default())),
            SessionConfig::default(),
        );
        for (op, value) in ops.iter().zip(&values) {
            store.dispatch_value(value, op.id, 1);
        }
        Ok((queries, ops, values))
    };
    let ((queries, ops, values), setups) = set_up(make, drop)?;
    out.setups = setups;
    let mut side = match tracer {
        Some(_) => Some(SideWire::start()?),
        None => None,
    };
    let mut first: Vec<String> = Vec::new();
    let mut replies: Vec<String> = Vec::with_capacity(ops.len());
    // Replay state of the traced run: the previous buffer's tokens and
    // the last scene that compiled.
    let mut tokens: Vec<queryvis::sql::token::Token> = Vec::new();
    let mut last_scene: Option<queryvis::layout::Scene> = None;
    rounds(&mut out, seconds, |round, out| {
        let service = Arc::new(DiagramService::new(ServiceConfig::default()));
        let store = SessionStore::new(Arc::clone(&service), SessionConfig::default());
        let (service_before, session_before) = (service.stats(), store.snapshot());
        replies.clear();
        let mut timed = 0.0;
        for (op, value) in ops.iter().zip(&values) {
            let traced = tracer.as_deref_mut().map(|t| {
                let t0 = Instant::now();
                std::hint::black_box(json::parse(&op.line).ok());
                t.add("service.decode_us", us(t0, Instant::now()));
                let mut relex = 0.0;
                if let OpKind::Edit(key) = &op.kind {
                    let edit = Edit {
                        offset: key.at,
                        deleted: key.del,
                        inserted: key.ins.clone(),
                    };
                    relex = t.relex(&tokens, &op.buffer, &edit);
                }
                let replay = match op.kind {
                    OpKind::Close => Replay::default(),
                    _ => t.replay(&op.buffer, true),
                };
                t.probes(&service, &op.buffer, replay.fingerprint);
                let mut diff = 0.0;
                if let (Some(old), Some(new)) = (&last_scene, &replay.built) {
                    diff = t.diff(old, new);
                }
                EditTrace {
                    replay,
                    relex,
                    diff,
                    compiles: service.stats().compiles,
                }
            });
            let t0 = Instant::now();
            let reply = store.dispatch_value(value, op.id, 1);
            let dt = us(t0, Instant::now());
            timed += dt;
            out.latencies.push(dt);
            out.reply_bytes += reply.len() as u64;
            out.attempted += 1;
            if let (Some(t), Some(trace)) = (tracer.as_deref_mut(), traced) {
                let compiled = service.stats().compiles > trace.compiles;
                let mut on_path = trace.relex + trace.diff;
                if !reply.contains("\"path\":\"tokens\"") {
                    on_path += trace.replay.frontend();
                }
                if compiled {
                    on_path += trace.replay.backend(&[Format::SceneJson]);
                }
                t.add("service.handle_us", dt);
                t.add("service.unattributed_us", dt - on_path);
                if matches!(op.kind, OpKind::Edit(_)) {
                    t.add("session.edit_us", dt);
                }
                let mut next = Vec::new();
                if queryvis::sql::tokenize_into(
                    &op.buffer,
                    queryvis::ir::Interner::global(),
                    &mut next,
                )
                .is_ok()
                {
                    tokens = next;
                }
                if trace.replay.built.is_some() {
                    last_scene = trace.replay.built;
                }
            }
            replies.push(reply);
        }
        let timed = timed / 1e6;
        if round == 0 {
            let mut shadows: Vec<Shadow> = Vec::new();
            for (op, reply) in ops.iter().zip(&replies) {
                if shadows.len() <= op.script {
                    shadows.push(Shadow::default());
                }
                let result = match op.kind {
                    OpKind::Close => check::check_close(reply),
                    _ => check::check_session(&op.buffer, reply, &mut shadows[op.script]),
                };
                out.check(result.map_err(|e| format!("op {}: {e}", op.id)));
            }
            first = replies.clone();
        } else {
            for (i, (got, want)) in replies.iter().zip(&first).enumerate() {
                out.check(check::same_bytes(&format!("session op {i}"), got, want));
            }
        }
        if let (Some(t), Some(side)) = (tracer.as_deref_mut(), side.as_mut()) {
            t.service_round(&service_before, &service.stats());
            t.session_round(&session_before, &store.snapshot());
            let texts: Vec<String> = queries.iter().cycle().take(256).cloned().collect();
            side.pass(t, &texts, &["scene_json"], true)?;
            t.rounds += 1;
        }
        Ok(timed)
    })?;
    if let Some(side) = side {
        out.check(side.stop());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// wire_pipelined
// ---------------------------------------------------------------------

/// Distinct sqlgen texts served (besides the corpus).
pub const WIRE_TEXTS: usize = 1024;
/// Requests per round besides the family's 18: 2048 in all, 64 full
/// windows.
pub const WIRE_ROUND: usize = 2030;

/// The wire workload's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireInputs {
    /// Every text served, all warmed: the corpus, sqlgen texts and both
    /// orders of the symmetric-conjunct family.
    pub texts: Vec<String>,
    /// One round's request lines, each ending in a newline; line `i`
    /// carries id `i`.
    pub lines: Vec<String>,
    /// For each reversed family line, the forward text whose fingerprint
    /// its reply must carry.
    pub forward_of: Vec<Option<String>>,
}

/// [`WIRE_ROUND`] lines picking corpus and sqlgen texts uniformly by
/// seed, plus each family member once, in a seeded order.
pub fn wire_inputs(seed: u64, mut compiles: impl FnMut(&str) -> bool) -> WireInputs {
    let mut rng = gen::rng("wire_pipelined", seed);
    let mut texts = gen::corpus_texts();
    texts.extend(
        gen::draw(&GenConfig::default(), &mut rng, WIRE_TEXTS, |q| {
            compiles(&q.canonical())
        })
        .iter()
        .map(|q| q.canonical()),
    );
    let mut picks: Vec<(String, Option<String>)> = (0..WIRE_ROUND)
        .map(|_| (texts[rng.below(texts.len() as u64) as usize].clone(), None))
        .collect();
    for k in gen::FAMILY_KS {
        let (forward, reversed) = (gen::family(k, false), gen::family(k, true));
        picks.push((forward.clone(), None));
        picks.push((reversed.clone(), Some(forward.clone())));
        texts.push(forward);
        texts.push(reversed);
    }
    gen::shuffle(&mut picks, &mut rng);
    let lines = picks
        .iter()
        .enumerate()
        .map(|(i, (sql, _))| gen::request_line(i as u64, sql, &["ascii"]) + "\n")
        .collect();
    WireInputs {
        texts,
        lines,
        forward_of: picks.into_iter().map(|(_, forward)| forward).collect(),
    }
}

fn wire_pipelined(
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let make = || {
        let service = Arc::new(DiagramService::new(ServiceConfig::default()));
        let inputs = wire_inputs(seed, |sql| service.warm(sql));
        for sql in &inputs.texts {
            service.handle(&ascii_request(0, sql.clone()));
        }
        let rig = Rig::start(Arc::clone(&service)).map_err(|e| format!("server: {e}"))?;
        Ok((service, inputs, rig))
    };
    let ((service, inputs, mut rig), setups) = set_up(make, |(_, _, rig)| {
        rig.stop();
    })?;
    out.setups = setups;
    let WireInputs {
        texts,
        lines,
        forward_of,
    } = inputs;
    let requests: Vec<Request> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            Request::from_json_line(l.trim_end(), i as u64).expect("request lines decode")
        })
        .collect();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| service.handle(r).to_json_line())
        .collect();
    // The fingerprint each reversed family reply must carry.
    let forward_fingerprints: Vec<Option<String>> = forward_of
        .iter()
        .map(|forward| {
            forward.as_ref().map(|sql| {
                let reply = service
                    .handle(&ascii_request(0, sql.clone()))
                    .to_json_line();
                check::reply_fingerprint(&reply)
                    .unwrap_or_default()
                    .to_string()
            })
        })
        .collect();
    let mut replies = Vec::new();
    rounds(&mut out, seconds, |_, out| {
        rig.reconnect().map_err(|e| format!("reconnect: {e}"))?;
        let before = service.stats();
        let pass_us = rig
            .pipelined(&lines, wire::WINDOW, &mut replies, &mut out.latencies)
            .map_err(|e| format!("wire pass: {e}"))?;
        let after = service.stats();
        out.attempted += lines.len() as u64;
        out.reply_bytes += replies.iter().map(|r| r.len() as u64).sum::<u64>();
        out.check(check::check_wire_round(&replies, &expected));
        for (reply, forward) in replies.iter().zip(&forward_fingerprints) {
            if let Some(forward) = forward {
                if check::reply_fingerprint(reply) != Some(forward.as_str()) {
                    out.failed += 1;
                }
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.service_round(&before, &after);
            let mut in_process = 0.0;
            let mut buffer = String::new();
            for (request, line) in requests.iter().zip(&lines) {
                t.decode(line.trim_end());
                let replay = t.replay(&request.sql, false);
                let probes = t.probes(&service, &request.sql, replay.fingerprint);
                let stats = service.stats();
                let t0 = Instant::now();
                let response = service.handle(request);
                let t1 = Instant::now();
                buffer.clear();
                response.write_json_line(&mut buffer);
                let t2 = Instant::now();
                in_process += us(t0, t2);
                t.plain_request(
                    &replay,
                    probes,
                    &stats,
                    &service.stats(),
                    &request.formats,
                    us(t0, t1),
                    us(t1, t2),
                );
            }
            t.wire(lines.len(), pass_us, in_process);
            t.session_side_pass(&texts[..32]);
            t.rounds += 1;
        }
        Ok(pass_us / 1e6)
    })?;
    match rig.stop() {
        Some(report) => out.check(check::check_drain(&report)),
        None => out.problem("the server did not report its drain".to_string()),
    }
    Ok(out)
}
