//! The traced run: each request is replayed, on one thread, through the
//! public function of every layer, with a timer read between calls; the
//! untraced `handle` (or session `dispatch_value`) on the same input is
//! timed as one unit. No tracing code lives in the program.
//!
//! Every time metric is a mean over the calls it names: pipeline layers
//! per replayed request (0 for a request whose text stops before that
//! layer), `session.*` per edit, `server.wire_us` per request sent over
//! the wire. Counters are per round, and every round is the same inputs.
//! `service.unattributed_us` is the traced call's time minus the layers
//! that call actually ran (read from the service's counters around it).

use crate::measure::Metric;
use queryvis::diagram::build_diagram;
use queryvis::ir::Interner;
use queryvis::layout::{
    build_scene, compose_union, layout_diagram, LayoutOptions, Scene, SceneOptions,
};
use queryvis::render::{ascii, svg, SvgTheme};
use queryvis::sql::token::Token;
use queryvis::sql::{parse_query_expr_tokens, relex, tokenize_into, Edit};
use queryvis::{rewrite_passes, PatternKey, QueryVis, QueryVisOptions};
use queryvis_service::{
    diff_scenes, scene_json_v2, write_scene_json, DiagramService, Fingerprint, Format, Request,
    ServiceStats, SessionConfig, SessionStore,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.lex_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.relex_us", "us"),
    ("sql.tokens_per_req", "count"),
    ("logic.translate_us", "us"),
    ("logic.simplify_us", "us"),
    ("core.canonicalize_us", "us"),
    ("core.pattern_tokens_per_req", "count"),
    ("diagram.build_us", "us"),
    ("layout.layout_us", "us"),
    ("layout.scene_us", "us"),
    ("layout.marks_per_req", "count"),
    ("render.ascii_us", "us"),
    ("render.svg_us", "us"),
    ("service.scene_json_us", "us"),
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("service.l1_probe_us", "us"),
    ("service.l2_probe_us", "us"),
    ("service.handle_us", "us"),
    ("service.unattributed_us", "us"),
    ("service.compiles", "count/round"),
    ("service.l1_hits", "count/round"),
    ("service.l2_hits", "count/round"),
    ("service.evictions", "count/round"),
    ("session.edit_us", "us"),
    ("session.diff_us", "us"),
    ("session.path_tokens", "count/round"),
    ("session.path_fragment", "count/round"),
    ("session.path_full", "count/round"),
    ("session.patches", "count/round"),
    ("session.resyncs", "count/round"),
    ("server.wire_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer self times of one replayed request, in µs.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub lex: f64,
    pub parse: f64,
    pub translate: f64,
    pub canonicalize: f64,
    pub simplify: f64,
    pub diagram: f64,
    pub layout: f64,
    pub scene: f64,
    pub ascii: f64,
    pub svg: f64,
    pub scene_json: f64,
    pub tokens: usize,
    pub pattern_tokens: usize,
    pub marks: usize,
    pub fingerprint: Option<Fingerprint>,
    pub built: Option<Scene>,
}

impl Replay {
    /// The front half a full-frontend request runs.
    pub fn frontend(&self) -> f64 {
        self.lex + self.parse + self.translate + self.canonicalize
    }

    /// The back half a compile runs, with the renders of `formats`.
    pub fn backend(&self, formats: &[Format]) -> f64 {
        let mut sum = self.simplify + self.diagram;
        if formats
            .iter()
            .any(|f| matches!(f, Format::Ascii | Format::Svg | Format::SceneJson))
        {
            sum += self.layout + self.scene;
        }
        for f in formats {
            sum += match f {
                Format::Ascii => self.ascii,
                Format::Svg => self.svg,
                Format::SceneJson => self.scene_json,
                Format::Dot | Format::Reading => 0.0,
            };
        }
        sum
    }
}

/// The accumulated traced run.
pub struct Tracer {
    sums: BTreeMap<&'static str, (f64, u64)>,
    counts: BTreeMap<&'static str, u64>,
    pub rounds: u64,
    timer_reads: u64,
    traced_requests: u64,
    options: Arc<QueryVisOptions>,
    tokens: Vec<Token>,
    pattern: Vec<u32>,
    text: String,
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            sums: BTreeMap::new(),
            counts: BTreeMap::new(),
            rounds: 0,
            timer_reads: 0,
            traced_requests: 0,
            options: Arc::new(QueryVisOptions::default()),
            tokens: Vec::new(),
            pattern: Vec::new(),
            text: String::new(),
        }
    }

    /// Add one sample to a mean metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.sums.entry(name).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    /// Add to a per-round counter.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_insert(0) += delta;
    }

    /// Replay one text through every layer; `v2` serializes the scene as
    /// the session front end does.
    pub fn replay(&mut self, sql: &str, v2: bool) -> Replay {
        let interner = Interner::global();
        let mut r = Replay::default();
        self.traced_requests += 1;
        let mut reads = 1u64;
        let t0 = Instant::now();
        let lexed = tokenize_into(sql, interner, &mut self.tokens);
        let t1 = Instant::now();
        r.lex = us(t0, t1);
        r.tokens = self.tokens.len();
        reads += 1;
        'replay: {
            if lexed.is_err() {
                break 'replay;
            }
            let Ok(expr) = parse_query_expr_tokens(sql, &self.tokens, interner) else {
                r.parse = us(t1, Instant::now());
                reads += 1;
                break 'replay;
            };
            let t2 = Instant::now();
            r.parse = us(t1, t2);
            let prepared = QueryVis::prepare_parsed(sql, expr, Arc::clone(&self.options));
            let t3 = Instant::now();
            r.translate = us(t2, t3);
            reads += 2;
            let Ok(prepared) = prepared else {
                break 'replay;
            };
            prepared.pattern_tokens_into(&mut self.pattern);
            let fingerprint = Fingerprint(PatternKey::fingerprint128_of(&self.pattern));
            let t4 = Instant::now();
            r.canonicalize = us(t3, t4);
            r.pattern_tokens = self.pattern.len();
            r.fingerprint = Some(fingerprint);
            reads += 1;

            let mut simplified = Vec::new();
            let mut clock = Instant::now();
            for tree in prepared.trees() {
                let mut tree = tree.clone();
                rewrite_passes()
                    .run(&mut tree)
                    .expect("rewrite passes are infallible");
                let now = Instant::now();
                r.simplify += us(clock, now);
                let diagram = build_diagram(&tree);
                clock = Instant::now();
                r.diagram += us(now, clock);
                simplified.push(diagram);
                reads += 2;
            }
            let layout_options = LayoutOptions::default();
            let scene_options = SceneOptions::default();
            let mut scenes = Vec::with_capacity(simplified.len());
            for diagram in &simplified {
                let layout = layout_diagram(diagram, &layout_options);
                let now = Instant::now();
                r.layout += us(clock, now);
                scenes.push(build_scene(diagram, &layout, &scene_options));
                clock = Instant::now();
                r.scene += us(now, clock);
                reads += 2;
            }
            let scene = compose_union(scenes, prepared.union_all);
            let t5 = Instant::now();
            r.scene += us(clock, t5);
            r.marks = scene.marks().count();
            black_box(ascii::to_ascii(&scene));
            let t6 = Instant::now();
            r.ascii = us(t5, t6);
            black_box(svg::to_svg(&scene, &SvgTheme::default()));
            let t7 = Instant::now();
            r.svg = us(t6, t7);
            self.text.clear();
            if v2 {
                self.text.push_str(&scene_json_v2(&scene));
            } else {
                write_scene_json(&mut self.text, &scene);
            }
            black_box(&self.text);
            r.scene_json = us(t7, Instant::now());
            reads += 4;
            r.built = Some(scene);
        }
        self.timer_reads += reads;
        self.add("sql.lex_us", r.lex);
        self.add("sql.parse_us", r.parse);
        self.add("logic.translate_us", r.translate);
        self.add("core.canonicalize_us", r.canonicalize);
        self.add("logic.simplify_us", r.simplify);
        self.add("diagram.build_us", r.diagram);
        self.add("layout.layout_us", r.layout);
        self.add("layout.scene_us", r.scene);
        self.add("render.ascii_us", r.ascii);
        self.add("render.svg_us", r.svg);
        self.add("service.scene_json_us", r.scene_json);
        self.add("sql.tokens_per_req", r.tokens as f64);
        self.add("core.pattern_tokens_per_req", r.pattern_tokens as f64);
        self.add("layout.marks_per_req", r.marks as f64);
        r
    }

    /// Time the service's own probes for `sql` (read-only: the L2 probe
    /// is the counter-free `peek`, so the cache state is left alone).
    /// Returns `(l1, l2)` in µs.
    pub fn probes(
        &mut self,
        service: &DiagramService,
        sql: &str,
        fp: Option<Fingerprint>,
    ) -> (f64, f64) {
        let t0 = Instant::now();
        let memo = service.memo().lookup(sql);
        let t1 = Instant::now();
        let fp = memo.map(|(f, _)| f).or(fp);
        let l2 = match fp {
            Some(fp) => {
                black_box(service.cache().peek(fp));
                us(t1, Instant::now())
            }
            None => 0.0,
        };
        self.timer_reads += 3;
        let l1 = us(t0, t1);
        self.add("service.l1_probe_us", l1);
        self.add("service.l2_probe_us", l2);
        (l1, l2)
    }

    /// Time decoding one request line.
    pub fn decode(&mut self, line: &str) {
        let t0 = Instant::now();
        black_box(Request::from_json_line(line, 0).expect("benchmark request lines decode"));
        self.add("service.decode_us", us(t0, Instant::now()));
        self.timer_reads += 2;
    }

    /// Account one traced plain request: `handle_us`/`encode_us` of the
    /// untraced call and which layers it ran (from the counters around it).
    #[allow(clippy::too_many_arguments)]
    pub fn plain_request(
        &mut self,
        replay: &Replay,
        probes: (f64, f64),
        before: &ServiceStats,
        after: &ServiceStats,
        formats: &[Format],
        handle_us: f64,
        encode_us: f64,
    ) {
        let mut on_path = probes.0 + probes.1;
        if after.l1_hits == before.l1_hits {
            on_path += replay.frontend();
            if after.compiles > before.compiles {
                on_path += replay.backend(formats);
            }
        }
        self.add("service.handle_us", handle_us);
        self.add("service.encode_us", encode_us);
        self.add("service.unattributed_us", handle_us - on_path);
    }

    /// Fold the service counters of one round.
    pub fn service_round(&mut self, before: &ServiceStats, after: &ServiceStats) {
        self.count("service.compiles", after.compiles - before.compiles);
        self.count("service.l1_hits", after.l1_hits - before.l1_hits);
        self.count("service.l2_hits", after.cache.hits - before.cache.hits);
        self.count(
            "service.evictions",
            after.cache.evictions - before.cache.evictions,
        );
    }

    /// Time one incremental relex (the session front end's first step).
    pub fn relex(&mut self, old_tokens: &[Token], new_source: &str, edit: &Edit) -> f64 {
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(old_tokens.len() + 4);
        black_box(relex(new_source, old_tokens, edit, Interner::global(), &mut out).ok());
        let dt = us(t0, Instant::now());
        self.timer_reads += 2;
        self.add("sql.relex_us", dt);
        dt
    }

    /// Time one scene diff.
    pub fn diff(&mut self, old: &Scene, new: &Scene) -> f64 {
        let t0 = Instant::now();
        black_box(diff_scenes(old, new));
        let dt = us(t0, Instant::now());
        self.timer_reads += 2;
        self.add("session.diff_us", dt);
        dt
    }

    /// The session layer on a workload that does not edit: open a
    /// session on each text, then time one keystroke (a trailing space)
    /// through the store, the relex and the scene diff it implies.
    pub fn session_side_pass(&mut self, texts: &[String]) {
        let service = Arc::new(DiagramService::new(Default::default()));
        let store = SessionStore::new(Arc::clone(&service), SessionConfig::default());
        let before = store.snapshot();
        for sql in texts {
            let Ok((id, Ok(_))) = store.open(sql, 1) else {
                continue;
            };
            let edit = Edit::insert(sql.len(), " ");
            let t0 = Instant::now();
            black_box(store.edit(id, std::slice::from_ref(&edit), 1).ok());
            self.add("session.edit_us", us(t0, Instant::now()));
            self.timer_reads += 2;
            let mut tokens = Vec::new();
            let mut edited = sql.clone();
            edited.push(' ');
            if tokenize_into(sql, Interner::global(), &mut tokens).is_ok() {
                self.relex(&tokens, &edited, &edit);
            }
            if let Ok(qv) = QueryVis::from_sql(sql) {
                let scene = qv.scene();
                self.diff(&scene, &scene);
            }
            let _ = store.close(id, 1);
        }
        let after = store.snapshot();
        self.session_round(&before, &after);
    }

    /// Fold the session counters of one round.
    pub fn session_round(
        &mut self,
        before: &queryvis_service::SessionStatsSnapshot,
        after: &queryvis_service::SessionStatsSnapshot,
    ) {
        self.count(
            "session.path_tokens",
            after.path_tokens - before.path_tokens,
        );
        self.count(
            "session.path_fragment",
            after.path_fragment - before.path_fragment,
        );
        self.count("session.path_full", after.path_full - before.path_full);
        self.count("session.patches", after.patches - before.patches);
        self.count("session.resyncs", after.resyncs - before.resyncs);
    }

    /// Per-request wire cost of one pipelined pass: the pass's time per
    /// request minus the in-process handle+encode of the same requests.
    pub fn wire(&mut self, requests: usize, pass_us: f64, in_process_us: f64) {
        if requests > 0 {
            let slot = self.sums.entry("server.wire_us").or_insert((0.0, 0));
            slot.0 += pass_us - in_process_us;
            slot.1 += requests as u64;
        }
    }

    /// Time one `Instant::now()` read, to price the tracing itself.
    fn timer_cost_us() -> f64 {
        const READS: u32 = 200_000;
        let t0 = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(READS)
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let rounds = self.rounds.max(1) as f64;
        let mean = |name: &str| {
            self.sums
                .get(name)
                .map_or(0.0, |(sum, n)| if *n == 0 { 0.0 } else { sum / *n as f64 })
        };
        let overhead_us =
            self.timer_reads as f64 * Tracer::timer_cost_us() / self.traced_requests.max(1) as f64;
        let handle = mean("service.handle_us");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.overhead_us" => overhead_us,
                    "trace.overhead_pct" => 100.0 * overhead_us / handle,
                    _ if unit == "count/round" => {
                        self.counts.get(name).copied().unwrap_or(0) as f64 / rounds
                    }
                    _ => mean(name),
                };
                Metric { name, value, unit }
            })
            .collect()
    }
}
