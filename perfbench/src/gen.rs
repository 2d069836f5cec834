//! Seeded input generation. Every input of every workload is a pure
//! function of `(workload, seed)`: the same seed yields the same texts,
//! scripts and request lines byte for byte.
//!
//! Sources: the paper corpus, the `proptest::sqlgen` generator of the
//! widened fragment, synthetic width×depth shapes, and the fixed
//! symmetric-conjunct family.

use proptest::sqlgen::{gen_query, GenConfig, GenQuery};
use proptest::test_runner::TestRng;
use queryvis_service::json::escape_into;

/// The generator stream for one workload and seed.
pub fn rng(workload: &str, seed: u64) -> TestRng {
    TestRng::for_case(&format!("perfbench/{workload}"), seed)
}

/// Fisher–Yates shuffle driven by the seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Every word the lexer treats as a keyword (case-insensitive); all other
/// words are names.
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "AS", "NOT", "EXISTS", "IN", "ANY", "SOME", "ALL", "GROUP",
    "BY", "COUNT", "SUM", "AVG", "MIN", "MAX", "OR", "HAVING", "JOIN", "ON", "INNER", "UNION",
    "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "DISTINCT", "ORDER",
];

fn is_keyword(word: &str) -> bool {
    KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(word))
}

/// Prefix every table, alias and column name with `prefix`. A common
/// prefix keeps the relative order of all names, so the rewrite is
/// pattern-preserving; it changes the text, so the L1 memo misses.
pub fn rename(sql: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(sql.len() * 2);
    let mut chars = sql.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c == '\'' {
            out.push(c);
            for (_, d) in chars.by_ref() {
                out.push(d);
                if d == '\'' {
                    break;
                }
            }
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut end = i + c.len_utf8();
            while let Some(&(j, d)) = chars.peek() {
                if d.is_ascii_alphanumeric() || d == '_' {
                    end = j + d.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let word = &sql[i..end];
            if !is_keyword(word) {
                out.push_str(prefix);
            }
            out.push_str(word);
        } else if c.is_ascii_digit() {
            out.push(c);
            while let Some(&(_, d)) = chars.peek() {
                if d.is_ascii_alphanumeric() || d == '.' {
                    out.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The round tag prefixed to every name in round `round`'s fresh texts.
pub fn round_tag(round: u64) -> String {
    format!("r{round}_")
}

/// One member of the symmetric-conjunct family: `k` token-symmetric
/// conjuncts `T.ci = U.k` plus two anchors, written forward or reversed.
/// Both orders are one pattern, so they must share one fingerprint.
pub fn family(k: usize, reverse: bool) -> String {
    let mut conjuncts: Vec<String> = (0..k).map(|i| format!("T.c{i} = U.k")).collect();
    conjuncts.push("T.c0 = V.m".to_string());
    conjuncts.push("T.c1 = W.n".to_string());
    if reverse {
        conjuncts.reverse();
    }
    format!(
        "SELECT * FROM R T, S U, X V, Y W WHERE {}",
        conjuncts.join(" AND ")
    )
}

/// Conjunct counts of the family members requested each round.
pub const FAMILY_KS: std::ops::RangeInclusive<usize> = 2..=10;

/// A synthetic shape: `width` tables per block, `depth` nested
/// `NOT EXISTS` blocks below the root. Returns the text and the number of
/// table bindings written.
pub fn synthetic(width: usize, depth: usize) -> (String, usize) {
    fn block(width: usize, level: usize, depth: usize, parent: Option<&str>, out: &mut String) {
        let aliases: Vec<String> = (0..width).map(|j| format!("a{level}_{j}")).collect();
        let from: Vec<String> = aliases
            .iter()
            .enumerate()
            .map(|(j, a)| format!("T{level}_{j} {a}"))
            .collect();
        out.push_str(&from.join(", "));
        let mut preds: Vec<String> = (1..width)
            .map(|j| format!("{}.k = {}.p", aliases[j - 1], aliases[j]))
            .collect();
        if let Some(parent) = parent {
            preds.push(format!("{}.p = {parent}.k", aliases[0]));
        }
        if level < depth {
            let mut inner = String::from("NOT EXISTS (SELECT * FROM ");
            block(
                width,
                level + 1,
                depth,
                Some(&aliases[width - 1]),
                &mut inner,
            );
            inner.push(')');
            preds.push(inner);
        }
        if !preds.is_empty() {
            out.push_str(" WHERE ");
            out.push_str(&preds.join(" AND "));
        }
    }
    let mut sql = String::from("SELECT a0_0.k FROM ");
    block(width, 0, depth, None, &mut sql);
    (sql, width * (depth + 1))
}

/// The synthetic shapes every cold stream carries: width 1–4 × depth 0–3.
pub fn synthetic_shapes() -> Vec<(String, usize)> {
    let mut shapes = Vec::new();
    for depth in 0..=3 {
        for width in 1..=4 {
            shapes.push(synthetic(width, depth));
        }
    }
    shapes
}

/// The paper corpus texts, in corpus order, without duplicates.
pub fn corpus_texts() -> Vec<String> {
    let mut texts: Vec<String> = Vec::new();
    for request in queryvis_service::paper_corpus_requests(&[]) {
        if !texts.contains(&request.sql) {
            texts.push(request.sql);
        }
    }
    texts
}

/// sqlgen shape of the cold stream: nesting up to depth 3, OR and UNION.
pub const COLD_GEN: GenConfig = GenConfig {
    max_depth: 3,
    max_tables: 3,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: true,
};

/// sqlgen shape of the editor scripts: small blocks, no HAVING (a
/// predicate appended at the end must land in a WHERE clause).
pub const EDIT_GEN: GenConfig = GenConfig {
    max_depth: 1,
    max_tables: 2,
    max_preds: 2,
    with_or: true,
    with_union: true,
    with_having: false,
};

/// Draw generated queries until `count` are accepted by `keep`.
pub fn draw(
    cfg: &GenConfig,
    rng: &mut TestRng,
    count: usize,
    mut keep: impl FnMut(&GenQuery) -> bool,
) -> Vec<GenQuery> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = gen_query(cfg, rng);
        if keep(&q) {
            out.push(q);
        }
    }
    out
}

/// One plain compile request line of the JSON-lines protocol.
pub fn request_line(id: u64, sql: &str, formats: &[&str]) -> String {
    let mut line = format!("{{\"id\":{id},\"sql\":");
    escape_into(&mut line, sql);
    line.push_str(",\"formats\":[");
    for (i, f) in formats.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        escape_into(&mut line, f);
    }
    line.push_str("]}");
    line
}

/// One keystroke: replace `del` bytes at `at` with `ins`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    pub at: usize,
    pub del: usize,
    pub ins: String,
}

/// A keystroke script: open a session on `start`, apply `keys` one edit
/// request each, close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub kind: &'static str,
    pub start: String,
    pub keys: Vec<Key>,
}

/// Byte positions of depth-0 occurrences of `word` (a keyword, matched
/// as a whole word) in `sql`.
fn depth0_words(sql: &str, word: &str) -> Vec<usize> {
    let bytes = sql.as_bytes();
    let mut found = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'\'' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
            }
            _ => {
                let boundary_before = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
                let end = i + word.len();
                if depth == 0
                    && boundary_before
                    && end <= bytes.len()
                    && sql[i..end].eq_ignore_ascii_case(word)
                    && (end == bytes.len() || !bytes[end].is_ascii_alphanumeric())
                {
                    found.push(i);
                }
            }
        }
        i += 1;
    }
    found
}

/// The three keystroke scripts over one query:
///
/// * `typing` — open on the first 40 % of the text, type the rest;
/// * `rename` — backspace the first column name after `.` and type `zq`;
/// * `predicate` — type a predicate at the end, then backspace it away.
pub fn scripts_for(sql: &str) -> Vec<Script> {
    let mut scripts = Vec::with_capacity(3);

    let cut = sql.len() * 2 / 5;
    scripts.push(Script {
        kind: "typing",
        start: sql[..cut].to_string(),
        keys: sql[cut..]
            .char_indices()
            .map(|(i, c)| Key {
                at: cut + i,
                del: 0,
                ins: c.to_string(),
            })
            .collect(),
    });

    let bytes = sql.as_bytes();
    let dot = bytes
        .iter()
        .position(|&b| b == b'.')
        .expect("generated queries reference columns");
    let col_start = dot + 1;
    let col_end = col_start
        + bytes[col_start..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
            .count();
    let mut keys: Vec<Key> = (col_start..col_end)
        .rev()
        .map(|at| Key {
            at,
            del: 1,
            ins: String::new(),
        })
        .collect();
    keys.extend("zq".char_indices().map(|(i, c)| Key {
        at: col_start + i,
        del: 0,
        ins: c.to_string(),
    }));
    scripts.push(Script {
        kind: "rename",
        start: sql.to_string(),
        keys,
    });

    // The predicate lands in the last depth-0 block, on its first binding.
    let last_select = *depth0_words(sql, "SELECT").last().expect("a SELECT");
    let has_where = depth0_words(sql, "WHERE")
        .last()
        .is_some_and(|&w| w > last_select);
    let from = depth0_words(sql, "FROM")
        .into_iter()
        .find(|&f| f > last_select)
        .expect("a FROM");
    let mut words = sql[from + 4..].split_whitespace();
    let _table = words.next();
    let alias: String = words
        .next()
        .expect("generated bindings carry aliases")
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let predicate = format!(
        " {} {alias}.c0 = 7",
        if has_where { "AND" } else { "WHERE" }
    );
    let mut keys: Vec<Key> = predicate
        .char_indices()
        .map(|(i, c)| Key {
            at: sql.len() + i,
            del: 0,
            ins: c.to_string(),
        })
        .collect();
    keys.extend((0..predicate.len()).rev().map(|i| Key {
        at: sql.len() + i,
        del: 1,
        ins: String::new(),
    }));
    scripts.push(Script {
        kind: "predicate",
        start: sql.to_string(),
        keys,
    });
    scripts
}

/// Apply one keystroke to a client-side buffer.
pub fn apply_key(buffer: &mut String, key: &Key) {
    buffer.replace_range(key.at..key.at + key.del, &key.ins);
}

/// The `edit` request line for one keystroke.
pub fn edit_line(id: u64, session: u64, key: &Key) -> String {
    let mut line = format!(
        "{{\"id\":{id},\"op\":\"edit\",\"session\":{session},\"edits\":[{{\"at\":{},\"del\":{},\"ins\":",
        key.at, key.del
    );
    escape_into(&mut line, &key.ins);
    line.push_str("}]}");
    line
}

/// The `open` request line for one script.
pub fn open_line(id: u64, sql: &str) -> String {
    let mut line = format!("{{\"id\":{id},\"op\":\"open\",\"sql\":");
    escape_into(&mut line, sql);
    line.push('}');
    line
}

/// The `close` request line.
pub fn close_line(id: u64, session: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"close\",\"session\":{session}}}")
}
