//! Schema guard for the committed `BENCH_history.jsonl`: every line
//! parses with the workspace's own JSON reader, declares
//! `impulse-bench-history-v1` or `-v2`, and carries exactly that
//! schema's fields with the right types. The record `run_all` appends
//! today must pass the same check, so a new line can never drift from
//! the committed shape unnoticed.

use impulse_bench::{history_record, HISTORY_SCHEMA};
use impulse_obs::Json;
use impulse_types::TierPolicy;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Str,
    Bool,
    UInt,
    Float,
}

use Kind::{Bool, Float, Str, UInt};

/// v1: the revision id had `-dirty` baked in, and there was no mode.
const V1: &[(&str, Kind)] = &[
    ("schema", Str),
    ("git", Str),
    ("seed", UInt),
    ("jobs", UInt),
    ("experiments_run", UInt),
    ("failed", UInt),
    ("total_wall_ns", UInt),
    ("serial_sum_wall_ns", UInt),
];

/// v2: a clean revision id plus a separate `dirty` flag, and the mode.
const V2: &[(&str, Kind)] = &[
    ("schema", Str),
    ("git", Str),
    ("dirty", Bool),
    ("seed", UInt),
    ("jobs", UInt),
    ("experiments_run", UInt),
    ("failed", UInt),
    ("total_wall_ns", UInt),
    ("serial_sum_wall_ns", UInt),
    ("mode", Str),
];

/// v2 fields older lines may lack.
const V2_OPTIONAL: &[(&str, Kind)] = &[("tier", Str)];

/// The phase walls the former trace-driven replay backend added. They
/// belong only to the historical `"mode": "replay"` lines.
const REPLAY_FIELDS: &[(&str, Kind)] = &[
    ("replay_execute_sum_wall_ns", UInt),
    ("replay_codec_sum_wall_ns", UInt),
    ("replay_eval_sum_wall_ns", UInt),
    ("replay_replayed", UInt),
    ("replay_eval_speedup", Float),
];

/// Revisions of the only `"mode": "replay"` lines, in file order. The
/// backend is gone, so no later line may use that mode.
const REPLAY_REVISIONS: [&str; 2] = ["96bc1d5", "33f1aeb"];

fn has_kind(v: &Json, kind: Kind) -> bool {
    match kind {
        Str => matches!(v, Json::Str(_)),
        Bool => matches!(v, Json::Bool(_)),
        UInt => matches!(v, Json::UInt(_)),
        Float => matches!(v, Json::Float(_) | Json::UInt(_)),
    }
}

/// Checks one record against its declared schema; returns the mode a
/// v2 record declares (`None` for v1).
fn check_record(rec: &Json) -> Result<Option<String>, String> {
    let Json::Obj(fields) = rec else {
        return Err("not an object".into());
    };
    let schema = rec
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string `schema`")?;
    let mode = rec.get("mode").and_then(Json::as_str).map(String::from);
    let mut allowed: Vec<(&str, Kind)> = Vec::new();
    let required: Vec<(&str, Kind)> = match (schema, mode.as_deref()) {
        ("impulse-bench-history-v1", _) => V1.to_vec(),
        ("impulse-bench-history-v2", Some("execute")) => V2.to_vec(),
        ("impulse-bench-history-v2", Some("replay")) => [V2, REPLAY_FIELDS].concat(),
        ("impulse-bench-history-v2", other) => {
            return Err(format!("v2 mode must be execute or replay, got {other:?}"))
        }
        (other, _) => return Err(format!("unknown schema `{other}`")),
    };
    if schema.ends_with("-v2") {
        allowed.extend_from_slice(V2_OPTIONAL);
    }
    allowed.extend_from_slice(&required);
    if let Some((key, _)) = required.iter().find(|(k, _)| rec.get(k).is_none()) {
        return Err(format!("missing `{key}`"));
    }
    for (i, (key, v)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate `{key}`"));
        }
        let Some(&(_, kind)) = allowed.iter().find(|(k, _)| k == key) else {
            return Err(format!("unexpected field `{key}` for {schema}"));
        };
        if !has_kind(v, kind) {
            return Err(format!("`{key}` should be {kind:?}, got {v}"));
        }
    }
    Ok(mode)
}

fn parse_and_check(line: &str) -> Result<Option<String>, String> {
    check_record(&Json::parse(line)?)
}

#[test]
fn committed_history_lines_match_their_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
    let text = std::fs::read_to_string(path).expect("read BENCH_history.jsonl");
    let mut replay_revisions = Vec::new();
    let mut lines = 0;
    for (n, line) in text.lines().enumerate() {
        let mode =
            parse_and_check(line).unwrap_or_else(|e| panic!("BENCH_history.jsonl:{}: {e}", n + 1));
        if mode.as_deref() == Some("replay") {
            let rec = Json::parse(line).expect("parsed above");
            replay_revisions.push(rec.get("git").and_then(Json::as_str).unwrap().to_string());
        }
        lines += 1;
    }
    assert!(lines > 0, "the committed history is empty");
    assert_eq!(
        replay_revisions, REPLAY_REVISIONS,
        "only the two historical lines may carry mode replay"
    );
}

#[test]
fn run_all_records_pass_the_same_check() {
    assert_eq!(HISTORY_SCHEMA, "impulse-bench-history-v2");
    for tier in TierPolicy::ALL {
        let rec = history_record("cdf3398", true, 13_214_046, 1, 28, 0, 2_000, 1_900, tier);
        let line = format!("{rec}");
        assert!(!line.contains('\n'), "one record per line");
        assert_eq!(parse_and_check(&line), Ok(Some("execute".into())), "{line}");
        assert_eq!(Json::parse(&line).unwrap().get("tier"), rec.get("tier"));
    }
}

#[test]
fn the_check_rejects_drift() {
    let execute = r#"{"schema":"impulse-bench-history-v2","git":"a","dirty":false,"seed":1,"jobs":1,"experiments_run":1,"failed":0,"total_wall_ns":1,"serial_sum_wall_ns":1,"mode":"execute"}"#;
    assert_eq!(parse_and_check(execute), Ok(Some("execute".into())));
    let bad = [
        // replay fields on an execute line
        execute.replace("}", r#","replay_replayed":3}"#),
        // a required field missing
        execute.replace(r#""dirty":false,"#, ""),
        // a field of the wrong type
        execute.replace(r#""jobs":1"#, r#""jobs":"1""#),
        // an unknown mode, an unknown schema, an unknown field
        execute.replace("execute", "approx"),
        execute.replace("-v2", "-v3"),
        execute.replace("}", r#","host":"x"}"#),
        // a replay line without its phase walls
        execute.replace("execute", "replay"),
        // v2-only fields on a v1 line
        execute.replace("-v2", "-v1"),
    ];
    for line in &bad {
        assert!(parse_and_check(line).is_err(), "accepted: {line}");
    }
}
