//! `impulse-perfbench`: runs one workload of the simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <l1-dense|mc-gather|miss-stream|tier-scm> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root: every cell's report is checked
//! against the committed `results/run_all.json`. It prints a human-readable table on
//! standard error, then on standard output one full result record (host
//! fingerprint, every metric, per-cell re-drive detail) and, as the last
//! line, the summary `{"correct", "attempted", "failed", "metrics"}`,
//! whose metrics are those `BENCHMARK.json` declares for the mode.

use std::process::ExitCode;

use impulse_obs::Json;
use impulse_perfbench::bench::{self, Metric, Options};
use impulse_perfbench::cells::{all_cells, Workload, DEFAULT_SEED};
use impulse_perfbench::host;
use impulse_perfbench::run::Reference;

const USAGE: &str =
    "usage: impulse-perfbench --workload <l1-dense|mc-gather|miss-stream|tier-scm> \
[--seed N] [--seconds S] [--trace 0|1]";

/// The committed catalog results every cell is checked against.
const REFERENCE: &str = "results/run_all.json";

/// The benchmark's declaration, whose metric lists the summary follows.
const DECLARATION: &str = "BENCHMARK.json";

/// The metric names `BENCHMARK.json` declares for the mode.
fn declared(trace: bool) -> Result<Vec<String>, String> {
    let key = if trace { "per_layer" } else { "end_to_end" };
    let text = std::fs::read_to_string(DECLARATION).map_err(|e| format!("{DECLARATION}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{DECLARATION}: {e}"))?;
    doc.get(key)
        .and_then(Json::items)
        .ok_or_else(|| format!("{DECLARATION}: no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("{DECLARATION}: a {key} metric without a name"))
        })
        .collect()
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn number(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Float)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reference = match Reference::load(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load the committed catalog results: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = match declared(opts.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read the declared metrics: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(cell) = all_cells(opts.seed)
        .into_iter()
        .find(|c| !reference.has(&c.name))
    {
        eprintln!("{} is missing from {REFERENCE}", cell.name);
        return ExitCode::from(2);
    }

    let out = bench::run(&opts, &reference);

    eprintln!(
        "workload {} seed {:#x} trace {} workers {} passes {} attempted {} failed {} error_rate {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        out.workers,
        out.passes,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for e in &out.errors {
        eprintln!("FAILED {e}");
    }
    let mut metrics = Json::obj();
    for m in &out.metrics {
        match (m.value, &m.note) {
            (Some(v), _) => eprintln!("  {:<36} {:>16.6} {}", m.name, v, m.unit),
            (None, note) => eprintln!(
                "  {:<36} {:>16} {}  ({})",
                m.name,
                "null",
                m.unit,
                note.unwrap_or("")
            ),
        }
        let mut j = Json::obj();
        j.set("value", number(m.value));
        j.set("unit", Json::Str(m.unit.into()));
        if let Some(note) = m.note {
            j.set("note", Json::Str(note.into()));
        }
        metrics.set(&m.name, j);
    }

    let mut record = Json::obj();
    record.set("schema", Json::Str("impulse-perfbench-v1".into()));
    record.set("workload", Json::Str(opts.workload.name().into()));
    record.set("seed", Json::UInt(opts.seed));
    record.set("trace", Json::Bool(opts.trace));
    record.set("workers", Json::UInt(out.workers as u64));
    record.set("passes", Json::UInt(out.passes as u64));
    record.set("host", host::fingerprint());
    record.set("attempted", Json::UInt(out.attempted));
    record.set("failed", Json::UInt(out.failed));
    record.set(
        "error_rate",
        Json::Float(out.failed as f64 / out.attempted.max(1) as f64),
    );
    record.set(
        "errors",
        Json::Arr(out.errors.iter().cloned().map(Json::Str).collect()),
    );
    record.set("metrics", metrics);
    record.set("cells", out.cells.clone());
    println!("{record}");

    // The summary carries the declared metrics of this mode; a run that
    // leaves one without a value is not correct.
    let mut summary_metrics = Json::obj();
    let mut complete = true;
    for name in &declared {
        match out.metrics.iter().find(|m| &m.name == name) {
            Some(Metric {
                value: Some(v),
                unit,
                ..
            }) => {
                let mut j = Json::obj();
                j.set("value", Json::Float(*v));
                j.set("unit", Json::Str((*unit).into()));
                summary_metrics.set(name, j);
            }
            _ => {
                eprintln!("declared metric {name} has no value");
                complete = false;
            }
        }
    }
    let mut summary = Json::obj();
    summary.set("correct", Json::Bool(out.failed == 0 && complete));
    summary.set("attempted", Json::UInt(out.attempted));
    summary.set("failed", Json::UInt(out.failed));
    summary.set("metrics", summary_metrics);
    println!("{summary}");
    ExitCode::SUCCESS
}
