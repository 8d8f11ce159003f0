//! Runs every chaos suite in [`chaos::SUITES`] — the fault-schedule
//! grid, the capability contention suite and the hybrid-tier suite —
//! and writes one document per suite under `out_dir=` (default
//! `results`): `chaos.json`, `chaos_caps.json` and `chaos_tier.json`.
//! Any argument outside `USAGE`, or one given twice, is rejected with
//! exit code 2 before anything runs or is written.
//!
//! All suites share one pool of `jobs=<N>` workers; results are
//! gathered in submission order and every case draws only from the
//! seed, so each document is byte-identical for a fixed seed at any
//! worker count. Finished cases are journaled (fsync'd) under ids
//! `<suite>/<case>`; after a crash, `--resume` reruns only what is
//! missing and writes the same bytes as an uninterrupted run. Exits
//! nonzero if any suite has a violation or a case that failed to run
//! (or, resumed from the journal, to decode).

use std::path::Path;
use std::process::ExitCode;

use impulse_bench::chaos;
use impulse_bench::journal;
use impulse_bench::runner;
use impulse_obs::Json;

const USAGE: &str = "usage: chaos [seed=N] [jobs=N] [out_dir=results] \
[journal=results/chaos-journal.jsonl] [watchdog_ms=N] [max_retries=K] [--resume]";

/// Every `key=` prefix and bare flag `chaos` accepts.
const KEYS: [&str; 7] = [
    "seed=",
    "jobs=",
    "out_dir=",
    "journal=",
    "watchdog_ms=",
    "max_retries=",
    "--resume",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let common = match runner::parse_args(&args, &KEYS, USAGE, 1999) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let arg = |prefix: &str, default: &str| -> String {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix).map(String::from))
            .unwrap_or_else(|| default.to_string())
    };
    let out_dir = arg("out_dir=", "results");
    let journal_path = arg("journal=", "results/chaos-journal.jsonl");
    let resume = args.iter().any(|a| a == "--resume");

    let results = match journal::run_resumable(
        chaos::catalog(common.seed),
        common.seed,
        common.jobs,
        &common.supervise,
        Path::new(&journal_path),
        resume,
        &chaos::artifacts,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: journal I/O failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let (mut ok, mut written) = (true, Vec::new());
    for run in chaos::documents(common.seed, &results) {
        let path = Path::new(&out_dir).join(run.suite.file);
        if let Err(e) = std::fs::write(&path, format!("{:#}\n", run.doc)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        written.push(path.display().to_string());
        for (id, e) in &run.failures {
            eprintln!("case failed: {id}: {e}");
        }
        if let Some(Json::Arr(violations)) = run.doc.get("violations") {
            for v in violations {
                eprintln!("invariant violated: {}", v.as_str().unwrap_or_default());
            }
        }
        ok &= run.failures.is_empty() && run.doc.get("ok") == Some(&Json::Bool(true));
    }
    written.push(journal_path);
    impulse_bench::print_artifacts(&written.iter().map(String::as_str).collect::<Vec<_>>());
    if ok {
        println!("all invariants held");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos run failed; rerun failed cases with --resume");
        ExitCode::FAILURE
    }
}
