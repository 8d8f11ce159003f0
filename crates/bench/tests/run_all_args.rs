//! The command-line binaries reject any argument outside their
//! vocabulary — a typo such as `job=4`, or a removed option such as
//! `run_all`'s `mode=`/`profile=`/`timeout_ms=` or `chaos`'s `out=` —
//! any key given twice, and any malformed value, such as `sweep`'s
//! `max_retries=0`, with exit code 2 and the usage text, before anything
//! runs or any file is written.

use std::process::Command;

/// One binary under test: its name, its executable, a valid argument
/// passed alongside each bad one, and the bad arguments, each with a
/// fragment of the error it must report.
type Case<'a> = (&'a str, &'a str, &'a str, &'a [(&'a str, &'a str)]);

#[test]
fn unknown_arguments_exit_2_before_writing_anything() {
    let dir = std::env::temp_dir().join(format!("impulse-run-all-args-{}", std::process::id()));
    let cases: [Case; 4] = [
        (
            "run_all",
            env!("CARGO_BIN_EXE_run_all"),
            "jobs=1",
            &[
                ("job=4", "unrecognized argument `job=4`"),
                ("mode=replay", "unrecognized argument `mode=replay`"),
                ("mode=execute", "unrecognized argument `mode=execute`"),
                ("profile=1", "unrecognized argument `profile=1`"),
                ("--paper", "unrecognized argument `--paper`"),
                ("jobs", "unrecognized argument `jobs`"),
                ("timeout_ms=100", "unrecognized argument `timeout_ms=100`"),
                (
                    "tier_policy=cache",
                    "unrecognized argument `tier_policy=cache`",
                ),
            ],
        ),
        (
            "chaos",
            env!("CARGO_BIN_EXE_chaos"),
            "jobs=1",
            &[
                ("job=4", "unrecognized argument `job=4`"),
                ("tier=cache", "unrecognized argument `tier=cache`"),
                (
                    "out=results/chaos.json",
                    "unrecognized argument `out=results/chaos.json`",
                ),
                ("--paper", "unrecognized argument `--paper`"),
                ("jobs=0", "argument `jobs=` given twice"),
                ("attempts=2", "unrecognized argument `attempts=2`"),
            ],
        ),
        (
            "sweep",
            env!("CARGO_BIN_EXE_sweep"),
            "jobs=1",
            &[
                ("job=4", "unrecognized argument `job=4`"),
                ("tier=cache", "unrecognized argument `tier=cache`"),
                ("attempts=0", "unrecognized argument `attempts=0`"),
                ("max_retries=0", "max_retries= wants a positive integer"),
                ("jobs=2", "argument `jobs=` given twice"),
            ],
        ),
        (
            "table1",
            env!("CARGO_BIN_EXE_table1"),
            "passes=1",
            &[
                ("job=4", "unrecognized argument `job=4`"),
                ("rows=x", "rows= wants an unsigned integer, got `x`"),
            ],
        ),
    ];
    for (name, exe, ok, bads) in cases {
        for (i, (bad, error)) in bads.iter().enumerate() {
            let cwd = dir.join(format!("{name}-{i}"));
            std::fs::create_dir_all(&cwd).expect("create scratch directory");
            let out = Command::new(exe)
                .args([ok, bad])
                .current_dir(&cwd)
                .output()
                .expect("spawn binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} `{bad}`: {stderr}");
            assert!(stderr.contains(error), "{name} `{bad}`: {stderr}");
            assert!(stderr.contains(&format!("usage: {name}")), "{stderr}");
            assert!(out.stdout.is_empty(), "{name} `{bad}` printed output");
            let left: Vec<_> = std::fs::read_dir(&cwd)
                .expect("list scratch directory")
                .collect();
            assert!(left.is_empty(), "{name} `{bad}` wrote {left:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
