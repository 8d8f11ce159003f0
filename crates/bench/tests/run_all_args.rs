//! `run_all` and `chaos` reject any argument outside their vocabulary —
//! a typo such as `job=4`, or a removed option such as `run_all`'s
//! `mode=` or `chaos`'s `out=` — with exit code 2 and the usage text,
//! before anything runs or any file is written.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_before_writing_anything() {
    let dir = std::env::temp_dir().join(format!("impulse-run-all-args-{}", std::process::id()));
    let cases: [(&str, &str, &[&str]); 2] = [
        (
            "run_all",
            env!("CARGO_BIN_EXE_run_all"),
            &["job=4", "mode=replay", "mode=execute", "--paper", "jobs"],
        ),
        (
            "chaos",
            env!("CARGO_BIN_EXE_chaos"),
            &["job=4", "tier=cache", "out=results/chaos.json", "--paper"],
        ),
    ];
    for (name, exe, bads) in cases {
        for (i, bad) in bads.iter().enumerate() {
            let cwd = dir.join(format!("{name}-{i}"));
            std::fs::create_dir_all(&cwd).expect("create scratch directory");
            let out = Command::new(exe)
                .args(["jobs=1", bad])
                .current_dir(&cwd)
                .output()
                .expect("spawn binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} `{bad}`: {stderr}");
            assert!(
                stderr.contains(&format!("unrecognized argument `{bad}`")),
                "{stderr}"
            );
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
