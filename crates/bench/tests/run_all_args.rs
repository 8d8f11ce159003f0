//! `run_all` rejects any argument outside its vocabulary — a typo such
//! as `job=4`, or the removed `mode=` selector — with exit code 2 and
//! the usage text, before any experiment runs or any file is written.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_before_writing_anything() {
    let dir = std::env::temp_dir().join(format!("impulse-run-all-args-{}", std::process::id()));
    for (i, bad) in ["job=4", "mode=replay", "mode=execute", "--paper", "jobs"]
        .iter()
        .enumerate()
    {
        let cwd = dir.join(i.to_string());
        std::fs::create_dir_all(&cwd).expect("create scratch directory");
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(["jobs=1", bad])
            .current_dir(&cwd)
            .output()
            .expect("spawn run_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{bad}`: {stderr}");
        assert!(
            stderr.contains(&format!("unrecognized argument `{bad}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: run_all"), "{stderr}");
        assert!(out.stdout.is_empty(), "`{bad}` printed output");
        let left: Vec<_> = std::fs::read_dir(&cwd)
            .expect("list scratch directory")
            .collect();
        assert!(left.is_empty(), "`{bad}` wrote {left:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
