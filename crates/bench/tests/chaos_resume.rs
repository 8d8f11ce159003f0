//! The `chaos` runner's crash/resume contract, through the binary: a run
//! whose journal was cut mid-record and finished with `--resume` writes
//! all three documents byte-identical to an uninterrupted run, and a
//! journaled case missing a field the document frame reads fails the
//! run instead of yielding a silently wrong total.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use impulse_obs::Json;
use impulse_types::snap::fnv64;

fn scratch(name: &str) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("impulse-chaos-resume-{pid}-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `chaos` at the CI seed into `dir/out` with journal `dir/journal.jsonl`.
fn chaos(dir: &Path, resume: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chaos"));
    cmd.args(["seed=1999", "jobs=2"])
        .arg(format!("out_dir={}", dir.join("out").display()))
        .arg(format!("journal={}", dir.join("journal.jsonl").display()));
    cmd.args(resume.then_some("--resume"))
        .output()
        .expect("spawn chaos")
}

fn documents(dir: &Path) -> Vec<String> {
    ["chaos.json", "chaos_caps.json", "chaos_tier.json"]
        .map(|f| std::fs::read_to_string(dir.join("out").join(f)).expect("read document"))
        .to_vec()
}

/// A journal line without `field` in its case JSON, re-checksummed so
/// the journal still loads it as a valid record.
fn drop_field(line: &str, field: &str) -> String {
    let start = line.find(&format!("\"{field}\":")).expect("field present");
    let end = start + line[start..].find(',').expect("not the last field") + 1;
    let line = Json::parse(&format!("{}{}", &line[..start], &line[end..])).expect("JSON");
    let record = line.get("record").expect("record");
    let sum = fnv64(format!("{record}").as_bytes());
    format!("{{\"sum\":{sum},\"record\":{record}}}")
}

#[test]
fn interrupted_run_resumes_byte_identically() {
    let (reference, cut) = (scratch("ref"), scratch("cut"));
    assert!(chaos(&reference, false).status.success());

    // A SIGKILL mid-append: half the records intact, the next one torn.
    let text = std::fs::read_to_string(reference.join("journal.jsonl")).expect("journal");
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines.len() / 2;
    let mut torn: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::create_dir_all(&cut).expect("create scratch directory");
    std::fs::write(cut.join("journal.jsonl"), torn).expect("write torn journal");

    let out = chaos(&cut, true);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("dropped 1 corrupt/truncated record"),
        "{stderr}"
    );
    let resumed = format!("{keep} of {} experiments already journaled", lines.len());
    assert!(stderr.contains(&resumed), "{stderr}");
    assert_eq!(documents(&cut), documents(&reference));
    let _ = (
        std::fs::remove_dir_all(reference),
        std::fs::remove_dir_all(cut),
    );
}

#[test]
fn journaled_case_missing_a_field_fails_the_run() {
    let dir = scratch("tamper");
    assert!(chaos(&dir, false).status.success());

    // `grants` feeds the caps totals; `cycles` is read only by the base
    // grid's cross-case check.
    let tampered = [("caps/churn", "grants"), ("base/diagonal/storm", "cycles")];
    let journal = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal");
    let lines: Vec<String> = text
        .lines()
        .map(|l| {
            match tampered
                .iter()
                .find(|(id, _)| l.contains(&format!("\"id\":\"{id}\"")))
            {
                Some((_, field)) => drop_field(l, field) + "\n",
                None => format!("{l}\n"),
            }
        })
        .collect();
    std::fs::write(&journal, lines.concat()).expect("write journal");

    let out = chaos(&dir, true);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        !stderr.contains("dropped"),
        "tampered records still load: {stderr}"
    );
    for (id, _) in tampered {
        let failed = format!("case failed: {id}: journaled case failed to decode");
        assert!(stderr.contains(&failed), "{stderr}");
    }
    assert!(
        !documents(&dir)[1].contains("\"churn\""),
        "the case is left out"
    );
    let _ = std::fs::remove_dir_all(dir);
}
