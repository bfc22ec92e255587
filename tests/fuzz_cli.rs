//! Subprocess smoke tests for the `bddfc-fuzz` CLI, mirroring the
//! `tests/lint.rs` style: stable exit codes on the negative paths (bad
//! seed, unknown prop, zero budget, corrupt corpus), deterministic
//! reports across `BDDFC_THREADS`, corpus replay, and the hidden
//! `--mutate` flag catching and shrinking a seeded engine defect.

use std::process::{Command, Output};

/// Exit code 2: usage and IO errors (including corrupt corpus files).
const EXIT_USAGE: i32 = 2;

fn fuzz_cmd(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "-q", "-p", "bddfc-fuzz", "--bin", "bddfc-fuzz", "--"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    for &(k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("cargo run bddfc-fuzz")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_seed_exits_2() {
    let out = fuzz_cmd(&["--seed", "zzz"], &[]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--seed"), "{}", stderr_of(&out));
}

#[test]
fn unknown_prop_exits_2() {
    let out = fuzz_cmd(&["--seed", "1", "--prop", "no_such_prop"], &[]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--list-props"), "{}", stderr_of(&out));
}

#[test]
fn zero_budget_exits_2() {
    let out = fuzz_cmd(&["--budget-ms", "0"], &[]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("positive"), "{}", stderr_of(&out));
}

#[test]
fn missing_mode_exits_2() {
    let out = fuzz_cmd(&[], &[]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{}", stderr_of(&out));
}

#[test]
fn corrupt_corpus_file_exits_2() {
    let dir = std::env::temp_dir().join("bddfc_fuzz_cli_corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.dlg");
    std::fs::write(&path, "P(X -> oops\n").unwrap();
    let out = fuzz_cmd(&["--replay", path.to_str().unwrap()], &[]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("corrupt corpus file"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn committed_corpus_replays_clean() {
    let out = fuzz_cmd(&["--replay", "tests/corpus"], &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
    let text = stdout_of(&out);
    assert!(text.ends_with("ok\n"), "{text}");
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".dlg") {
            assert!(text.contains(&format!("{name}: ok")), "{name} missing from:\n{text}");
        }
    }
}

/// The acceptance bar: a fixed `--seed S --budget-ms T` invocation
/// produces a byte-identical stdout report across `BDDFC_THREADS`
/// {1,2,7} (case throughput differs, but that goes to stderr only).
#[test]
fn budgeted_report_is_byte_identical_across_thread_counts() {
    let args = ["--seed", "5", "--budget-ms", "1500"];
    let base = fuzz_cmd(&args, &[("BDDFC_THREADS", "1")]);
    assert_eq!(base.status.code(), Some(0), "{}", stdout_of(&base));
    assert!(stdout_of(&base).ends_with("ok\n"), "{}", stdout_of(&base));
    for threads in ["2", "7"] {
        let other = fuzz_cmd(&args, &[("BDDFC_THREADS", threads)]);
        assert_eq!(other.status.code(), Some(0));
        assert_eq!(
            stdout_of(&other),
            stdout_of(&base),
            "report drifted at BDDFC_THREADS={threads}"
        );
    }
}

/// Same bar for the JSON emitter, in exact-case mode.
#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let args = ["--seed", "9", "--cases", "3", "--json"];
    let base = fuzz_cmd(&args, &[("BDDFC_THREADS", "1")]);
    assert_eq!(base.status.code(), Some(0), "{}", stdout_of(&base));
    assert!(stdout_of(&base).starts_with("{\"schema\":1,"), "{}", stdout_of(&base));
    for threads in ["2", "7"] {
        let other = fuzz_cmd(&args, &[("BDDFC_THREADS", threads)]);
        assert_eq!(stdout_of(&other), stdout_of(&base));
    }
}

/// The hidden `--mutate` flag injects a known-bad engine and must be
/// caught, shrunk to at most 5 rules, and reported with a rerun line —
/// the end-to-end proof that the harness detects real discrepancies.
#[test]
fn seeded_mutation_is_caught_and_shrunk() {
    let out = fuzz_cmd(
        &["--seed", "3", "--cases", "60", "--mutate", "skip-last-rule"],
        &[],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("mutation: skip-last-rule"), "{text}");
    assert!(text.contains("rerun: bddfc-fuzz --seed 0x"), "{text}");
    assert!(text.ends_with("FAIL\n"), "{text}");
    // The shrunk reproducer is printed indented after its header; it must
    // contain at most 5 rules (acceptance bar).
    let rules = text
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains("->"))
        .count();
    assert!(
        (1..=5).contains(&rules),
        "expected a 1..=5 rule reproducer, got {rules}:\n{text}"
    );
}

#[test]
fn list_props_names_the_registry() {
    let out = fuzz_cmd(&["--list-props"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout_of(&out);
    for name in [
        "chase_vs_reference",
        "chase_restricted_embeds",
        "certainty_vs_reference",
        "chase_thread_invariance",
        "classes_witness_oracle",
        "rewrite_vs_chase",
        "lint_stability",
    ] {
        assert!(text.contains(name), "{name} missing from:\n{text}");
    }
}
