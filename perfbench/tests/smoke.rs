//! The benchmark's own test: `--smoke` runs every workload briefly at
//! small sizes, untraced and traced, with every answer check, and must
//! exit cleanly with a correct result line.

use std::process::Command;

#[test]
fn smoke_runs_every_workload_with_answer_checks() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    assert!(last.contains("\"failed\": 0"), "{last}");
    for w in ["point_wire", "report_wire", "profile_rw"] {
        assert!(
            stdout.contains(&format!("# tracing overhead {w}:")),
            "{w} did not run traced"
        );
        assert!(last.contains(&format!("\"{w}.op_p50_ms\"")), "{w} missing");
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
