//! `bench_hotpath` rejects malformed command lines with its usage and
//! exit status 2, before it measures anything.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_hotpath"))
        .args(args)
        .output()
        .expect("bench_hotpath starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_arguments_print_usage_and_exit_2() {
    for (args, why) in [
        (&["--bogus"][..], "unknown argument"),
        (&["--verify"][..], "unknown argument"),
        (&["--instr"][..], "takes a value"),
        (&["--instr", "lots"][..], "positive integer"),
        (&["--instr", "-5"][..], "positive integer"),
        (&["--instr", "0"][..], "at least 1"),
        (&["--reps", "0"][..], "at least 1"),
        (&["--reps", "1.5"][..], "positive integer"),
        (&["--out"][..], "takes a path"),
        (&["--check"][..], "takes a path"),
        (
            &["--check", "BENCH_hotpath.json", "--reps", "1"][..],
            "no other flag",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(why),
            "{args:?}: expected {why:?} in {stderr}"
        );
        assert!(
            stderr.contains("usage: bench_hotpath"),
            "{args:?}: no usage in {stderr}"
        );
    }
}

#[test]
fn unreadable_committed_report_fails_the_check_with_status_1() {
    let (code, stderr) = run(&["--check", "no/such/report.json"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("no/such/report.json"), "stderr: {stderr}");
}
