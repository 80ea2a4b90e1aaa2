//! Bad-argument contract of the experiment binaries: a misspelled flag or
//! an unparsable value exits with status 2 and names the argument, rather
//! than silently running with a default (a typo'd `--quick` used to start
//! a full-size run).

use std::process::Command;

/// Run `bin` with `args`; return its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(bin: &str, args: &[&str], named: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?} must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains(named), "{bin} {args:?} must name {named:?}; stderr:\n{stderr}");
}

#[test]
fn bench_engine_rejects_a_misspelled_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_bench_engine"), &["--quik"], "--quik");
}

#[test]
fn bench_scale_rejects_a_misspelled_flag_and_a_bad_value() {
    let bin = env!("CARGO_BIN_EXE_bench_scale");
    assert_usage_error(bin, &["--smoek"], "--smoek");
    assert_usage_error(bin, &["--smoke", "--runs", "three"], "three");
}

#[test]
fn reliability_sim_rejects_a_misspelled_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_reliability_sim"), &["--obs-ot", "x.json"], "--obs-ot");
}

#[test]
fn table2_mc_rejects_a_misspelled_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_table2_mc"), &["--trails"], "--trails");
}
