//! The binaries end to end: the `cip-partition` `--demo` mesh round-trips
//! through `--mesh` into a JSON result, and every failure the user's
//! input can cause — in `cip-partition`, `cip-trace`, `cip-serve` or
//! `cip-worker` — is one line on stderr and exit code 2, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cip_partition(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cip-partition")).args(args).output().expect("spawn")
}

fn cip_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cip-trace")).args(args).output().expect("spawn")
}

fn cip_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cip-serve")).args(args).output().expect("spawn")
}

fn cip_worker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cip-worker")).args(args).output().expect("spawn")
}

/// `run` (of `bin` with `args`) exited 2 with one `bin: …` line naming
/// `message` last on stderr, and no panic.
fn assert_usage_error(bin: &str, args: &[&str], run: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with(&format!("{bin}: ")) && last.contains(message),
        "{bin} {args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

/// A fresh directory for this test's files.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cip-partition-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn demo_mesh_partitions_and_bad_input_exits_2_with_one_line() {
    let dir = scratch_dir();
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (mesh, out) = (path("demo.cipmesh"), path("partition.json"));

    assert!(cip_partition(&["--demo", &mesh]).status.success());
    let run = cip_partition(&["--mesh", &mesh, "--k", "4", "--out", &out]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let json = std::fs::read_to_string(&out).expect("partition written");
    cip::telemetry::json::validate(&json).expect("well-formed JSON");
    for field in ["\"k\":4,", "\"num_nodes\":368,", "\"node_parts\":[", "\"imbalance_contact\":"] {
        assert!(json.contains(field), "{field} missing from {json}");
    }

    std::fs::write(path("mesh.json"), "{\"points\":[]}").expect("write");
    std::fs::write(path("torn.cipmesh"), "cipmesh 1\ngarbage\n").expect("write");
    let cases: [(&[&str], &str); 9] = [
        (&[], "--mesh is required"),
        (&["--mesh", &mesh, "--bogus"], "unknown argument '--bogus'"),
        (&["--mesh", &mesh, "--k"], "'--k' needs a value"),
        (&["--mesh", &path("absent.cipmesh")], "cannot read"),
        (&["--mesh", &path("mesh.json")], "is not a `cipmesh 1` text mesh"),
        (&["--mesh", &path("torn.cipmesh")], "cannot parse"),
        (&["--mesh", &mesh, "--out", &path("no-such-dir/partition.json")], "cannot write"),
        (&["--mesh", &mesh, "--k", "four"], "--k takes an integer"),
        (&["--mesh", &mesh, "--k", "0"], "--k must be at least 1"),
    ];
    for (args, message) in cases {
        assert_usage_error("cip-partition", args, &cip_partition(args), message);
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// Every malformed flag value `cip-trace`, `cip-serve` and `cip-worker`
/// take is refused before any work starts.
#[test]
fn malformed_flag_values_exit_2_with_one_line() {
    let trace_cases: [(&[&str], &str); 17] = [
        (&["--k", "four"], "--k takes an integer, got 'four'"),
        (&["--snapshots", "x"], "--snapshots takes an integer"),
        (&["--seed", "x"], "--seed takes an integer"),
        (&["--period", "x"], "--period takes an integer"),
        (&["--chaos", "x"], "--chaos takes an integer"),
        (&["--kill", "3"], "--kill takes STEP:RANK, got '3'"),
        (&["--lookahead", "x"], "--lookahead takes an integer"),
        (&["--max-batch", "x"], "--max-batch takes an integer"),
        (&["--client-retries", "x"], "--client-retries takes an integer"),
        (&["--client-timeout-ms", "x"], "--client-timeout-ms takes an integer"),
        (&["--retry-seed", "x"], "--retry-seed takes an integer"),
        (&["--transport", "carrier-pigeon"], "--transport takes inproc"),
        (&["--k", "0"], "k: must be between 1 and"),
        (&["--k"], "'--k' needs a value"),
        (&["--scenario", "tiny", "--k", "4", "--kill", "3:9"], "chaos: kill 3:9 names no rank < 4"),
        (&["--scenario", "tiny", "--k", "4", "--kill", "500:1"], "chaos: kill 500:1 names no rank"),
        (&["--scenario", "tiny", "--k", "1", "--kill", "2:0"], "chaos: a rank kill needs k >= 2"),
    ];
    for (args, message) in trace_cases {
        assert_usage_error("cip-trace", args, &cip_trace(args), message);
    }
    let serve_cases: [(&[&str], &str); 4] = [
        (&["--workers", "0"], "--workers takes an integer >= 1, got '0'"),
        (&["--drain-ms", "x"], "--drain-ms takes an integer >= 0, got 'x'"),
        (&["--bind"], "'--bind' needs a value"),
        (&["--bogus"], "unknown argument '--bogus'"),
    ];
    for (args, message) in serve_cases {
        assert_usage_error("cip-serve", args, &cip_serve(args), message);
    }
    let worker_cases: [(&[&str], &str); 2] = [
        (&["--rank", "x"], "--rank takes an integer, got 'x'"),
        (&["--connect", "127.0.0.1:1"], "usage: cip-worker"),
    ];
    for (args, message) in worker_cases {
        assert_usage_error("cip-worker", args, &cip_worker(args), message);
    }
}
