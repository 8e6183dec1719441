//! The `cip-partition` binary end to end: the `--demo` mesh round-trips
//! through `--mesh` into a JSON result, and every failure the user's
//! input can cause is one line on stderr and exit code 2 — never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cip_partition(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cip-partition")).args(args).output().expect("spawn")
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
    let cases: [(&[&str], &str); 6] = [
        (&["--mesh", &path("absent.cipmesh")], "cannot read"),
        (&["--mesh", &path("mesh.json")], "is not a `cipmesh 1` text mesh"),
        (&["--mesh", &path("torn.cipmesh")], "cannot parse"),
        (&["--mesh", &mesh, "--out", &path("no-such-dir/partition.json")], "cannot write"),
        (&["--mesh", &mesh, "--k", "four"], "--k takes an integer"),
        (&["--mesh", &mesh, "--k", "0"], "--k must be at least 1"),
    ];
    for (args, message) in cases {
        let run = cip_partition(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("cip-partition: ") && last.contains(message),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
