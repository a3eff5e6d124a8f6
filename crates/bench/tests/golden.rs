//! Golden stdout of the paper-artifact binaries.
//!
//! The binaries are seeded and read no clock, so their stdout is a
//! function of the code alone: this test runs them at a small
//! `--sessions` and compares the bytes with `tests/golden/<bin>.txt`. A
//! change that moves a mined probability, a served utility or an α-NDCG
//! digit shows up here as a reviewed diff of those files.
//!
//! To accept a change, regenerate and commit the files:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p serpdiv-bench --test golden
//! ```
//!
//! Two of the five binaries run: `ablation_lambda` (OptSelect, xQuAD and
//! MMR over the served candidates and utilities, α-NDCG and IA-P) and
//! `footprint` (the mined model and the §4.1 store, in bytes) — 50 s
//! together in an unoptimized build on two cores, against a budget of 60.
//! The other three are left out because their cost is a fixed testbed,
//! not `--sessions`: `table3_effectiveness` ranks a 19 k-document corpus
//! to depth 1 000 nine times over (290 s), `figure1_utility` and
//! `recall_coverage` each generate and index two corpora (46 s, 40 s).
//! What Table 3 ranks through is pinned to 1e-12 by the root package's
//! `tests/end_to_end.rs` golden.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const SESSIONS: &str = "400";

#[test]
fn artifact_binaries_print_their_golden_stdout() {
    let bins = [
        ("ablation_lambda", env!("CARGO_BIN_EXE_ablation_lambda")),
        ("footprint", env!("CARGO_BIN_EXE_footprint")),
    ];
    // Both at once: they are separate processes.
    let children: Vec<_> = bins
        .iter()
        .map(|&(name, exe)| {
            let child = Command::new(exe)
                .args(["--sessions", SESSIONS])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            (name, child)
        })
        .collect();

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut stale = Vec::new();
    for (name, child) in children {
        let output = child.wait_with_output().expect("wait");
        assert!(output.status.success(), "{name} exited {}", output.status);
        let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.txt"));
        if update {
            std::fs::write(&path, &stdout).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_GOLDEN=1)", path.display()));
        if stdout != golden {
            let first = golden
                .lines()
                .zip(stdout.lines())
                .position(|(g, s)| g != s)
                .unwrap_or_else(|| golden.lines().count().min(stdout.lines().count()));
            stale.push(format!(
                "{name} --sessions {SESSIONS}: line {} differs\n  golden: {}\n  stdout: {}",
                first + 1,
                golden.lines().nth(first).unwrap_or("<end of file>"),
                stdout.lines().nth(first).unwrap_or("<end of output>"),
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "stdout moved off tests/golden (UPDATE_GOLDEN=1 regenerates):\n{}",
        stale.join("\n")
    );
}
