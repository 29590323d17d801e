//! Golden snapshots of figure-binary stdout.
//!
//! `fig01_camat_demo` and `fig12_aps_vs_ann` are the two headline
//! reproductions (the worked C-AMAT example and the simulation-count
//! comparison); their stdout is deterministic except for elapsed
//! wall-clock readouts, which [`normalize`] masks. Progress chatter
//! goes to stderr and is not snapshotted. `ext_adaptive_reconfig`,
//! `ablation_concurrency_knobs` and `fig13_apc_layers` are pinned
//! against their checked-in `results/` files directly, so those files
//! cannot go stale.
//! Regenerate every snapshot with
//! `UPDATE_GOLDEN=1 cargo test -p c2-bench --test golden_figs`.

use std::path::Path;
use std::process::Command;

/// Replace every ` in <float> s` wall-clock readout with ` in <T> s`
/// so the snapshot is machine-independent. Prose like "points in the
/// space" is left alone (no number + ` s` follows).
fn normalize(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(pos) = rest.find(" in ") {
        let (head, tail) = rest.split_at(pos);
        out.push_str(head);
        let after = &tail[4..];
        let num_len = after
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .count();
        if num_len > 0 && after[num_len..].starts_with(" s") {
            let boundary = after[num_len + 2..].chars().next();
            if boundary.is_none_or(|c| !c.is_ascii_alphanumeric()) {
                out.push_str(" in <T> s");
                rest = &after[num_len + 2..];
                continue;
            }
        }
        out.push_str(" in ");
        rest = after;
    }
    out.push_str(rest);
    out
}

/// Compare `bin`'s normalized stdout with the snapshot at `snapshot`,
/// a path relative to this crate.
fn golden_stdout(bin: &str, snapshot: &str) {
    let out = Command::new(bin).output().expect("run figure binary");
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = normalize(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(snapshot);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "{} drifted; regenerate with UPDATE_GOLDEN=1 if the change is intended",
        path.display()
    );
}

#[test]
fn fig01_camat_demo_stdout_is_golden() {
    golden_stdout(
        env!("CARGO_BIN_EXE_fig01_camat_demo"),
        "tests/golden/fig01_camat_demo.stdout.txt",
    );
}

#[test]
fn fig12_aps_vs_ann_stdout_is_golden() {
    golden_stdout(
        env!("CARGO_BIN_EXE_fig12_aps_vs_ann"),
        "tests/golden/fig12_aps_vs_ann.stdout.txt",
    );
}

#[test]
fn ext_adaptive_reconfig_stdout_matches_its_results_file() {
    golden_stdout(
        env!("CARGO_BIN_EXE_ext_adaptive_reconfig"),
        "../../results/ext_adaptive_reconfig.txt",
    );
}

#[test]
fn ablation_concurrency_knobs_stdout_matches_its_results_file() {
    golden_stdout(
        env!("CARGO_BIN_EXE_ablation_concurrency_knobs"),
        "../../results/ablation_concurrency_knobs.txt",
    );
}

#[test]
fn fig13_apc_layers_stdout_matches_its_results_file() {
    golden_stdout(
        env!("CARGO_BIN_EXE_fig13_apc_layers"),
        "../../results/fig13_apc_layers.txt",
    );
}

#[test]
fn normalize_masks_only_wallclock_readouts() {
    assert_eq!(
        normalize("calibration: 64 simulations in 42.7 s"),
        "calibration: 64 simulations in <T> s"
    );
    assert_eq!(
        normalize("evaluated in 0.0 s; best T = 1 in 12 seconds flat"),
        "evaluated in <T> s; best T = 1 in 12 seconds flat"
    );
    assert_eq!(
        normalize("a million points in the space"),
        "a million points in the space"
    );
}
