//! Every figure binary's stdout, pinned byte for byte against its
//! checked-in `results/` file, so no results file can go stale.
//!
//! The output is deterministic except for elapsed wall-clock readouts,
//! which [`normalize`] masks; `results/fig12_aps_vs_ann.txt` stores
//! `<T>` for them. Progress chatter goes to stderr and is not pinned.
//! `ablation_model_variants` is the one binary left out: its solver
//! comparison times three solvers in microseconds, and the widths of
//! those readings set the table's column and rule widths, so masking
//! the readings alone would not make the table deterministic.
//! Regenerate every file with
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

/// Compare `bin`'s normalized stdout with the file at `pinned`, a path
/// relative to this crate.
fn golden_stdout(bin: &str, pinned: &str) {
    let out = Command::new(bin).output().expect("run figure binary");
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = normalize(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(pinned);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing results file {} ({e}); regenerate with UPDATE_GOLDEN=1",
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

/// One test module per figure binary, named after it, whose test pins
/// the binary's stdout against `results/<binary>.txt`.
macro_rules! pin_results {
    ($($bin:ident),* $(,)?) => {$(
        mod $bin {
            #[test]
            fn stdout_matches_its_results_file() {
                super::golden_stdout(
                    env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                    concat!("../../results/", stringify!($bin), ".txt"),
                );
            }
        }
    )*};
}

pin_results!(
    ablation_concurrency_knobs,
    ext_adaptive_reconfig,
    fig01_camat_demo,
    fig02_concurrency_shapes,
    fig03_floorplan,
    fig04_detector,
    fig07_core_allocation,
    fig08_scaling_fmem03,
    fig09_scaling_fmem09,
    fig10_throughput_fmem03,
    fig11_throughput_fmem09,
    fig12_aps_vs_ann,
    fig13_apc_layers,
    table1_gn_factors,
);

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
