//! Behaviour pin for every scenario key.
//!
//! The leaves are enumerated by walking `Scenario::to_json()` of three
//! base documents, so a key cannot be missed: the empty document, one
//! with the phase oracle, the USL law, a `runner.chaos` block and a full
//! `model.camat` block, and one with the GPU-SM backend and screening
//! on. Each leaf of each base is overwritten with every probe value and
//! the outcome is recorded, grouped by outcome: the error's `Display`
//! text, or `ok` plus whether the fingerprint moved from the base's.
//! That pins each key's type, range rules, error text and identity
//! class. One more line per object path records an unknown key there.
//!
//! The outcomes live in `tests/golden/scenario_schema.txt`. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test --test scenario_schema` only when a
//! schema change is intended, and review the diff.

use std::fmt::Write as _;
use std::path::Path;

use c2_config::{Json, Scenario};

const GOLDEN: &str = "tests/golden/scenario_schema.txt";

const BASES: [(&str, &str); 3] = [
    ("empty", "{}"),
    (
        "phase-usl",
        r#"{"model":{"camat":{"hit_time":3,"hit_concurrency":2,"pure_miss_rate":0.02,
            "pure_avg_miss_penalty":60,"pure_miss_concurrency":4}},
            "oracle":{"mode":"phase"},"speedup":{"law":"usl"},
            "runner":{"chaos":{"crash_at_write":3,"torn_bytes":5}}}"#,
    ),
    (
        "gpu-screen",
        r#"{"backend":{"kind":"gpu-sm"},"screen":{"enabled":true}}"#,
    ),
];

/// Every JSON type, the numeric edge cases the range rules care about,
/// and each enumerated spelling.
const PROBES: [&str; 24] = [
    "\"x\"",
    "true",
    "null",
    "{}",
    "-1",
    "0",
    "0.5",
    "1",
    "1.5",
    "1e300",
    "[]",
    "[0]",
    "\"\"",
    "\"full\"",
    "\"phase\"",
    "\"cpu-cmp\"",
    "\"gpu-sm\"",
    "\"sun-ni\"",
    "\"amdahl\"",
    "\"memory-wall\"",
    "\"usl\"",
    "\"never\"",
    "\"on-checkpoint\"",
    "\"always\"",
];

/// Dotted paths of every leaf (`leaves`) and every object (`objects`)
/// in a rendered scenario, in canonical order.
fn walk(
    value: &Json,
    path: &mut Vec<String>,
    leaves: &mut Vec<Vec<String>>,
    objects: &mut Vec<Vec<String>>,
) {
    match value {
        Json::Obj(pairs) => {
            objects.push(path.clone());
            for (key, child) in pairs {
                path.push(key.clone());
                walk(child, path, leaves, objects);
                path.pop();
            }
        }
        _ => leaves.push(path.clone()),
    }
}

/// `doc` with `value` stored at `path`, creating objects on the way.
fn with(doc: &Json, path: &[String], value: Json) -> Json {
    let Some((key, rest)) = path.split_first() else {
        return value;
    };
    let mut pairs = doc.as_obj().map(<[_]>::to_vec).unwrap_or_default();
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, child)) => *child = with(child, rest, value),
        None => pairs.push((key.clone(), with(&Json::Obj(Vec::new()), rest, value))),
    }
    Json::Obj(pairs)
}

fn outcome(doc: &Json, base: &Scenario) -> String {
    match Scenario::from_json(&doc.render()) {
        Err(e) => e.to_string(),
        Ok(s) if s.fingerprint() == base.fingerprint() => "ok, same fingerprint".to_string(),
        Ok(_) => "ok, fingerprint moved".to_string(),
    }
}

fn schema() -> String {
    let mut out = String::new();
    for (name, text) in BASES {
        let doc = Json::parse(text).unwrap();
        let base = Scenario::from_json(text).unwrap();
        writeln!(out, "# base {name}: fingerprint {}", base.fingerprint_hex()).unwrap();
        let (mut leaves, mut objects) = (Vec::new(), Vec::new());
        walk(&base.to_json(), &mut Vec::new(), &mut leaves, &mut objects);
        for leaf in &leaves {
            // Probes grouped by outcome, in order of first appearance.
            let mut groups: Vec<(String, Vec<&str>)> = Vec::new();
            for probe in PROBES {
                let result = outcome(&with(&doc, leaf, Json::parse(probe).unwrap()), &base);
                match groups.iter_mut().find(|(o, _)| *o == result) {
                    Some((_, probes)) => probes.push(probe),
                    None => groups.push((result, vec![probe])),
                }
            }
            let groups: Vec<String> = groups
                .iter()
                .map(|(result, probes)| format!("{} => {result}", probes.join(" ")))
                .collect();
            writeln!(out, "{name} {}: {}", leaf.join("."), groups.join(" | ")).unwrap();
        }
        for object in &objects {
            let mut path = object.clone();
            path.push("bogus".to_string());
            let result = outcome(&with(&doc, &path, Json::Num(1.0)), &base);
            writeln!(out, "{name} {} => {result}", path.join(".")).unwrap();
        }
    }
    out
}

#[test]
fn every_scenario_key_keeps_its_schema() {
    let actual = schema();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let drifted: Vec<(&str, &str)> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} drifted on {} line(s), first (expected, actual): {:?}",
        path.display(),
        drifted.len(),
        drifted.first()
    );
}
