//! Pins for every identity hash the sweep stack persists.
//!
//! Journal headers, evaluation-cache addresses, screening committees
//! and admission jitter streams all bind FNV-1a values. A refactor of
//! how those values are computed must leave every one of them
//! unchanged, or existing journals stop resuming and existing caches
//! stop hitting. Each constant below was recorded from the
//! implementation it pins; none may move without a deliberate
//! migration of the durable formats.

use c2_config::{fnv1a, Scenario};
use c2bound::model::aps::RefinementJob;
use c2bound::model::{Aps, BackendSweep, C2BoundModel, DesignPoint, DesignSpace};
use c2bound::runner::journal::{backend_fingerprint, bind_fingerprint, plan_fingerprint};
use c2bound::runner::{cache_key, ScreenConfig};

#[test]
fn fnv1a_matches_the_published_test_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn content_key_is_pinned() {
    let job = RefinementJob {
        seq: 7,
        index: [1, 2, 3, 4, 5, 6],
        point: DesignPoint {
            a0: 2.5,
            a1: 0.125,
            a2: 0.75,
            n: 64,
            issue_width: 4,
            rob_size: 128,
        },
    };
    assert_eq!(job.content_key(), 0x0fe1_3b17_8593_f78a);
    // The key names the work, not its place in the sweep.
    let moved = RefinementJob {
        seq: 99,
        ..job.clone()
    };
    assert_eq!(moved.content_key(), job.content_key());
}

#[test]
fn plan_fingerprints_are_pinned_for_both_backends() {
    let aps = Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny());
    let plan = aps.plan().expect("the tiny space plans");
    assert_eq!(plan_fingerprint(&plan), 0xc1d4_94b5_eac8_afcf);

    let text = std::fs::read_to_string("examples/scenarios/gpu_sm.json").expect("read example");
    let scenario = Scenario::from_json(&text).expect("parse example");
    let gpu = c2bound::model::scenario::gpu_sweep_from_scenario(&scenario).expect("gpu sweep");
    let plan = gpu
        .plan_observed(&c2bound::obs::NullSink)
        .expect("the example plans");
    assert_eq!(plan_fingerprint(&plan), 0xae7e_f7ed_a04e_ad11);
}

#[test]
fn bindings_are_pinned() {
    let plan_fp = 0x0123_4567_89ab_cdef;
    assert_eq!(bind_fingerprint(plan_fp, None), plan_fp);
    assert_eq!(
        bind_fingerprint(plan_fp, Some(0xfeed_beef)),
        0xda88_bc6c_ca7f_d9c1
    );
    assert_eq!(backend_fingerprint("cpu-cmp"), None);
    assert_eq!(backend_fingerprint("gpu-sm"), Some(0x82c4_5a71_20dd_cfe4));
    assert_eq!(cache_key(plan_fp, 0x0042), 0xaab5_2a70_79d1_44f7);
}

#[test]
fn configuration_fingerprints_are_pinned() {
    assert_eq!(ScreenConfig::default().fingerprint(), 0x00c2_c998_3a77_6169);
    assert_eq!(Scenario::default().fingerprint(), 0x11f4_8e28_2ed8_55a6);
}
