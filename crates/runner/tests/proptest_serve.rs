//! Property tests for the serve layer.
//!
//! The observability contract: every `serve_*` metric the daemon ever
//! emits is declared in [`c2_obs::names::SERVE_METRIC_NAMES`]. Each
//! case boots a real daemon on an ephemeral port, throws a random mix
//! of traffic at it — valid submissions, invalid documents, status
//! probes, wrong methods, unknown endpoints, raw garbage — waits for
//! the admitted jobs to settle, scrapes `/metrics`, and checks the
//! scrape against the registry. A metric name minted in `listener.rs`
//! but forgotten in `names.rs` fails here on the first case that
//! tickles its code path.
//!
//! The HTTP reader: seeded mutations of the requests the daemon serves
//! (truncation, bit flips, splices of two requests, one oversized
//! header or body) fed to `read_request` through a loopback socket
//! return a request or a typed `ProtocolError` within the read
//! deadline, and never panic.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use c2_bound::aps::Aps;
use c2_bound::dse::{DesignPoint, DesignSpace};
use c2_bound::C2BoundModel;
use c2_config::Scenario;
use c2_obs::names::SERVE_METRIC_NAMES;
use c2_obs::MetricsSink;
use c2_runner::serve::protocol::{http_call, read_request, MAX_HEAD_BYTES};
use c2_runner::serve::{ProtocolError, Request};
use c2_runner::{
    Daemon, RunConfig, RunSummary, ScenarioExecutor, ServeOptions, ServePolicy, SweepRunner,
};
use proptest::prelude::*;

fn pricer(p: &DesignPoint) -> c2_bound::Result<f64> {
    Ok(1.0e9 / (p.n as f64 * p.issue_width as f64 * p.rob_size as f64))
}

/// Runs the real engine over the tiny design space regardless of the
/// submitted scenario, so admitted jobs finish in milliseconds.
struct TinyExecutor;

impl ScenarioExecutor for TinyExecutor {
    fn execute(
        &self,
        _scenario: &Scenario,
        config: RunConfig,
        journal: &Path,
        resume: bool,
        sink: &dyn MetricsSink,
        ops: &dyn MetricsSink,
    ) -> c2_runner::Result<RunSummary> {
        let aps = Aps::new(C2BoundModel::example_big_data(), DesignSpace::tiny());
        SweepRunner::new(config)?.run_aps_full(&aps, || pricer, Some(journal), resume, sink, ops)
    }
}

/// Every metric name in a Prometheus dump: sample lines and `# TYPE`
/// declarations, with histogram `_bucket{...}` suffixes intact (the
/// registry declares base names; the daemon emits no histograms today,
/// and a new one would rightly fail the containment check).
fn scrape_names(prometheus: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in prometheus.lines() {
        let name = if let Some(rest) = line.strip_prefix("# TYPE ") {
            rest.split_whitespace().next()
        } else {
            line.split([' ', '{']).next()
        };
        match name {
            Some(name) if !name.is_empty() => names.push(name.to_string()),
            _ => {}
        }
    }
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_emitted_serve_metric_name_is_registered(
        kinds in prop::collection::vec(0usize..8, 1..14),
        budget in 1usize..4,
        depth in 1usize..4,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "c2-serve-prop-{}-{budget}-{depth}-{}",
            std::process::id(),
            kinds.iter().fold(0usize, |acc, k| acc * 8 + k),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions {
            policy: ServePolicy {
                per_client_budget: budget,
                queue_depth: depth,
                read_timeout_ms: 500,
                ..ServePolicy::default()
            },
            ..ServeOptions::new("127.0.0.1:0", &dir)
        };
        let mut daemon = Daemon::bind(options).expect("bind daemon");
        let addr = daemon.local_addr().to_string();
        let sock_addr = daemon.local_addr();
        let handle = std::thread::spawn(move || daemon.run(&TinyExecutor));

        let scenario = Scenario::default().render_pretty();
        for kind in &kinds {
            match kind {
                0 | 1 => {
                    // Valid submission from one of two tenants; may be
                    // admitted or shed depending on the drawn policy.
                    let tenant = if *kind == 0 { "alice" } else { "bob" };
                    let (status, _, _) = http_call(
                        &addr, "POST", "/submit",
                        &[("X-Tenant", tenant)],
                        scenario.as_bytes(),
                        10_000,
                    ).expect("submit");
                    prop_assert!(matches!(status, 202 | 429 | 503), "{status}");
                }
                2 => {
                    let (status, _, _) =
                        http_call(&addr, "POST", "/submit", &[], b"not a scenario", 10_000)
                            .expect("invalid submit");
                    prop_assert_eq!(status, 422);
                }
                3 => {
                    let (status, _, _) =
                        http_call(&addr, "GET", "/status", &[], b"", 10_000).expect("status");
                    prop_assert_eq!(status, 200);
                }
                4 => {
                    let (status, _, _) = http_call(&addr, "GET", "/status/job9999", &[], b"", 10_000)
                        .expect("status one");
                    prop_assert_eq!(status, 404);
                }
                5 => {
                    let (status, _, _) =
                        http_call(&addr, "GET", "/teapot", &[], b"", 10_000).expect("404");
                    prop_assert_eq!(status, 404);
                }
                6 => {
                    let (status, _, _) =
                        http_call(&addr, "POST", "/metrics", &[], b"", 10_000).expect("405");
                    prop_assert_eq!(status, 405);
                }
                _ => {
                    // Raw garbage: costs the connection, nothing else.
                    let mut s = std::net::TcpStream::connect(sock_addr).unwrap();
                    s.write_all(b"\x00\x01 bogus \r\n\r\n").unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    let mut out = String::new();
                    let _ = s.read_to_string(&mut out);
                    prop_assert!(out.starts_with("HTTP/1.1 400"), "{out:?}");
                }
            }
        }

        // Let admitted work settle so the scrape covers the job
        // lifecycle counters, not just the admission ones.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, _, body) =
                http_call(&addr, "GET", "/status", &[], b"", 10_000).expect("settle poll");
            prop_assert_eq!(status, 200);
            let body = String::from_utf8_lossy(&body);
            if !body.contains("\"queued\"") && !body.contains("\"running\"") {
                break;
            }
            prop_assert!(Instant::now() < deadline, "jobs never settled");
            std::thread::sleep(Duration::from_millis(20));
        }

        let (status, _, body) =
            http_call(&addr, "GET", "/metrics", &[], b"", 10_000).expect("metrics");
        prop_assert_eq!(status, 200);
        let prometheus = String::from_utf8(body).expect("utf-8 scrape");
        let names = scrape_names(&prometheus);
        prop_assert!(
            names.iter().any(|n| n.starts_with("serve_")),
            "scrape carried no serve metrics:\n{prometheus}"
        );
        for name in names {
            if name.starts_with("serve_") {
                prop_assert!(
                    SERVE_METRIC_NAMES.contains(&name.as_str()),
                    "unregistered serve metric {name:?} (add it to c2_obs::names)"
                );
            }
        }

        let (status, _, _) =
            http_call(&addr, "POST", "/shutdown", &[], b"", 10_000).expect("shutdown");
        prop_assert_eq!(status, 200);
        handle.join().unwrap().expect("daemon run");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The registry itself is well-formed: unique names, all in the
/// `serve_` namespace.
#[test]
fn the_serve_metric_registry_is_unique_and_namespaced() {
    let mut seen = std::collections::BTreeSet::new();
    for name in SERVE_METRIC_NAMES {
        assert!(name.starts_with("serve_"), "{name} escapes the namespace");
        assert!(seen.insert(*name), "{name} is registered twice");
    }
    assert!(!seen.is_empty());
}

/// The read deadline and body cap the HTTP reader is fuzzed under.
const READ_TIMEOUT_MS: u64 = 2_000;
const MAX_BODY_BYTES: usize = 64 << 10;

/// The three requests the daemon serves, as a client sends them.
fn valid_requests() -> [Vec<u8>; 3] {
    let scenario = Scenario::default().render_pretty();
    let submit = format!(
        "POST /submit HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Tenant: alice\r\n\
         Content-Length: {}\r\n\r\n{scenario}",
        scenario.len()
    );
    [
        submit.into_bytes(),
        b"GET /status/job0001 HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"POST /shutdown HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
    ]
}

/// One seeded mutation of request `a`: `kind` 0 truncates it, 1 flips
/// the `flips` bits, 2 splices `a`'s head onto `b`'s tail, and 3 plants
/// one oversized field after the request line: a header past
/// [`MAX_HEAD_BYTES`], or a declared body past the cap.
fn mutate(a: &[u8], b: &[u8], kind: u8, at: f64, flips: &[(f64, u8)]) -> Vec<u8> {
    let cut = |s: &[u8]| (at * s.len() as f64) as usize;
    let mut bytes = a.to_vec();
    match kind {
        0 => bytes.truncate(cut(a)),
        1 => {
            for &(pos, bit) in flips {
                let i = ((pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
                bytes[i] ^= 1 << bit;
            }
        }
        2 => {
            bytes.truncate(cut(a));
            bytes.extend_from_slice(&b[cut(b)..]);
        }
        _ => {
            let line_end = bytes.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
            let field = if at < 0.5 {
                format!("X-Pad: {}\r\n", "x".repeat(MAX_HEAD_BYTES))
            } else {
                // The first Content-Length wins: declare the padded
                // body honestly, then send it.
                let body =
                    bytes.len() - bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() - 4;
                bytes.resize(bytes.len() + MAX_BODY_BYTES + 1, b'x');
                format!("Content-Length: {}\r\n", body + MAX_BODY_BYTES + 1)
            };
            bytes.splice(line_end..line_end, field.into_bytes());
        }
    }
    bytes
}

/// Feed `raw` to `read_request` through a loopback socket, from a
/// client that writes it all and closes; returns the result and how
/// long the read took.
fn read(raw: Vec<u8>) -> (Result<Request, ProtocolError>, Duration) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // A reader that rejects early resets the connection mid-write.
        let _ = s.write_all(&raw);
    });
    let (mut stream, _) = listener.accept().unwrap();
    let started = Instant::now();
    let got = read_request(&mut stream, READ_TIMEOUT_MS, MAX_BODY_BYTES);
    let took = started.elapsed();
    drop(stream);
    writer.join().unwrap();
    (got, took)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mutated request reads as a request or a typed error before the
    /// deadline, never a panic; what reads is within the caps, and an
    /// oversized field is refused.
    #[test]
    fn mutated_requests_read_or_fail_typed_within_the_deadline(
        a in 0usize..3,
        b in 0usize..3,
        kind in 0u8..4,
        at in 0.0f64..1.0,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..8),
    ) {
        let seeds = valid_requests();
        prop_assert!(read(seeds[a].clone()).0.is_ok(), "seed {a} must read");
        let (got, took) = read(mutate(&seeds[a], &seeds[b], kind, at, &flips));
        prop_assert!(took < Duration::from_millis(READ_TIMEOUT_MS), "{took:?}: {got:?}");
        if kind == 3 {
            let field = if at < 0.5 { "header block" } else { "body" };
            prop_assert_eq!(got, Err(ProtocolError::TooLarge(field)));
        } else if let Ok(request) = got {
            prop_assert!(request.body.len() <= MAX_BODY_BYTES);
        }
    }
}
