//! Concurrent-correctness suite for the daemon: N simultaneous mixed
//! requests must be bit-identical to cold single-shot solves, malformed
//! requests must get exactly one structured `error:` line without
//! disturbing anyone else, and the cache identity must hold under
//! adversarial inputs.

use rtm_serve::loadgen::{self, LoadgenConfig};
use rtm_serve::protocol::{parse_request, Request};
use rtm_serve::report::deterministic_slice;
use rtm_serve::server::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn start(threads: usize) -> ServerHandle {
    Server::bind(ServeConfig {
        threads,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap()
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp.trim_end().to_string()
}

/// The headline acceptance check: a mixed-tier, mixed-strategy stream
/// served concurrently from warm cached sessions answers bit-identically
/// to fresh in-process single-shot solves (deterministic budgets).
#[test]
fn concurrent_mixed_requests_are_bit_identical_to_single_shot() {
    let handle = start(0);
    let mut mix = loadgen::standard_mix(0.05, 200);
    // Inline traces ride along with the generated profiles.
    mix.push("place strategy=dma-sr dbcs=2 :: a b a b c a c a b b".to_string());
    mix.push("place strategy=sa seed=3 budget-evals=200 dbcs=2 :: x y z x y z x x".to_string());
    let report = loadgen::run(
        &LoadgenConfig {
            addr: handle.addr(),
            clients: 4,
            rounds: 2,
            default_deadline_ms: 10_000,
        },
        &mix,
    )
    .unwrap();
    assert!(
        report.identical,
        "mismatches={} errors={}",
        report.mismatches, report.errors
    );
    assert_eq!(report.errors, 0);
    assert!(report.warm_cache_win, "{report:?}");
    assert!(report.trace_hit_rate > 0.5, "{report:?}");
    handle.shutdown();
}

/// A malformed request on one connection gets a single `error:` line with
/// the parse position, while a concurrent well-formed stream on another
/// connection is entirely unaffected.
#[test]
fn malformed_requests_never_disturb_other_connections() {
    let handle = start(2);
    let addr = handle.addr();
    let good_line = "place strategy=dma-sr dbcs=2 :: m n m n o m o m";
    // Reference payload for the good query.
    let reference = {
        let Request::Place(req) = parse_request(good_line).unwrap() else {
            unreachable!()
        };
        let (strategy, geom, seq, sol) = req.reference_solution(10_000).unwrap();
        rtm_serve::report::solution_fields(
            &strategy,
            &rtm_serve::report::Geometry::flat(geom.dbcs, geom.capacity, geom.ports),
            &seq,
            &sol,
        )
    };
    let expected = deterministic_slice(&reference).unwrap().to_string();

    std::thread::scope(|scope| {
        let bad = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..8 {
                // Multi-line trace whose third line is malformed.
                let resp = roundtrip(&mut stream, "place dbcs=2 :: a b\\nc d\\n:x e");
                assert!(resp.starts_with("error: "), "{resp}");
                assert!(resp.contains("line 3"), "{resp}");
                assert!(resp.contains("column 1"), "{resp}");
                // Exactly one line: a second command still answers.
                let pong = roundtrip(&mut stream, "ping");
                assert!(pong.contains("\"pong\":true"), "{pong}");
            }
        });
        let good = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..8 {
                let resp = roundtrip(&mut stream, good_line);
                assert_eq!(
                    deterministic_slice(&resp).unwrap(),
                    expected,
                    "good stream perturbed by a malformed neighbor"
                );
            }
        });
        bad.join().unwrap();
        good.join().unwrap();
    });
    handle.shutdown();
}

/// Unsolvable-but-well-formed queries (capacity too small for the
/// variables) are also contained to one `error:` line.
#[test]
fn unsolvable_queries_are_errors_not_crashes() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let resp = roundtrip(&mut stream, "place dbcs=1 capacity=2 :: a b c d e a b c");
    assert!(resp.starts_with("error: "), "{resp}");
    // Same connection keeps serving.
    let ok = roundtrip(&mut stream, "place dbcs=2 :: a b a b");
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    handle.shutdown();
}

/// Two different traces engineered to share length and token count (the
/// cheap structural prefix of the fingerprint) must never cross-hit: each
/// gets its own session and its own solution.
#[test]
fn structurally_similar_traces_get_distinct_sessions() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let a = roundtrip(&mut stream, "place dbcs=2 :: a b a b c c a a");
    let b = roundtrip(&mut stream, "place dbcs=2 :: c c a b a b a a");
    assert!(a.contains("\"trace_cache\":\"miss\""), "{a}");
    assert!(b.contains("\"trace_cache\":\"miss\""), "{b}");
    let fp = |s: &str| {
        let at = s.find("\"fingerprint\":\"").unwrap() + 15;
        s[at..].split('"').next().unwrap().to_string()
    };
    assert_ne!(fp(&a), fp(&b), "distinct traces share a fingerprint");
    // Repeat of each hits its own entry.
    let a2 = roundtrip(&mut stream, "place dbcs=2 :: a b a b c c a a");
    assert!(a2.contains("\"trace_cache\":\"hit\""), "{a2}");
    assert_eq!(
        deterministic_slice(&a).unwrap(),
        deterministic_slice(&a2).unwrap()
    );
    handle.shutdown();
}
