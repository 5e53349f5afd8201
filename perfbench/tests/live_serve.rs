//! A tiny `serve-mix` against a live daemon (the `rtm serve` server, run in
//! this process on a free port): every warm-up and window answer must
//! pass the independent check, so `failed_share` is 0.

use perfbench::proc::{Client, ServeStats};
use perfbench::serve_mix::{self, Kind, Mix, Verified};
use rtm_serve::server::{ServeConfig, Server};

#[test]
fn tiny_serve_mix_has_no_failures() {
    let handle = Server::bind(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    let mix = Mix::new(11);
    let warm = mix.warmup();
    let lines: Vec<String> = warm.iter().map(|r| r.line.clone()).collect();
    let resps = Client::connect(addr).unwrap().pipeline(&lines).unwrap();
    assert_eq!(resps.len(), warm.len());
    let verified = Verified::default();
    for (req, resp) in warm.iter().zip(&resps) {
        verified.check(req, resp).unwrap();
    }

    let mut control = Client::connect(addr).unwrap();
    let before = ServeStats::read(&mut control).unwrap();
    let (samples, window_s) = serve_mix::window(addr, &mix, &verified, 1.5);
    let after = ServeStats::read(&mut control).unwrap();
    let delta = after.since(&before);

    assert!(window_s >= 1.5);
    assert!(!samples.is_empty());
    let failed = samples.iter().filter(|s| s.error.is_some()).count();
    let failed_share = failed as f64 / samples.len() as f64;
    assert_eq!(
        failed_share,
        0.0,
        "{:?}",
        samples.iter().find(|s| s.error.is_some())
    );
    // Requests are numbered densely from 0 across both connections.
    assert!(samples.iter().enumerate().all(|(i, s)| s.id == i as u64));
    assert!(samples.iter().all(|s| s.server_ms.is_some()));
    // The daemon saw exactly the window's requests (plus one `stats`),
    // answered none with an error, and hit its cache on hot queries.
    assert_eq!(delta.requests, samples.len() as u64 + 1);
    assert_eq!(delta.errors, 0);
    assert!(delta.trace_hits > 0);
    assert!(!verified.shifts(Kind::Hot).is_empty());
    handle.shutdown();
}
