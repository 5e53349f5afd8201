//! Child processes of the `rtm` binary: one-shot CLI invocations with
//! peak-RSS sampling, the `rtm serve` daemon, and a TCP client for it.
//!
//! Every child is killed and reaped on every exit path: [`Daemon`] does it
//! in `Drop`, and [`invoke`] waits for its child before returning.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits for one response line.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a running CLI child's `VmHWM` is sampled.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(5);

/// `VmHWM` (peak resident set, kB) of process `pid`, if readable.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One finished CLI invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Spawn to exit.
    pub wall: Duration,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Largest `VmHWM` sampled while the child ran (kB; 0 if none).
    pub peak_rss_kb: u64,
}

/// Runs `rtm <args>` to completion, timing it from spawn to exit and
/// sampling its peak RSS.
///
/// # Errors
///
/// A spawn failure, a non-zero exit (with the child's stderr), or
/// non-UTF-8 output.
pub fn invoke(rtm: &Path, args: &[String]) -> Result<Invocation, String> {
    let started = Instant::now();
    let child = Command::new(rtm)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", rtm.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (output, wall, peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Acquire) {
                peak = vm_hwm_kb(pid).unwrap_or(0).max(peak);
                std::thread::sleep(RSS_SAMPLE_PERIOD);
            }
            peak
        });
        let output = child.wait_with_output();
        let wall = started.elapsed();
        done.store(true, Ordering::Release);
        let peak = sampler.join().expect("the RSS sampler does not panic");
        (output, wall, peak)
    });
    let output = output.map_err(|e| format!("waiting for rtm failed: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "rtm {} exited with {}: {}",
            args.first().map_or("", String::as_str),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(Invocation {
        wall,
        stdout: String::from_utf8(output.stdout).map_err(|e| e.to_string())?,
        peak_rss_kb: peak,
    })
}

/// A running `rtm serve` child. Dropping it shuts the daemon down (killing
/// it if it does not exit) and reaps it.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// Held open so the daemon never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `rtm serve --threads <threads>` on a free loopback port and
    /// waits until it answers `ping`.
    ///
    /// # Errors
    ///
    /// Spawn failures, a missing `listening on` line, or no `pong`.
    pub fn start(rtm: &Path, threads: usize) -> Result<Self, String> {
        let mut child = Command::new(rtm)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {} serve: {e}", rtm.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Self {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address failed: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner `{}`", line.trim()))?;
        let pong = Client::connect(daemon.addr)?.roundtrip("ping")?.0;
        if !pong.contains("\"pong\":true") {
            return Err(format!("daemon did not answer ping: {pong}"));
        }
        Ok(daemon)
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's `VmHWM` in kB (0 if unreadable).
    pub fn peak_rss_kb(&self) -> u64 {
        self.child
            .as_ref()
            .and_then(|c| vm_hwm_kb(c.id()))
            .unwrap_or(0)
    }

    /// Sends `shutdown` and reaps the daemon, killing it if it has not
    /// exited within five seconds.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.roundtrip("shutdown");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if matches!(child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A line-protocol client that measures the daemon rather than itself:
/// `TCP_NODELAY` is set and each request line goes out in a single write,
/// so no client-side Nagle delay is added to a measured latency.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// A refused or failed connection.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        // A daemon that stops answering fails the request instead of
        // hanging the run.
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            stream,
            reader,
            buf: Vec::new(),
        })
    }

    /// Sends `line` and reads one response line; returns the response
    /// (without its newline) and the time from send to full response.
    ///
    /// # Errors
    ///
    /// I/O failures and a closed connection.
    pub fn roundtrip(&mut self, line: &str) -> Result<(String, Duration), String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        let started = Instant::now();
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        let took = started.elapsed();
        if n == 0 {
            return Err("connection closed".into());
        }
        resp.truncate(resp.trim_end_matches(['\r', '\n']).len());
        Ok((resp, took))
    }

    /// Sends all `lines` and reads one response per line, pipelined: a
    /// writer thread streams the requests while this thread reads, so
    /// neither side's socket buffer can fill and stall the other.
    ///
    /// # Errors
    ///
    /// I/O failures and a closed connection.
    pub fn pipeline(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        let mut writer = self.stream.try_clone().map_err(|e| e.to_string())?;
        let reader = &mut self.reader;
        std::thread::scope(|s| {
            let sent = s.spawn(move || -> Result<(), String> {
                for l in lines {
                    writer
                        .write_all(format!("{l}\n").as_bytes())
                        .map_err(|e| format!("send: {e}"))?;
                }
                Ok(())
            });
            let mut out = Vec::with_capacity(lines.len());
            for _ in lines {
                let mut resp = String::new();
                match reader.read_line(&mut resp) {
                    Ok(0) => return Err("connection closed".to_string()),
                    Ok(_) => out.push(resp.trim_end_matches(['\r', '\n']).to_string()),
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            sent.join().expect("the pipeline writer does not panic")?;
            Ok(out)
        })
    }
}

/// The daemon's `stats` counters that the benchmark reports as deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// `stats.requests`.
    pub requests: u64,
    /// `stats.responses_error`.
    pub errors: u64,
    /// `stats.overloaded`.
    pub overloaded: u64,
    /// `stats.cache.trace_hits`.
    pub trace_hits: u64,
    /// `stats.cache.trace_misses`.
    pub trace_misses: u64,
    /// `stats.cache.session_hits`.
    pub session_hits: u64,
    /// `stats.cache.session_misses`.
    pub session_misses: u64,
    /// `stats.cache.evictions`.
    pub evictions: u64,
}

impl ServeStats {
    /// Asks the daemon for its counters over `client`.
    ///
    /// # Errors
    ///
    /// I/O failures or a response without the expected counters.
    pub fn read(client: &mut Client) -> Result<Self, String> {
        let (resp, _) = client.roundtrip("stats")?;
        let f = |k: &str| {
            rtm_serve::json::find_u64(&resp, k).ok_or_else(|| format!("stats lacks `{k}`: {resp}"))
        };
        Ok(Self {
            requests: f("requests")?,
            errors: f("responses_error")?,
            overloaded: f("overloaded")?,
            trace_hits: f("trace_hits")?,
            trace_misses: f("trace_misses")?,
            session_hits: f("session_hits")?,
            session_misses: f("session_misses")?,
            evictions: f("evictions")?,
        })
    }

    /// Counter increments from `before` to `self`.
    pub fn since(&self, before: &Self) -> Self {
        Self {
            requests: self.requests.saturating_sub(before.requests),
            errors: self.errors.saturating_sub(before.errors),
            overloaded: self.overloaded.saturating_sub(before.overloaded),
            trace_hits: self.trace_hits.saturating_sub(before.trace_hits),
            trace_misses: self.trace_misses.saturating_sub(before.trace_misses),
            session_hits: self.session_hits.saturating_sub(before.session_hits),
            session_misses: self.session_misses.saturating_sub(before.session_misses),
            evictions: self.evictions.saturating_sub(before.evictions),
        }
    }
}
