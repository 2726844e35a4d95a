//! The `/metrics` endpoint: Prometheus text exposition over a bare
//! `std::net::TcpListener`.
//!
//! No HTTP library — a scrape is one short request and one
//! `text/plain` response, which forty lines of std cover. [`start`]
//! is the whole telemetry plane's ignition switch: it flips the
//! [`crate::registry`] recording gate, arms the
//! [`crate::watchdog`], binds the listener (port `0` asks the kernel
//! for a free port; the bound address is returned and logged), and
//! spawns two detached threads:
//!
//! - the **exporter** thread answers every connection with a fresh
//!   [`crate::registry::render_prometheus`] snapshot;
//! - the **snapshot** thread wakes a few times a second to derive rate
//!   gauges (jobs/s, cache hit rate) from the raw counters and to run
//!   one watchdog patrol.
//!
//! Both threads are wall-clock side channels: they read atomics the
//! hot paths publish and never touch simulation state, so every
//! deterministic artifact is byte-identical with the exporter on or
//! off.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::registry;
use crate::watchdog;

/// How often the snapshot thread refreshes derived gauges and patrols
/// heartbeats.
const SNAPSHOT_EVERY: Duration = Duration::from_millis(250);

/// How long one read from, or one write to, a scrape connection may
/// block. Connections are served one at a time, so without the bound a
/// client that connects and never sends — or sends and never reads a
/// response larger than the socket buffers — would wedge every later
/// scrape.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Default stall threshold: a worker silent for this long while busy is
/// reported. Overridable via `REPRO_STALL_MS` (smoke tests inject
/// sub-second stalls).
pub fn stall_threshold_ms() -> u64 {
    std::env::var("REPRO_STALL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// Starts the whole live telemetry plane and returns the bound address
/// (useful with port 0). Recording stays enabled for the process
/// lifetime; the threads are detached and die with the process.
pub fn start(addr: &str, stall_ms: u64) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    registry::set_enabled(true);
    watchdog::set_active(true);
    std::thread::Builder::new()
        .name("obs-exporter".to_string())
        .spawn(move || serve_loop(&listener))?;
    std::thread::Builder::new()
        .name("obs-snapshot".to_string())
        .spawn(move || snapshot_loop(stall_ms))?;
    Ok(local)
}

fn serve_loop(listener: &TcpListener) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                // Scrapes are rare (seconds apart) and tiny; serving
                // inline keeps the exporter single-threaded and dumb.
                let _ = respond(stream, registry::render_prometheus);
            }
            Err(e) => {
                crate::debug!("obs: exporter accept error: {e}");
            }
        }
    }
}

/// Answers one connection with a fresh `render()` body.
fn respond(mut stream: TcpStream, render: fn() -> String) -> std::io::Result<()> {
    // Drain (up to a sane bound) whatever request line and headers the
    // scraper sent; the response is the same for any path.
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut buf = [0u8; 4096];
    let mut seen = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 64 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render();
    let header = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Derives the rate/ratio gauges from raw counters and patrols the
/// watchdog, forever.
fn snapshot_loop(stall_ms: u64) {
    let started = Instant::now();
    let mut last = Instant::now();
    let mut last_jobs = 0u64;
    loop {
        std::thread::sleep(SNAPSHOT_EVERY);
        let dt = last.elapsed().as_secs_f64().max(1e-9);
        last = Instant::now();

        // Jobs (== devices, in a fleet stream) completed per second,
        // over the last snapshot interval. Registered eagerly so the
        // family is scrapeable (at 0) before the first job lands.
        let now_jobs =
            registry::find_counter("engine_jobs_executed_total").map_or(0, |jobs| jobs.get());
        let rate = (now_jobs.saturating_sub(last_jobs)) as f64 / dt;
        last_jobs = now_jobs;
        registry::float_gauge(
            "engine_jobs_per_sec",
            "Jobs (fleet: devices) completed per second, last snapshot interval.",
        )
        .set(rate);

        // Cache hit rate so far (batch engine; stays 0 for streams,
        // which bypass the cache by design).
        let hits = registry::find_counter("engine_cache_hits_total").map_or(0, |c| c.get());
        let cells = registry::find_counter("engine_cells_total").map_or(0, |c| c.get());
        registry::float_gauge(
            "engine_cache_hit_rate",
            "Cache hits over cells requested, so far this process.",
        )
        .set(if cells > 0 {
            hits as f64 / cells as f64
        } else {
            0.0
        });

        registry::float_gauge(
            "obs_uptime_seconds",
            "Seconds since the telemetry plane started.",
        )
        .set(started.elapsed().as_secs_f64());

        watchdog::patrol(stall_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-process scraper: connect, send a GET, read to EOF.
    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn exporter_serves_prometheus_text_end_to_end() {
        let _guard = registry::test_serial();
        let addr = start("127.0.0.1:0", 60_000).expect("bind port 0");
        assert_ne!(addr.port(), 0, "kernel assigned a real port");
        registry::counter("exporter_test_total", "end-to-end test counter").add(3);
        let response = scrape(addr);
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("header/body split");
        assert!(body.contains("# TYPE exporter_test_total counter"));
        assert!(body.contains("exporter_test_total 3"));
        // A second scrape sees fresh values.
        registry::counter("exporter_test_total", "end-to-end test counter").add(1);
        assert!(scrape(addr).contains("exporter_test_total 4"));
        registry::set_enabled(false);
        watchdog::set_active(false);
    }

    #[test]
    fn a_client_that_never_reads_cannot_block_the_next_scrape() {
        // A body far past the socket buffers, so writing it to a client
        // that never reads blocks until the write timeout fires.
        fn huge() -> String {
            "# padding\n".repeat(2_400_000)
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
        let addr = listener.local_addr().expect("bound address");
        // The exporter's serving discipline: one connection at a time.
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let _ = respond(stream.expect("accept"), huge);
            }
        });

        let mut stuck = TcpStream::connect(addr).expect("connect");
        stuck
            .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("send request");
        // The listener accepts in connection order, so the exporter is
        // busy with the stuck client before it sees the next one.
        let started = Instant::now();
        let mut next = TcpStream::connect(addr).expect("connect");
        next.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        next.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("send request");
        let mut response = Vec::new();
        next.read_to_end(&mut response)
            .expect("the next scrape is served while the stuck client sits");
        assert!(response.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(response.len() > huge().len(), "whole body arrived");
        assert!(
            started.elapsed() < Duration::from_secs(15),
            "served after {:?}",
            started.elapsed()
        );
        drop(stuck);
        server.join().expect("server thread");
    }
}
