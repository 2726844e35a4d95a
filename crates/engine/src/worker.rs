//! The per-job containment core every engine worker runs.
//!
//! [`Engine::run_batch`](crate::Engine::run_batch) and
//! [`Engine::run_stream`](crate::Engine::run_stream) claim work
//! differently — a batch steals cells from a queue, a stream claims
//! device indices from an atomic counter — but once a worker holds a
//! spec, both hand it to [`Containment::run`]. That one function owns
//! the whole per-job sequence:
//!
//! 1. stamp the worker's watchdog heartbeat with the job's key;
//! 2. sleep through an injected stall, if the fault plan asks for one;
//! 3. execute under `catch_unwind`, re-running a panicking job up to
//!    the retry budget (injected panics fire inside the fence);
//! 4. record the worker's metrics and the live latency summary.
//!
//! Keeping the sequence in one place is what keeps the two paths from
//! drifting: a stalled batch cell trips the watchdog exactly like a
//! stalled fleet device.
//!
//! The job's content key is computed only when a step needs it: the
//! heartbeat (watchdog armed), the fault draws (plan active) and the
//! retry log line. A healthy job on a plain run never encodes its
//! spec, which on the fleet path would otherwise cost a canonical
//! string and a 128-bit hash per device. A caller that must name a
//! failed job computes the key itself.

use std::cell::OnceCell;
use std::time::Instant;

use kernel_sim::WindowSample;
use obs::registry::{Counter, LiveHistogram};
use obs::watchdog::Heartbeat;
use obs::WorkerMetrics;

use crate::engine::panic_message;
use crate::fault::FaultInjector;
use crate::job::{JobResult, JobSpec};

/// One job after containment.
pub(crate) struct Contained {
    /// Execution attempts made (1 + retries).
    pub attempts: u32,
    /// The result and its windowed timeline (empty unless the core was
    /// built with `timeline_windows > 0`), or the final attempt's panic
    /// message once the retry budget is spent.
    pub outcome: Result<(JobResult, Vec<WindowSample>), String>,
}

/// The read-only policy of the containment core, shared by a pool's
/// workers.
pub(crate) struct Containment<'a> {
    faults: &'a FaultInjector,
    max_retries: u32,
    timeline_windows: u32,
    m_retries: &'static Counter,
    h_latency: &'static LiveHistogram,
}

impl<'a> Containment<'a> {
    /// A core that injects `faults`, retries a panicking job up to
    /// `max_retries` times and slices each run into `timeline_windows`
    /// sim-time windows (`0`: no timeline).
    pub fn new(faults: &'a FaultInjector, max_retries: u32, timeline_windows: u32) -> Self {
        Containment {
            faults,
            max_retries,
            timeline_windows,
            m_retries: obs::registry::counter(
                "engine_job_retries_total",
                "Job execution attempts beyond the first.",
            ),
            h_latency: obs::registry::histogram(
                "engine_job_latency_us",
                "Per-job wall-clock latency, microseconds.",
            ),
        }
    }

    /// Runs one job through the containment sequence (module docs),
    /// stamping `heartbeat` and recording into `wm`.
    pub fn run(&self, spec: &JobSpec, heartbeat: &Heartbeat, wm: &mut WorkerMetrics) -> Contained {
        let _job_span = obs::span::enter("job");
        let started = Instant::now();
        let key_cell = OnceCell::new();
        let key = || *key_cell.get_or_init(|| spec.key());
        if obs::watchdog::active() {
            heartbeat.start(&key().to_string());
        }
        if self.faults.is_active() {
            if let Some(stall) = self.faults.worker_stall(key()) {
                // Wall-clock latency only: the job's result is
                // untouched, but the heartbeat above now has something
                // for the watchdog to catch.
                obs::debug!(
                    "engine: injected_stall key={} ms={}",
                    key(),
                    stall.as_millis()
                );
                std::thread::sleep(stall);
            }
        }
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.faults.is_active() && self.faults.worker_panic(key(), attempts) {
                    panic!(
                        "injected fault: worker panic (job {}, attempt {attempts})",
                        key()
                    );
                }
                if self.timeline_windows > 0 {
                    spec.execute_timeline(self.timeline_windows)
                } else {
                    (spec.execute(), Vec::new())
                }
            }));
            match run {
                Ok(r) => break Ok(r),
                Err(payload) if attempts > self.max_retries => {
                    break Err(panic_message(payload.as_ref()))
                }
                Err(_) => {
                    wm.inc("retries");
                    self.m_retries.inc();
                    obs::debug!("engine: job_retry key={} attempt={attempts}", key());
                }
            }
        };
        if let Ok((result, _)) = &outcome {
            wm.inc("jobs_executed");
            wm.add("sim_us", spec.duration.as_micros());
            wm.observe("utilization", result.mean_utilization);
        }
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        wm.observe_log("job_latency_us", latency_us);
        self.h_latency.observe(latency_us);
        Contained { attempts, outcome }
    }
}

/// Serializes tests that arm the process-global watchdog: a patrol
/// flags each stall once, so two such tests patrolling at once could
/// take each other's stalls.
#[cfg(test)]
pub(crate) fn watchdog_test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
