//! The engine's one worker pool and the per-job containment core its
//! workers run.
//!
//! [`Engine::run_batch`](crate::Engine::run_batch) and
//! [`Engine::run_stream`](crate::Engine::run_stream) both execute
//! through [`Containment::pool`]. A pool runs jobs `0..count` on scoped
//! threads, and each worker claims the next index from one shared
//! atomic counter: a batch claims positions in its list of cells left
//! to simulate, a stream claims device indices. Nothing crosses between
//! threads per job but that one `fetch_add`. The pool owns everything
//! around the caller's per-job step: the threads, the claim, the
//! watchdog registration and final idle, each worker's metrics and span
//! buffer, and the join, where a worker that died outside the
//! catch-unwind fence is logged and counted rather than aborting the
//! process.
//!
//! Inside the step, [`Worker::run`] is the containment core. It owns
//! the whole per-job sequence:
//!
//! 1. stamp the worker's watchdog heartbeat with the job's key;
//! 2. sleep through an injected stall, if the fault plan asks for one;
//! 3. execute under `catch_unwind`, re-running a panicking job up to
//!    the retry budget (injected panics fire inside the fence);
//! 4. record the worker's metrics, the live counters and the live
//!    latency summary.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kernel_sim::WindowSample;
use obs::registry::{counter, gauge, histogram, Counter, Gauge, LiveHistogram};
use obs::watchdog::Heartbeat;
use obs::WorkerMetrics;

use crate::fault::FaultInjector;
use crate::job::{JobResult, JobSpec};

/// Minimum wall-clock gap between progress reports.
const REPORT_EVERY: Duration = Duration::from_millis(500);

/// Every live `engine_*` metric, each defined once (name, kind, help)
/// and resolved once per run, so the hot paths touch only atomics
/// (no-ops while the metrics plane is off).
pub(crate) struct LiveMetrics {
    pub cells: &'static Counter,
    pub cache_hits: &'static Counter,
    pub jobs: &'static Counter,
    pub failed: &'static Counter,
    pub retries: &'static Counter,
    pub failures_dropped: &'static Counter,
    pub devices_remaining: &'static Gauge,
    pub latency: &'static LiveHistogram,
}

impl LiveMetrics {
    fn resolve() -> Self {
        LiveMetrics {
            cells: counter(
                "engine_cells_total",
                "Batch cells requested, cached or simulated.",
            ),
            cache_hits: counter(
                "engine_cache_hits_total",
                "Batch cells served from the result cache.",
            ),
            jobs: counter(
                "engine_jobs_executed_total",
                "Jobs (fleet: devices) simulated to completion.",
            ),
            failed: counter(
                "engine_jobs_failed_total",
                "Jobs that exhausted their retry budget.",
            ),
            retries: counter(
                "engine_job_retries_total",
                "Job execution attempts beyond the first.",
            ),
            failures_dropped: counter(
                "engine_failures_dropped_total",
                "Failure reports dropped by bounded retention (still counted as failed).",
            ),
            devices_remaining: gauge(
                "engine_stream_devices_remaining",
                "Stream devices not yet claimed by a worker.",
            ),
            latency: histogram(
                "engine_job_latency_us",
                "Per-job wall-clock latency, microseconds.",
            ),
        }
    }

    /// Jobs completed by worker `w`, as
    /// `engine_worker_jobs_total{worker="w"}`.
    fn worker_jobs(w: usize) -> &'static Counter {
        counter(
            &format!("engine_worker_jobs_total{{worker=\"{w}\"}}"),
            "Jobs completed, by worker.",
        )
    }
}

/// One job after containment.
pub(crate) struct Contained {
    /// Execution attempts made (1 + retries).
    pub attempts: u32,
    /// The result and its windowed timeline (empty unless the core was
    /// built with `timeline_windows > 0`), or the final attempt's panic
    /// message once the retry budget is spent.
    pub outcome: Result<(JobResult, Vec<WindowSample>), String>,
}

/// The read-only policy of a run's workers, and the run's live
/// metrics.
pub(crate) struct Containment<'a> {
    faults: &'a FaultInjector,
    max_retries: u32,
    timeline_windows: u32,
    pub live: LiveMetrics,
}

/// One pool worker's own state, lent to every step it runs.
pub(crate) struct Worker<'p, S> {
    core: &'p Containment<'p>,
    heartbeat: Arc<Heartbeat>,
    jobs: &'static Counter,
    metrics: WorkerMetrics,
    /// The caller's per-worker state.
    pub state: S,
}

/// What a pool hands back once every worker has joined.
pub(crate) struct Pooled<S> {
    /// Each surviving worker's state, in worker order.
    pub states: Vec<S>,
    /// The surviving workers' metrics, merged.
    pub metrics: WorkerMetrics,
    /// The surviving workers' span buffers (`worker-N`), in worker
    /// order; workers that recorded nothing are left out.
    pub spans: Vec<(String, obs::ThreadSpans)>,
    /// Workers that died outside the catch-unwind fence. Their state,
    /// metrics, spans and in-flight job are lost.
    pub dead: usize,
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
            live: LiveMetrics::resolve(),
        }
    }

    /// Runs jobs `0..count` on `workers` threads (module docs). Each
    /// worker starts from `S::default()`, claims indices in increasing
    /// order and hands each to `step`. With `report` set, worker 0
    /// calls it with the pool's completed-job count at most every
    /// [`REPORT_EVERY`].
    pub fn pool<S, F>(
        &self,
        workers: usize,
        count: u64,
        report: Option<&(dyn Fn(u64) + Sync)>,
        step: F,
    ) -> Pooled<S>
    where
        S: Default + Send,
        F: Fn(&mut Worker<'_, S>, u64) + Sync,
    {
        // The whole hand-off between threads: the next unclaimed index,
        // and a completion count for progress reports. Relaxed suffices
        // for both — neither publishes other data; each worker's state
        // reaches this thread through its join.
        let next = AtomicU64::new(0);
        let completed = AtomicU64::new(0);
        let work = |id: usize| {
            let mut worker = Worker {
                core: self,
                heartbeat: obs::watchdog::register(id),
                jobs: LiveMetrics::worker_jobs(id),
                metrics: WorkerMetrics::new(),
                state: S::default(),
            };
            let mut last_report = Instant::now();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                step(&mut worker, index);
                if let Some(report) = report {
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    // Worker 0 speaks for the pool, from the shared count.
                    if id == 0 && last_report.elapsed() >= REPORT_EVERY {
                        last_report = Instant::now();
                        report(done);
                    }
                }
            }
            worker.heartbeat.idle();
            (worker.state, worker.metrics, obs::span::drain())
        };
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    let work = &work;
                    s.spawn(move || work(id))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        let mut pooled = Pooled {
            states: Vec::with_capacity(workers),
            metrics: WorkerMetrics::new(),
            spans: Vec::new(),
            dead: 0,
        };
        for (id, joined) in joined.into_iter().enumerate() {
            match joined {
                Ok((state, metrics, spans)) => {
                    pooled.states.push(state);
                    pooled.metrics.merge_from(&metrics);
                    if !spans.is_empty() {
                        pooled.spans.push((format!("worker-{id}"), spans));
                    }
                }
                Err(payload) => {
                    pooled.dead += 1;
                    obs::error!(
                        "engine: worker thread died: {}",
                        panic_message(payload.as_ref())
                    );
                }
            }
        }
        pooled
    }
}

impl<S> Worker<'_, S> {
    /// Runs one job through the containment sequence (module docs).
    pub fn run(&mut self, spec: &JobSpec) -> Contained {
        let core = self.core;
        let _job_span = obs::span::enter("job");
        let started = Instant::now();
        let key_cell = OnceCell::new();
        let key = || *key_cell.get_or_init(|| spec.key());
        if obs::watchdog::active() {
            self.heartbeat.start(&key().to_string());
        }
        if core.faults.is_active() {
            if let Some(stall) = core.faults.worker_stall(key()) {
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
                if core.faults.is_active() && core.faults.worker_panic(key(), attempts) {
                    panic!(
                        "injected fault: worker panic (job {}, attempt {attempts})",
                        key()
                    );
                }
                if core.timeline_windows > 0 {
                    spec.execute_timeline(core.timeline_windows)
                } else {
                    (spec.execute(), Vec::new())
                }
            }));
            match run {
                Ok(r) => break Ok(r),
                Err(payload) if attempts > core.max_retries => {
                    break Err(panic_message(payload.as_ref()))
                }
                Err(_) => {
                    self.metrics.inc("retries");
                    core.live.retries.inc();
                    obs::debug!("engine: job_retry key={} attempt={attempts}", key());
                }
            }
        };
        match &outcome {
            Ok((result, _)) => {
                self.metrics.inc("jobs_executed");
                self.metrics.add("sim_us", spec.duration.as_micros());
                self.metrics.observe("utilization", result.mean_utilization);
                core.live.jobs.inc();
                self.jobs.inc();
            }
            Err(_) => core.live.failed.inc(),
        }
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        self.metrics.observe_log("job_latency_us", latency_us);
        core.live.latency.observe(latency_us);
        Contained { attempts, outcome }
    }
}

/// Best-effort text from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
