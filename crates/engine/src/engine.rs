//! The batch executor: cache + journal + worker pool + progress.
//!
//! [`Engine::run_batch`] takes a named list of [`JobSpec`]s and returns
//! one outcome per spec, in spec order. Three layers may satisfy a
//! cell before a simulator runs:
//!
//! 1. the batch journal (when resuming an interrupted run),
//! 2. the content-addressed cache (unless disabled),
//! 3. the worker pool, which simulates whatever is left.
//!
//! Layers 1 and 2 run serially on the calling thread before any worker
//! starts, so a batch served wholly from cache starts none. Layer 3 is
//! the engine's one pool (`crate::worker`), shared with
//! [`Engine::run_stream`]: each worker claims the next cell left to
//! simulate by atomic index, runs it, stores it in the cache, appends
//! it to the journal (one `Mutex` around the journal file) and sets the
//! cell's own result slot. Slots are indexed by submission order, so
//! output is a pure function of the specs — never of worker count or
//! of which worker finished first.
//!
//! # Failure containment
//!
//! Each worker runs its cells through the containment core it shares
//! with [`Engine::run_stream`]: a watchdog heartbeat per cell, then the
//! cell under `catch_unwind`. A panicking job is retried up to
//! [`EngineConfig::max_retries`] times and — if it never succeeds —
//! reported as a [`JobFailure`] in its result slot. One bad cell
//! therefore costs one cell, not the batch: every other cell completes,
//! is cached and journaled as usual, and the journal is *kept* (instead
//! of deleted on completion) so `--resume` can retry just the failures.
//! A worker thread that dies outside the catch-unwind fence is logged
//! at join, and the one cell it had in flight — the only slot it left
//! empty — is reported failed rather than aborting the process.
//!
//! All of this is testable on demand: an [`EngineConfig::faults`] plan
//! injects seeded cache corruption, torn journal writes, worker panics
//! and worker stalls at content-addressed decision points (see
//! [`crate::fault`]), and the chaos suite asserts the engine's output
//! is bit-identical to a fault-free run.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use obs::{PolicyMetrics, RunMetrics, WorkerMetrics};
use policies::{PolicyDesc, PolicyId};

use crate::cache::{CacheProbe, ResultCache};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::job::{JobResult, JobSpec};
use crate::journal::Journal;
use crate::key::ContentKey;
use crate::worker::{Containment, Worker};

/// How a batch should be executed.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Consult and populate the on-disk result cache.
    pub use_cache: bool,
    /// Replay this batch's journal before running anything.
    pub resume: bool,
    /// Root for engine state (`<root>/cache`, `<root>/state`).
    /// Defaults to the repro results directory.
    pub state_root: Option<PathBuf>,
    /// Emit progress / throughput lines on stderr.
    pub progress: bool,
    /// Re-run a panicking job this many times before reporting it
    /// failed. Two retries tolerate the chaos suite's worst case
    /// (`max_panics=2`) and cost nothing on healthy runs.
    pub max_retries: u32,
    /// Deterministic fault plan to run the batch under; `None` (the
    /// default everywhere outside chaos tests) injects nothing.
    pub faults: Option<FaultPlan>,
    /// Write the batch's [`RunMetrics`] as `metrics.json` under
    /// `<state_root>/<batch>/`. Off by default (hermetic tests leave no
    /// files behind); the `repro` binary turns it on.
    pub write_metrics: bool,
    /// Number of sim-time windows each streamed job's trajectory is
    /// folded into (see [`kernel_sim::KernelConfig::timeline_windows`]).
    /// `0` (the default) disables the timeline; `repro fleet` turns it
    /// on to produce `fleet_timeline.csv`. Only `run_stream` consumes
    /// it — the batch path's cached results must stay
    /// timeline-independent.
    pub timeline_windows: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            use_cache: true,
            resume: false,
            state_root: None,
            progress: false,
            max_retries: 2,
            faults: None,
            write_metrics: false,
            timeline_windows: 0,
        }
    }
}

impl EngineConfig {
    /// Config for unit tests and benches: sequential, no disk state,
    /// no output.
    pub fn hermetic() -> Self {
        EngineConfig {
            jobs: 1,
            use_cache: false,
            resume: false,
            state_root: None,
            progress: false,
            max_retries: 2,
            faults: None,
            write_metrics: false,
            timeline_windows: 0,
        }
    }

    /// Config for library callers: all cores, no disk state, no
    /// output. This is what `experiments::*::run()` uses so that test
    /// suites stay hermetic; the `repro` binary opts into cache,
    /// resume and progress explicitly.
    pub fn in_memory() -> Self {
        EngineConfig {
            jobs: 0,
            ..Self::hermetic()
        }
    }
}

/// What a batch cost and where its results came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Cells requested.
    pub total: usize,
    /// Cells served from the result cache.
    pub cache_hits: usize,
    /// Cells served from an interrupted run's journal.
    pub journal_hits: usize,
    /// Cells successfully simulated.
    pub executed: usize,
    /// Cells that exhausted their retry budget and produced no result.
    pub failed: usize,
    /// Damaged cache entries quarantined (and recomputed) this batch.
    pub quarantined: usize,
    /// Worker threads used (0 when nothing needed executing).
    pub workers: usize,
    /// Wall-clock time for the whole batch, µs.
    pub elapsed_us: u64,
}

impl BatchStats {
    /// Simulated cells per wall-clock second. Shares
    /// [`sim_core::rate_per_sec`] with `RunMetrics::jobs_per_sec`
    /// (which rates *total* cells, cached ones included) — one rate
    /// definition, two numerators.
    pub fn cells_per_sec(&self) -> f64 {
        sim_core::rate_per_sec(self.executed as u64, self.elapsed_us)
    }
}

/// Why one cell produced no result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Position of the failed spec in the submitted batch.
    pub index: usize,
    /// The spec's content key (feed to `--fault-plan` forensics).
    pub key: ContentKey,
    /// Human-readable spec label.
    pub label: String,
    /// Execution attempts made (1 + retries).
    pub attempts: u32,
    /// The final attempt's panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} ({}, key {}) failed after {} attempt(s): {}",
            self.index, self.label, self.key, self.attempts, self.message
        )
    }
}

/// Results plus accounting for one batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One outcome per input spec, in input order. `Err` slots carry
    /// the failure report for cells that exhausted their retries.
    pub results: Vec<Result<JobResult, JobFailure>>,
    /// Where they came from and what they cost.
    pub stats: BatchStats,
    /// Faults the configured plan actually injected (all zero when
    /// running without a plan).
    pub faults: FaultStats,
    /// Aggregated observability metrics for the batch (also written as
    /// `metrics.json` when [`EngineConfig::write_metrics`] is set).
    pub metrics: RunMetrics,
    /// Merged per-worker counters and histograms (includes the calling
    /// thread's cache-hit service times) — the raw material behind
    /// `metrics`, exposed for harnesses that need distributions, not
    /// just percentile summaries.
    pub worker_metrics: WorkerMetrics,
    /// The batch's wall-clock span profile: one buffer per thread (the
    /// calling thread first, then workers). Empty unless span profiling
    /// was enabled ([`obs::span::set_enabled`]).
    pub profile: obs::Profile,
}

impl BatchOutcome {
    /// The failure reports, in batch order.
    pub fn failures(&self) -> Vec<&JobFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Unwraps every result, panicking with a consolidated report if
    /// any cell failed. Callers that can degrade cell-by-cell should
    /// match on `results` instead; callers that need the whole grid
    /// (every completed cell is already cached/journaled, so a re-run
    /// is cheap) use this.
    pub fn expect_all(self) -> Vec<JobResult> {
        let failures = self.failures();
        if !failures.is_empty() {
            let report: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
            panic!(
                "{} of {} jobs failed (completed cells are cached; re-run to retry):\n  {}",
                report.len(),
                self.results.len(),
                report.join("\n  ")
            );
        }
        self.results
            .into_iter()
            .map(|r| r.expect("no failures"))
            .collect()
    }
}

/// A batch cell left to simulate, with the content key and canonical
/// string the up-front probe built for it.
struct Pending {
    /// Position of the spec in the submitted batch.
    index: usize,
    key: ContentKey,
    canonical: String,
}

/// The parallel, cache-aware experiment executor.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Worker count after resolving `jobs = 0` to the machine's
    /// available parallelism.
    pub fn worker_count(&self) -> usize {
        if self.config.jobs > 0 {
            self.config.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Root directory for cache and journal state.
    fn state_root(&self) -> PathBuf {
        self.config.state_root.clone().unwrap_or_else(|| {
            std::env::var_os("REPRO_RESULTS_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("results"))
        })
    }

    /// Runs every spec, returning outcomes in spec order.
    ///
    /// `batch` names the journal, so interrupting this call and
    /// re-running with `resume` set picks up where it stopped. The
    /// journal is always *written* (recovery must not require having
    /// predicted the crash); `resume` only controls whether an existing
    /// one is replayed. A batch that completes with no failures deletes
    /// its journal; one with failures keeps it so `--resume` retries
    /// only the failed cells.
    pub fn run_batch(&self, batch: &str, specs: &[JobSpec]) -> BatchOutcome {
        let started = Instant::now();
        let root = self.state_root();
        let faults = FaultInjector::new(self.config.faults);
        let core = Containment::new(&faults, self.config.max_retries, 0);
        core.live.cells.add(specs.len() as u64);
        let cache = self
            .config
            .use_cache
            .then(|| ResultCache::new(root.join("cache")));
        let state_dir = root.join("state");

        // Layer 1 + 2: satisfy cells from journal and cache up front.
        let journaled = if self.config.resume {
            Journal::replay(&state_dir, batch)
        } else {
            Default::default()
        };
        // One slot per spec: hits are set here, every other slot by the
        // worker that ran its cell.
        let mut slots: Vec<OnceLock<Result<JobResult, JobFailure>>> =
            Vec::with_capacity(specs.len());
        // Cells left to simulate. Each cell is encoded and hashed once,
        // here; a pending cell carries its key and canonical string to
        // the worker, which stores and journals its result under them.
        let mut pending: Vec<Pending> = Vec::new();
        let (mut journal_hits, mut cache_hits, mut quarantined) = (0usize, 0usize, 0usize);
        // Metrics owned by the calling thread: cache-hit service times
        // live here because only this thread probes.
        let mut caller_wm = WorkerMetrics::new();
        for (index, spec) in specs.iter().enumerate() {
            let (key, canonical) = {
                let _s = obs::span::enter("content_key");
                let canonical = spec.canonical();
                (ContentKey::of(&canonical), canonical)
            };
            let hit = journaled.get(&key).copied().inspect(|r| {
                journal_hits += 1;
                // Backfill the cache so the next batch doesn't depend
                // on the journal surviving.
                if let Some(cache) = &cache {
                    let _ = cache.store_keyed(key, &canonical, r, &faults);
                }
            });
            let hit = hit.or_else(|| match &cache {
                Some(c) => {
                    let _s = obs::span::enter("cache_probe");
                    let probe_started = Instant::now();
                    match c.probe_keyed(key, &canonical, &faults) {
                        CacheProbe::Hit(r) => {
                            cache_hits += 1;
                            core.live.cache_hits.inc();
                            caller_wm.observe_log(
                                "cache_hit_service_us",
                                probe_started.elapsed().as_secs_f64() * 1e6,
                            );
                            obs::debug!("engine: cache_hit key={key}");
                            Some(r)
                        }
                        CacheProbe::Quarantined => {
                            quarantined += 1;
                            obs::warn!("engine: cache_quarantine key={key} action=recompute");
                            None
                        }
                        CacheProbe::Miss => {
                            obs::debug!("engine: cache_miss key={key}");
                            None
                        }
                    }
                }
                None => None,
            });
            slots.push(match hit {
                Some(r) => OnceLock::from(Ok(r)),
                None => {
                    pending.push(Pending {
                        index,
                        key,
                        canonical,
                    });
                    OnceLock::new()
                }
            });
        }

        // A batch with nothing left to simulate records nothing, so it
        // clears any stale journal instead of creating one only to
        // delete it, which is what finishing an empty journal did.
        let journal = if pending.is_empty() {
            if let Err(e) = Journal::clear(&state_dir, batch) {
                obs::warn!("engine: could not clear journal for `{batch}`: {e}");
            }
            None
        } else {
            match Journal::open(&state_dir, batch) {
                Ok(j) => Some(Mutex::new(j)),
                Err(e) => {
                    obs::warn!("engine: journal disabled for `{batch}`: {e}");
                    None
                }
            }
        };

        // Layer 3: simulate the rest on the worker pool.
        let workers = self.worker_count().min(pending.len());
        let (to_run, reused) = (pending.len(), journal_hits + cache_hits);
        let report = |done: u64| {
            let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
            let eta = (to_run as u64 - done) as f64 / rate.max(1e-9);
            obs::info!(
                "[{batch}] {done}/{to_run} simulated \
                 ({reused} reused) — {rate:.1} cells/s, ETA {eta:.0}s",
            );
        };
        let progress = self
            .config
            .progress
            .then_some(&report as &(dyn Fn(u64) + Sync));
        let pooled = core.pool(workers, to_run as u64, progress, |w: &mut Worker<()>, i| {
            let cell = &pending[i as usize];
            let spec = &specs[cell.index];
            let job = w.run(spec);
            let attempts = job.attempts;
            let outcome = match job.outcome {
                Ok((result, _)) => {
                    if let Some(cache) = &cache {
                        let _s = obs::span::enter("cache_write");
                        let stored = cache.store_keyed(cell.key, &cell.canonical, &result, &faults);
                        if let Err(e) = stored {
                            obs::warn!("engine: cache write failed for {}: {e}", cell.key);
                        }
                    }
                    if let Some(journal) = &journal {
                        let _s = obs::span::enter("journal_append");
                        // A holder that panicked mid-append left at most
                        // a torn line, which replay skips by its CRC.
                        let mut j = journal.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Err(e) = j.record_with(cell.key, &result, &faults) {
                            obs::warn!("engine: journal write failed: {e}");
                        }
                    }
                    Ok(result)
                }
                Err(message) => {
                    let failure = JobFailure {
                        index: cell.index,
                        key: cell.key,
                        label: spec.label(),
                        attempts,
                        message,
                    };
                    obs::error!("engine: {failure}");
                    Err(failure)
                }
            };
            let status = if outcome.is_ok() { "done" } else { "fail" };
            obs::debug!("engine: job_{status} key={} attempts={attempts}", cell.key);
            let _ = slots[cell.index].set(outcome);
        });
        if to_run > 0 {
            if let Some(report) = progress {
                report(to_run as u64);
            }
        }

        // A slot still empty belonged to a worker that died outside the
        // catch-unwind fence; fail it rather than pretend it ran.
        let results: Vec<Result<JobResult, JobFailure>> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner().unwrap_or_else(|| {
                    Err(JobFailure {
                        index: i,
                        key: specs[i].key(),
                        label: specs[i].label(),
                        attempts: 0,
                        message: "worker thread died before completing this job".to_string(),
                    })
                })
            })
            .collect();
        let failed = results.iter().filter(|r| r.is_err()).count();

        if let Some(j) = journal.map(|j| j.into_inner().unwrap_or_else(PoisonError::into_inner)) {
            if failed == 0 {
                if let Err(e) = j.finish() {
                    obs::warn!("engine: could not clear journal for `{batch}`: {e}");
                }
            } else {
                // Keep the journal: it holds every completed cell, so
                // a `--resume` re-run retries only the failures.
                drop(j);
                obs::warn!(
                    "engine: keeping journal for `{batch}` ({failed} failed job(s)); \
                     re-run with --resume to retry them"
                );
            }
        }

        let stats = BatchStats {
            total: specs.len(),
            cache_hits,
            journal_hits,
            executed: specs.len() - cache_hits - journal_hits - failed,
            failed,
            quarantined,
            workers,
            elapsed_us: started.elapsed().as_micros() as u64,
        };
        if self.config.progress {
            obs::info!(
                "[{batch}] {} cells in {:.1}s: {} simulated on {} worker(s), \
                 {} cache hit(s), {} journal hit(s)",
                stats.total,
                stats.elapsed_us as f64 / 1e6,
                stats.executed,
                stats.workers,
                stats.cache_hits,
                stats.journal_hits,
            );
            if faults.is_active() {
                let fs = faults.stats();
                obs::info!(
                    "[{batch}] faults injected under plan `{}`: {} total \
                     ({} read err, {} corrupt, {} truncate, {} write err, {} torn, {} panic)",
                    faults.plan(),
                    fs.total(),
                    fs.read_errors,
                    fs.corruptions,
                    fs.truncations,
                    fs.write_errors,
                    fs.torn_writes,
                    fs.panics,
                );
            }
        }

        let mut worker_totals = pooled.metrics;
        worker_totals.merge_from(&caller_wm);
        let metrics = self.build_metrics(batch, specs, &results, &stats, &worker_totals);
        let (metrics, profile) = self.finish_run(batch, metrics, &worker_totals, pooled.spans);
        BatchOutcome {
            results,
            stats,
            faults: faults.stats(),
            metrics,
            worker_metrics: worker_totals,
            profile,
        }
    }

    /// Folds batch stats, worker-pool counters and per-result totals
    /// into one [`RunMetrics`]. Cached and journaled results count
    /// toward the per-policy aggregates — the metrics describe the
    /// batch's *data*, not just what was simulated this run.
    fn build_metrics(
        &self,
        batch: &str,
        specs: &[JobSpec],
        results: &[Result<JobResult, JobFailure>],
        stats: &BatchStats,
        worker_totals: &WorkerMetrics,
    ) -> RunMetrics {
        let mut sched_dropped = 0u64;
        let mut clock_switches = 0u64;
        let mut voltage_switches = 0u64;
        // Cells are grouped by policy first, so each distinct policy
        // formats its label once; groups whose labels coincide still
        // share one entry below.
        let mut groups: HashMap<PolicyId, (&PolicyDesc, [u64; 3])> = HashMap::new();
        for (spec, result) in specs.iter().zip(results) {
            let Ok(r) = result else { continue };
            sched_dropped += r.sched_dropped;
            clock_switches += r.clock_switches;
            voltage_switches += r.voltage_switches;
            let (_, counts) = groups
                .entry(spec.policy.id())
                .or_insert((&spec.policy, [0; 3]));
            counts[0] += 1;
            counts[1] += r.clock_switches;
            counts[2] += r.voltage_switches;
        }
        let mut per_policy: BTreeMap<String, PolicyMetrics> = BTreeMap::new();
        for (policy, [cells, clocks, volts]) in groups.into_values() {
            let entry = per_policy
                .entry(policy.label())
                .or_insert_with_key(|label| PolicyMetrics {
                    policy: label.clone(),
                    ..Default::default()
                });
            entry.cells += cells;
            entry.clock_switches += clocks;
            entry.voltage_switches += volts;
        }
        RunMetrics {
            batch: batch.to_string(),
            total: stats.total as u64,
            executed: stats.executed as u64,
            cache_hits: stats.cache_hits as u64,
            journal_hits: stats.journal_hits as u64,
            failed: stats.failed as u64,
            quarantined: stats.quarantined as u64,
            retries: worker_totals.counter("retries"),
            workers: stats.workers as u64,
            sched_dropped,
            clock_switches,
            voltage_switches,
            wall_us: stats.elapsed_us,
            sim_us: worker_totals.counter("sim_us"),
            peak_rss_bytes: obs::peak_rss_bytes().unwrap_or(0),
            per_policy: per_policy.into_values().collect(),
            ..Default::default()
        }
    }

    /// The tail every run shares. Assembles the run's span profile —
    /// the calling thread first (draining it also scoops up any stages
    /// its experiment closed before the run), then `worker_spans` — folds
    /// the job latencies in `totals` and the profile's stages into
    /// `metrics`, finalizes it, and writes `metrics.json` (plus
    /// `profile.trace.json` when spans were collected) under
    /// `<state_root>/<batch>/` if the config asks for it.
    pub(crate) fn finish_run(
        &self,
        batch: &str,
        mut metrics: RunMetrics,
        totals: &WorkerMetrics,
        worker_spans: Vec<(String, obs::ThreadSpans)>,
    ) -> (RunMetrics, obs::Profile) {
        let mut profile = obs::Profile::default();
        let caller_spans = obs::span::drain();
        if !caller_spans.is_empty() {
            profile.threads.push(("caller".to_string(), caller_spans));
        }
        profile.threads.extend(worker_spans);

        metrics.set_job_latencies(totals.log_histogram("job_latency_us"));
        if !profile.is_empty() {
            let tree = profile.tree();
            metrics.set_stages(
                tree.stage_self_totals()
                    .iter()
                    .map(|(name, &ns)| (name.as_str(), ns)),
            );
        }
        metrics.finalize();

        if self.config.write_metrics {
            let dir = self.state_root().join(batch);
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(dir.join("metrics.json"), metrics.to_json()));
            if let Err(e) = write {
                obs::warn!("engine: could not write metrics.json for `{batch}`: {e}");
            }
            // The flame chart is wall-clock and profile-gated, so it
            // only exists when spans were actually collected — the
            // deterministic artifacts CI byte-diffs are untouched.
            if !profile.is_empty() {
                let json = obs::export_spans_chrome_json(&profile);
                if let Err(e) = std::fs::write(dir.join("profile.trace.json"), json) {
                    obs::warn!("engine: could not write profile.trace.json for `{batch}`: {e}");
                }
            }
        }
        (metrics, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkloadSpec;
    use crate::worker::panic_message;
    use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange, VoltageRule};
    use std::time::Duration;
    use workloads::Benchmark;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("engine-pool-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A small grid of genuinely distinct 2-second jobs.
    fn grid() -> Vec<JobSpec> {
        let mut specs = Vec::new();
        for bench in [Benchmark::Mpeg, Benchmark::Web] {
            for up in [SpeedChange::One, SpeedChange::Peg] {
                specs.push(JobSpec::new(
                    WorkloadSpec::Benchmark(bench),
                    PolicyDesc::interval(
                        PredictorDesc::Past,
                        Hysteresis::BEST,
                        up,
                        SpeedChange::Peg,
                    ),
                    2,
                    42,
                ));
            }
        }
        specs
    }

    #[test]
    fn one_worker_and_many_workers_agree_bit_for_bit() {
        let specs = grid();
        let serial = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let parallel = Engine::new(EngineConfig {
            jobs: 8,
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.stats.executed, specs.len());
        assert_eq!(parallel.stats.workers, specs.len().min(8));

        // Cache on, every spec twice: both copies miss the up-front
        // probe, so at 8 workers two of them store one key at once.
        let repeated: Vec<JobSpec> = specs.iter().chain(&specs).cloned().collect();
        let root = temp_root("agree");
        let mut cold_runs = Vec::new();
        for jobs in [1, 8] {
            let config = EngineConfig {
                jobs,
                use_cache: true,
                state_root: Some(root.join(jobs.to_string())),
                ..EngineConfig::hermetic()
            };
            let cold = Engine::new(config.clone()).run_batch("t", &repeated);
            assert!(cold.results.iter().all(Result::is_ok), "jobs={jobs}");
            let warm = Engine::new(config).run_batch("t", &repeated);
            assert_eq!(warm.stats.quarantined, 0, "jobs={jobs}");
            assert_eq!(warm.results, cold.results, "jobs={jobs}");
            cold_runs.push(cold.results);
        }
        assert_eq!(cold_runs[0], cold_runs[1]);
        assert_eq!(cold_runs[0][..specs.len()], serial.results[..]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_cache_skips_every_cell_and_matches_cold() {
        let root = temp_root("warm");
        let config = EngineConfig {
            jobs: 2,
            use_cache: true,
            state_root: Some(root.clone()),
            ..EngineConfig::hermetic()
        };
        let specs = grid();
        let cold = Engine::new(config.clone()).run_batch("t", &specs);
        assert_eq!(cold.stats.executed, specs.len());
        assert_eq!(cold.stats.cache_hits, 0);

        let warm = Engine::new(config).run_batch("t", &specs);
        assert_eq!(warm.stats.executed, 0, "warm run must simulate nothing");
        assert_eq!(warm.stats.cache_hits, specs.len());
        assert_eq!(warm.results, cold.results, "cache round trip is bit-exact");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_replays_journal_even_without_cache() {
        let root = temp_root("resume");
        let specs = grid();
        // Fake an interrupted run: journal holds the first two cells.
        let reference = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let state_dir = root.join("state");
        let mut j = Journal::open(&state_dir, "t").expect("open");
        for (spec, r) in specs.iter().zip(&reference.results).take(2) {
            j.record(spec.key(), r.as_ref().expect("reference ok"))
                .expect("record");
        }
        drop(j);

        let resumed = Engine::new(EngineConfig {
            resume: true,
            state_root: Some(root.clone()),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(resumed.stats.journal_hits, 2);
        assert_eq!(resumed.stats.executed, specs.len() - 2);
        assert_eq!(resumed.results, reference.results);
        // Completion cleared the journal.
        assert!(Journal::replay(&state_dir, "t").is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_batch_served_whole_leaves_no_journal() {
        let root = temp_root("served-whole");
        let config = EngineConfig {
            use_cache: true,
            state_root: Some(root.clone()),
            ..EngineConfig::hermetic()
        };
        let specs = grid();
        let cold = Engine::new(config.clone()).run_batch("t", &specs);
        let journal = Journal::path_for(&root.join("state"), "t");
        assert!(!journal.exists(), "a completed batch deletes its journal");

        // A stale journal, as a killed run leaves it, goes when a warm
        // batch serves every cell; none is created when there is none.
        std::fs::write(&journal, "torn").expect("stale journal");
        for round in ["stale journal", "no journal"] {
            let warm = Engine::new(config.clone()).run_batch("t", &specs);
            assert_eq!(warm.stats.cache_hits, specs.len(), "{round}");
            assert_eq!(warm.results, cold.results, "{round}");
            assert!(!journal.exists(), "{round}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = Engine::new(EngineConfig::hermetic()).run_batch("t", &[]);
        assert!(out.results.is_empty());
        assert_eq!(out.stats.total, 0);
        assert_eq!(out.stats.executed, 0);
    }

    #[test]
    fn injected_panics_are_retried_to_success() {
        // Every job panics on attempts 1 and 2 and runs clean on 3;
        // with two retries the batch must complete with full results
        // identical to an unfaulted run.
        let specs = grid();
        let clean = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let chaotic = Engine::new(EngineConfig {
            jobs: 4,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: 2,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(chaotic.faults.panics, 2 * specs.len() as u64);
        assert_eq!(chaotic.stats.failed, 0);
        assert_eq!(
            chaotic.results, clean.results,
            "retries must not change bits"
        );
    }

    #[test]
    fn exhausted_retries_fail_the_cell_not_the_batch() {
        // Unbounded panics against a zero-retry budget: every cell
        // fails, the batch still returns, and the failure report says
        // what happened. This is the regression test for the old
        // `.expect("engine worker panicked")` abort.
        let root = temp_root("fail");
        let specs = grid();
        let out = Engine::new(EngineConfig {
            jobs: 2,
            max_retries: 0,
            state_root: Some(root.clone()),
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: u32::MAX,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(out.stats.failed, specs.len());
        assert_eq!(out.stats.executed, 0);
        assert_eq!(out.failures().len(), specs.len());
        for (i, f) in out.failures().into_iter().enumerate() {
            assert_eq!(f.index, i);
            assert_eq!(f.attempts, 1, "zero retries = one attempt");
            assert!(f.message.contains("injected fault"), "{}", f.message);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_failure_keeps_journal_for_resume() {
        // One seeded fault plan fails some cells; the journal must
        // survive with the successes so a --resume run retries only
        // the failures and converges to the clean result. At 4 jobs
        // several workers append to the journal.
        let specs = grid();
        let clean = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        for jobs in [1, 4] {
            let root = temp_root(&format!("partial-{jobs}"));

            // Panic probability 1 but only for the first attempt, with no
            // retry budget: every executed cell fails this round.
            let first = Engine::new(EngineConfig {
                jobs,
                max_retries: 0,
                state_root: Some(root.clone()),
                faults: Some(FaultPlan {
                    panic: 1.0,
                    max_panics: 1,
                    ..FaultPlan::default()
                }),
                ..EngineConfig::hermetic()
            })
            .run_batch("t", &specs);
            assert!(first.stats.failed == specs.len());

            // Resume with a clean engine: failures re-run and succeed.
            let resumed = Engine::new(EngineConfig {
                jobs,
                resume: true,
                state_root: Some(root.clone()),
                ..EngineConfig::hermetic()
            })
            .run_batch("t", &specs);
            assert_eq!(resumed.stats.failed, 0);
            assert_eq!(resumed.results, clean.results);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn metrics_track_cache_hits_across_cold_and_warm_runs() {
        let root = temp_root("metrics");
        let config = EngineConfig {
            jobs: 2,
            use_cache: true,
            state_root: Some(root.clone()),
            write_metrics: true,
            ..EngineConfig::hermetic()
        };
        let specs = grid();
        let cold = Engine::new(config.clone()).run_batch("t", &specs);
        assert_eq!(cold.metrics.executed, specs.len() as u64);
        assert_eq!(cold.metrics.cache_hits, 0);
        assert_eq!(cold.metrics.cache_hit_rate, 0.0);
        assert!(cold.metrics.sim_us > 0, "simulated time was accounted");
        // Per-policy buckets cover every cell exactly once.
        let cells: u64 = cold.metrics.per_policy.iter().map(|p| p.cells).sum();
        assert_eq!(cells, specs.len() as u64);

        let warm = Engine::new(config).run_batch("t", &specs);
        assert_eq!(warm.metrics.executed, 0);
        assert_eq!(warm.metrics.cache_hits, specs.len() as u64);
        assert_eq!(warm.metrics.cache_hit_rate, 1.0);
        // Cached results still contribute to the data-level aggregates.
        assert_eq!(warm.metrics.clock_switches, cold.metrics.clock_switches);
        assert_eq!(warm.metrics.per_policy, cold.metrics.per_policy);

        // write_metrics left the rollup on disk, reflecting the warm run.
        let json = std::fs::read_to_string(root.join("t").join("metrics.json"))
            .expect("metrics.json written");
        assert!(json.contains("\"cache_hits\": 4"), "{json}");
        assert!(json.contains("\"executed\": 0"), "{json}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn per_policy_metrics_are_pinned_and_skip_failed_cells() {
        // One policy repeated across two workloads, a second policy
        // whose label matches the first (a voltage rule is not part of
        // the label), a third with one failed cell, and the constant
        // baseline. The failed cell is the only one left out of the
        // journal a resumed run replays, so it alone runs, under a
        // panic plan with no retries.
        let peg = PolicyDesc::best_from_paper();
        let peg_low_v = peg.with_voltage_rule(VoltageRule::default());
        let one_up = PolicyDesc::interval(
            PredictorDesc::Past,
            Hysteresis::BEST,
            SpeedChange::One,
            SpeedChange::Peg,
        )
        .with_voltage_rule(VoltageRule::default());
        let cell = |b, p| JobSpec::new(WorkloadSpec::Benchmark(b), p, 2, 42);
        let specs = [
            cell(Benchmark::Mpeg, peg),
            cell(Benchmark::Web, peg),
            cell(Benchmark::Mpeg, one_up),
            cell(Benchmark::Web, one_up),
            cell(Benchmark::Mpeg, PolicyDesc::constant_top()),
            cell(Benchmark::Web, peg_low_v),
        ];
        const FAILED: usize = 2;
        let clean = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let root = temp_root("per-policy");
        let mut j = Journal::open(&root.join("state"), "t").expect("open");
        for (i, (spec, r)) in specs.iter().zip(&clean.results).enumerate() {
            if i != FAILED {
                j.record(spec.key(), r.as_ref().expect("clean run"))
                    .expect("record");
            }
        }
        drop(j);
        let out = Engine::new(EngineConfig {
            resume: true,
            max_retries: 0,
            state_root: Some(root.clone()),
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: u32::MAX,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(out.stats.journal_hits, specs.len() - 1);
        assert_eq!(out.failures().len(), 1);
        assert_eq!(out.failures()[0].index, FAILED);

        let pinned = |policy: &str, cells, clock_switches, voltage_switches| PolicyMetrics {
            policy: policy.to_string(),
            cells,
            clock_switches,
            voltage_switches,
        };
        assert_eq!(
            out.metrics.per_policy,
            [
                pinned("PAST one-peg >98%/<93%", 1, 11, 2),
                pinned("PAST peg-peg >98%/<93%", 3, 35, 2),
                pinned("constant step 10 @ 1500 mV", 1, 0, 0),
            ]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_count_retries_from_injected_panics() {
        let specs = grid();
        let chaotic = Engine::new(EngineConfig {
            jobs: 4,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: 2,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(chaotic.stats.failed, 0);
        assert_eq!(
            chaotic.metrics.retries,
            2 * specs.len() as u64,
            "two injected panics per cell = two retries per cell"
        );
    }

    #[test]
    fn watchdog_flags_a_stalled_batch_cell() {
        let _serial = crate::worker::watchdog_test_serial();
        let specs: Vec<JobSpec> = grid().into_iter().take(2).collect();
        obs::watchdog::set_active(true);
        let (out, stalls) = std::thread::scope(|s| {
            let run = s.spawn(|| {
                Engine::new(EngineConfig {
                    faults: Some(FaultPlan {
                        stall: 1.0,
                        stall_ms: 400,
                        ..FaultPlan::default()
                    }),
                    ..EngineConfig::hermetic()
                })
                .run_batch("t", &specs)
            });
            // Patrol with a 50 ms threshold while the 400 ms stalls run.
            let mut stalls = Vec::new();
            for _ in 0..200 {
                stalls.extend(obs::watchdog::patrol(50));
                if run.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            (run.join().expect("batch finishes"), stalls)
        });
        obs::watchdog::set_active(false);
        assert_eq!(out.stats.executed, 2, "stalls delay, never fail");
        assert_eq!(out.faults.stalls, 2);
        let keys: Vec<String> = specs.iter().map(|s| s.key().to_string()).collect();
        assert!(
            stalls.iter().any(|st| keys.contains(&st.job)),
            "watchdog must flag the stalled batch worker live, naming its cell: {stalls:?}"
        );
    }

    #[test]
    fn expect_all_panics_with_consolidated_report() {
        let specs = grid();
        let out = Engine::new(EngineConfig {
            max_retries: 0,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: u32::MAX,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| out.expect_all()))
            .expect_err("must panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("4 of 4 jobs failed"), "{msg}");
        assert!(msg.contains("cell #0"), "{msg}");
    }
}
