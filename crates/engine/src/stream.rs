//! Streaming execution: unbounded device populations at bounded memory.
//!
//! [`Engine::run_batch`] materializes its results — one slot per spec —
//! which is right for grids of hundreds of cells and fatal for
//! populations of millions of devices. [`Engine::run_stream`] is the
//! other regime: a device is a pure function of its index, so the
//! engine's one worker pool (`crate::worker`) hands each worker the
//! next device index from a shared atomic counter, the worker builds
//! that device's spec itself, and folds the result into its own
//! accumulator the moment it exists. Nothing crosses between threads
//! per device but one `fetch_add`; the shards merge when the workers
//! join. Peak memory is `O(workers × accumulator size)` — independent
//! of how many devices stream through.
//!
//! # Determinism contract
//!
//! Which worker simulates which device depends on scheduling, so the
//! final accumulator is reached by folding an arbitrary partition of
//! the stream in arbitrary merge order. The caller's fold/merge must
//! therefore be **order- and partition-independent** — fold into a
//! commutative-merge structure like [`sim_core::FleetSummary`], whose
//! integer-exact sketches make any partition merge to byte-identical
//! state. Under that contract the outcome is bit-identical at any
//! `--jobs`, which the fleet suite verifies byte-for-byte. The retained
//! failure sample is deterministic too: the lowest-indexed failures.
//!
//! # What streaming deliberately skips
//!
//! No result cache and no journal: a million per-device cache files
//! would trade the bounded-memory win for an unbounded-disk loss, and
//! population runs are cheap to re-run *because* they never touch disk.
//! This also makes stream output trivially identical across cache
//! hit/miss state — there is no cache to hit. Failure containment is
//! kept: every device runs through the same containment core as a
//! batch cell (heartbeat, injected stalls and panics, `catch_unwind`,
//! retries), with failed devices counted (and a bounded sample of
//! reports retained) rather than accumulated.

use std::time::Instant;

use kernel_sim::WindowSample;
use obs::{RunMetrics, WorkerMetrics};

use crate::engine::{Engine, JobFailure};
use crate::fault::{FaultInjector, FaultStats};
use crate::job::{JobResult, JobSpec};
use crate::worker::{Containment, Worker};

/// Failure reports retained verbatim; anything beyond is counted in
/// [`StreamStats::failed`] but not stored (a fully-failing million-
/// device run must not build a million-entry failure list).
const MAX_RETAINED_FAILURES: usize = 32;

/// What a streaming run processed and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Devices requested.
    pub total: u64,
    /// Devices simulated to completion.
    pub executed: u64,
    /// Devices that exhausted their retry budget.
    pub failed: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Worker threads that died outside the catch-unwind fence (engine
    /// bugs; their in-flight device, local accumulator and counts are
    /// lost).
    pub dead_workers: usize,
    /// Wall-clock time for the whole stream, µs.
    pub elapsed_us: u64,
}

impl StreamStats {
    /// Completed device simulations per wall-clock second — the number
    /// the BENCH gate tracks as `fleet_devices_per_sec`.
    pub fn devices_per_sec(&self) -> f64 {
        sim_core::rate_per_sec(self.executed, self.elapsed_us)
    }
}

/// Accumulated result of one streaming run.
#[derive(Debug)]
pub struct StreamOutcome<A> {
    /// The merged accumulator (worker shards merged in worker order —
    /// byte-stable only if the caller's merge is order-independent;
    /// see the module docs).
    pub acc: A,
    /// Counts and throughput.
    pub stats: StreamStats,
    /// The up to [`MAX_RETAINED_FAILURES`] lowest-indexed failure
    /// reports, in device order — the same sample at any worker count;
    /// `stats.failed` is the true count.
    pub failures: Vec<JobFailure>,
    /// Faults the configured plan actually injected.
    pub faults: FaultStats,
    /// The run's metrics rollup (written as `metrics.json` when the
    /// engine config asks for it).
    pub metrics: RunMetrics,
    /// Merged per-worker counters and histograms.
    pub worker_metrics: WorkerMetrics,
    /// Span profile: the calling thread first, then workers.
    pub profile: obs::Profile,
}

/// One worker's share of the stream, handed back at join.
#[derive(Default)]
struct Shard<A> {
    acc: A,
    executed: u64,
    failed: u64,
    /// The worker's first failures. Each worker claims indices in
    /// increasing order, so these are its lowest-indexed ones, and the
    /// union over workers holds the stream's lowest.
    failures: Vec<JobFailure>,
}

impl Engine {
    /// Streams devices `0..devices` through the worker pool: each
    /// worker claims the next index, builds its spec with `spec_for`,
    /// folds the result into a per-worker accumulator, and the shards
    /// merge at the end.
    ///
    /// `spec_for` must be a pure function of the index — it runs on
    /// whichever worker claims the device. `fold` is called once per
    /// completed device with the device's index, spec, result, and
    /// windowed timeline (empty unless
    /// [`crate::EngineConfig::timeline_windows`] is nonzero); `merge`
    /// folds one worker's accumulator into another. Both must be
    /// order-independent for deterministic output (module docs).
    pub fn run_stream<A, G, F, M>(
        &self,
        batch: &str,
        devices: u64,
        spec_for: G,
        fold: F,
        merge: M,
    ) -> StreamOutcome<A>
    where
        A: Default + Send,
        G: Fn(u64) -> JobSpec + Sync,
        F: Fn(&mut A, u64, &JobSpec, &JobResult, &[WindowSample]) + Sync,
        M: Fn(&mut A, A),
    {
        let started = Instant::now();
        let faults = FaultInjector::new(self.config().faults);
        let core = Containment::new(
            &faults,
            self.config().max_retries,
            self.config().timeline_windows,
        );
        let live = &core.live;
        let workers = self.worker_count().max(1);
        live.devices_remaining.set(devices as i64);

        let report = |done: u64| {
            let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
            obs::info!("[{batch}] {done} devices streamed — {rate:.0} devices/s");
        };
        let progress = self
            .config()
            .progress
            .then_some(&report as &(dyn Fn(u64) + Sync));
        let pooled = core.pool(
            workers,
            devices,
            progress,
            |w: &mut Worker<Shard<A>>, index| {
                live.devices_remaining.dec();
                let spec = spec_for(index);
                let job = w.run(&spec);
                let shard = &mut w.state;
                match job.outcome {
                    Ok((result, timeline)) => {
                        fold(&mut shard.acc, index, &spec, &result, &timeline);
                        shard.executed += 1;
                    }
                    Err(message) => {
                        shard.failed += 1;
                        let failure = JobFailure {
                            index: index as usize,
                            key: spec.key(),
                            label: spec.label(),
                            attempts: job.attempts,
                            message,
                        };
                        obs::error!("engine: {failure}");
                        if shard.failures.len() < MAX_RETAINED_FAILURES {
                            shard.failures.push(failure);
                        } else {
                            live.failures_dropped.inc();
                        }
                    }
                }
            },
        );

        let mut acc = A::default();
        let (mut executed, mut failed) = (0u64, 0u64);
        let mut failures = Vec::new();
        for shard in pooled.states {
            merge(&mut acc, shard.acc);
            executed += shard.executed;
            failed += shard.failed;
            failures.extend(shard.failures);
        }
        // Workers counted their own overflow as dropped live; the merge
        // drops the rest.
        let kept_by_workers = failures.len();
        failures.sort_by_key(|f| f.index);
        failures.truncate(MAX_RETAINED_FAILURES);
        live.failures_dropped
            .add((kept_by_workers - failures.len()) as u64);
        let failures_dropped = failed - failures.len() as u64;

        let stats = StreamStats {
            total: devices,
            executed,
            failed,
            workers,
            dead_workers: pooled.dead,
            elapsed_us: started.elapsed().as_micros() as u64,
        };
        if self.config().progress {
            obs::info!(
                "[{batch}] stream done: {} devices in {:.1}s on {} worker(s) — \
                 {:.0} devices/s, {} failed",
                stats.total,
                stats.elapsed_us as f64 / 1e6,
                stats.workers,
                stats.devices_per_sec(),
                stats.failed,
            );
        }

        let metrics = RunMetrics {
            batch: batch.to_string(),
            total: stats.total,
            executed: stats.executed,
            failed: stats.failed,
            failures_dropped,
            retries: pooled.metrics.counter("retries"),
            workers: stats.workers as u64,
            wall_us: stats.elapsed_us,
            sim_us: pooled.metrics.counter("sim_us"),
            peak_rss_bytes: obs::peak_rss_bytes().unwrap_or(0),
            ..Default::default()
        };
        let (metrics, profile) = self.finish_run(batch, metrics, &pooled.metrics, pooled.spans);
        StreamOutcome {
            acc,
            stats,
            failures,
            faults: faults.stats(),
            metrics,
            worker_metrics: pooled.metrics,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fault::FaultPlan;
    use crate::job::WorkloadSpec;
    use policies::PolicyDesc;
    use sim_core::FleetSummary;
    use std::time::Duration;
    use workloads::Benchmark;

    /// Device `i` of a stream of distinct half-second jobs.
    fn spec_at(i: u64) -> JobSpec {
        let mut spec = JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Web),
            PolicyDesc::best_from_paper(),
            1,
            1000 + i,
        );
        spec.duration = sim_core::SimDuration::from_millis(500);
        spec
    }

    fn summarize(config: EngineConfig, n: u64) -> StreamOutcome<FleetSummary> {
        Engine::new(config).run_stream(
            "stream-test",
            n,
            spec_at,
            |acc: &mut FleetSummary, _i, _spec, r, _tl| {
                acc.record("energy_j", r.energy_j);
                acc.record("misses", r.misses as f64);
                acc.bump_devices();
            },
            |into, from| into.merge(&from),
        )
    }

    #[test]
    fn stream_folds_every_device_exactly_once() {
        let out = summarize(EngineConfig::hermetic(), 12);
        assert_eq!(out.stats.total, 12);
        assert_eq!(out.stats.executed, 12);
        assert_eq!(out.stats.failed, 0);
        assert_eq!(out.acc.devices(), 12);
        assert_eq!(out.acc.metric("energy_j").unwrap().count(), 12);
        assert_eq!(out.metrics.executed, 12);
        assert!(out.metrics.peak_rss_bytes > 0, "RSS probe wired in");
    }

    #[test]
    fn stream_is_byte_identical_across_worker_counts() {
        let one = summarize(EngineConfig::hermetic(), 16);
        for jobs in [4, 8] {
            let many = summarize(
                EngineConfig {
                    jobs,
                    ..EngineConfig::hermetic()
                },
                16,
            );
            assert_eq!(
                one.acc.encode(),
                many.acc.encode(),
                "jobs=1 vs jobs={jobs} must merge to identical bytes"
            );
        }
    }

    #[test]
    fn stream_survives_injected_panics_bit_for_bit() {
        let clean = summarize(EngineConfig::hermetic(), 10);
        let chaotic = summarize(
            EngineConfig {
                jobs: 4,
                faults: Some(FaultPlan {
                    panic: 1.0,
                    max_panics: 2,
                    ..FaultPlan::default()
                }),
                ..EngineConfig::hermetic()
            },
            10,
        );
        assert_eq!(chaotic.stats.failed, 0, "retries absorb the chaos");
        assert_eq!(chaotic.faults.panics, 2 * 10);
        assert_eq!(
            clean.acc.encode(),
            chaotic.acc.encode(),
            "chaos with retries must not change bits"
        );
    }

    #[test]
    fn exhausted_retries_count_failures_without_accumulating() {
        let out = summarize(
            EngineConfig {
                jobs: 2,
                max_retries: 0,
                faults: Some(FaultPlan {
                    panic: 1.0,
                    max_panics: u32::MAX,
                    ..FaultPlan::default()
                }),
                ..EngineConfig::hermetic()
            },
            50,
        );
        assert_eq!(out.stats.failed, 50);
        assert_eq!(out.stats.executed, 0);
        assert_eq!(out.acc.devices(), 0, "failed devices are not folded");
        // Failure retention is bounded even when everything fails —
        // and the drops are now *reported*, not silent.
        assert_eq!(out.failures.len(), MAX_RETAINED_FAILURES);
        assert_eq!(
            out.metrics.failures_dropped,
            50 - MAX_RETAINED_FAILURES as u64
        );
        assert!(out.metrics.to_json().contains("\"failures_dropped\": 18,"));
    }

    #[test]
    fn retained_failures_are_the_lowest_indices_at_any_worker_count() {
        let all_panic = |jobs| {
            summarize(
                EngineConfig {
                    jobs,
                    max_retries: 0,
                    faults: Some(FaultPlan {
                        panic: 1.0,
                        max_panics: u32::MAX,
                        ..FaultPlan::default()
                    }),
                    ..EngineConfig::hermetic()
                },
                50,
            )
        };
        let indices = |out: &StreamOutcome<FleetSummary>| -> Vec<usize> {
            out.failures.iter().map(|f| f.index).collect()
        };
        let one = all_panic(1);
        let four = all_panic(4);
        assert_eq!(
            indices(&one),
            (0..MAX_RETAINED_FAILURES).collect::<Vec<_>>()
        );
        assert_eq!(indices(&one), indices(&four), "jobs=1 vs jobs=4");
        assert_eq!(one.failures, four.failures, "whole reports match too");
        assert_eq!(
            four.metrics.failures_dropped,
            50 - MAX_RETAINED_FAILURES as u64
        );
    }

    #[test]
    fn a_failure_without_a_fault_plan_still_reports_its_key() {
        // No plan and no watchdog: the containment core never needs the
        // key for a healthy device, but a failed one is reported with it.
        let broken = |i: u64| spec_at(i).starting_at(200);
        let out = Engine::new(EngineConfig {
            max_retries: 0,
            ..EngineConfig::hermetic()
        })
        .run_stream(
            "stream-test",
            3,
            broken,
            |acc: &mut FleetSummary, _i, _spec, _r, _tl| acc.bump_devices(),
            |into, from| into.merge(&from),
        );
        assert_eq!(out.stats.failed, 3);
        for f in &out.failures {
            assert_eq!(f.key, broken(f.index as u64).key(), "device {}", f.index);
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let out = summarize(EngineConfig::hermetic(), 0);
        assert_eq!(out.stats.total, 0);
        assert_eq!(out.acc, FleetSummary::new());
        assert_eq!(out.stats.devices_per_sec(), 0.0);
        assert_eq!(out.metrics.failures_dropped, 0);
    }

    #[test]
    fn timeline_windows_reach_the_fold_without_changing_results() {
        let base = summarize(EngineConfig::hermetic(), 6);
        let out = Engine::new(EngineConfig {
            timeline_windows: 8,
            ..EngineConfig::hermetic()
        })
        .run_stream(
            "stream-test",
            6,
            spec_at,
            |acc: &mut (FleetSummary, Vec<usize>), _i, _spec, r, tl| {
                acc.0.record("energy_j", r.energy_j);
                acc.0.record("misses", r.misses as f64);
                acc.0.bump_devices();
                acc.1.push(tl.len());
            },
            |into, from| {
                into.0.merge(&from.0);
                into.1.extend(from.1);
            },
        );
        assert_eq!(out.acc.1.len(), 6, "every device carried a timeline");
        assert!(out.acc.1.iter().all(|&n| n == 8));
        assert_eq!(
            base.acc.encode(),
            out.acc.0.encode(),
            "the timeline is derived observation; results must not move"
        );
    }

    #[test]
    fn watchdog_flags_an_injected_stall() {
        let _serial = crate::worker::watchdog_test_serial();
        obs::watchdog::set_active(true);
        let (out, stalls) = std::thread::scope(|s| {
            let run = s.spawn(|| {
                summarize(
                    EngineConfig {
                        faults: Some(FaultPlan {
                            stall: 1.0,
                            stall_ms: 400,
                            ..FaultPlan::default()
                        }),
                        ..EngineConfig::hermetic()
                    },
                    2,
                )
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
            (run.join().expect("stream finishes"), stalls)
        });
        obs::watchdog::set_active(false);
        assert_eq!(out.stats.executed, 2, "stalls delay, never fail");
        assert_eq!(out.faults.stalls, 2);
        assert!(
            !stalls.is_empty(),
            "watchdog must flag the stalled worker live"
        );
        assert!(
            stalls.iter().all(|st| !st.job.is_empty()),
            "stall reports carry the in-flight job key"
        );
    }
}
