//! The fleet run driver: population → streaming engine → sketches.
//!
//! [`run`] streams a [`PopulationConfig`]'s devices through
//! [`Engine::run_stream`] — each worker builds the specs it claims
//! with [`PopulationConfig::spec_for`] — folding every device's
//! [`JobResult`] into a [`FleetAccum`] with [`fold_result`]. The fold touches only
//! commutative-merge sketches, so the accumulator — and its summary's
//! [`encode`](FleetSummary::encode) bytes — is identical at any
//! `--jobs` and under injected chaos (retries absorb the panics).
//!
//! Besides the whole-run [`FleetSummary`], the fold maintains a
//! windowed timeline: the engine slices each device's run into
//! [`TIMELINE_WINDOWS`] equal sim-time windows, and [`fold_result`]
//! merges the per-window deltas into one [`FleetWindow`] sketch per
//! window. The timeline answers "how did fleet energy, deadline misses
//! and battery drain evolve over simulated time", not just "what were
//! the totals".

use engine::{Engine, JobResult, JobSpec, StreamOutcome, WindowSample};
use sim_core::FleetSummary;

use crate::population::PopulationConfig;

/// A fleet run's outcome: the population accumulator plus the engine's
/// streaming stats, failure sample, metrics and profile.
pub type FleetOutcome = StreamOutcome<FleetAccum>;

/// Number of equal sim-time windows the fleet timeline slices each
/// device run into. Twenty windows resolve the shape of a drain curve
/// without bloating the CSV; the value is part of the deterministic
/// artifact contract, so bump it deliberately.
pub const TIMELINE_WINDOWS: u32 = 20;

/// Clock-switch rate (per simulated second) above which a device is
/// counted as oscillating. The paper's pathological AVG_N traces bounce
/// the clock every few quanta — tens of switches per second — while
/// settled policies switch well under twice a second, so the threshold
/// separates the regimes with a wide margin on both sides.
pub const OSCILLATION_SWITCHES_PER_SEC: f64 = 2.0;

/// One sim-time window of the fleet timeline: the merge of every
/// device's delta for that slice of simulated time.
///
/// Metrics recorded per device and window: `energy_j`, `misses`,
/// `utilization` (busy time over the window span) and, for
/// battery-powered devices, `battery_drain_pct` (the window's energy as
/// a percentage of the pack's capacity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetWindow {
    /// Window start, microseconds of simulated time.
    pub start_us: u64,
    /// Window end (exclusive), microseconds of simulated time.
    pub end_us: u64,
    /// Per-device deltas for this window, merged fleet-wide.
    pub summary: FleetSummary,
}

/// The fold accumulator: whole-run summary plus the windowed timeline.
///
/// Both halves are built purely from commutative sketch merges, so the
/// accumulator is deterministic at any worker count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetAccum {
    /// Whole-run, whole-fleet summary (one record per device).
    pub summary: FleetSummary,
    /// Sim-time windows, in order; empty when the engine ran without a
    /// timeline (`timeline_windows == 0`).
    pub windows: Vec<FleetWindow>,
}

impl FleetAccum {
    /// Merges another accumulator in, index-wise on windows.
    pub fn merge(&mut self, other: &FleetAccum) {
        self.summary.merge(&other.summary);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize(other.windows.len(), FleetWindow::default());
        }
        for (into, from) in self.windows.iter_mut().zip(&other.windows) {
            // Window boundaries are a pure function of the shared
            // device duration, so any non-empty side defines them.
            if into.end_us == 0 {
                into.start_us = from.start_us;
                into.end_us = from.end_us;
            }
            into.summary.merge(&from.summary);
        }
    }
}

/// Folds one device's result — and its per-window timeline deltas —
/// into the fleet accumulator.
///
/// Whole-run metrics recorded per device: `energy_j`, `mean_freq_mhz`,
/// `mean_utilization`, `misses`, `max_lateness_us`,
/// `clock_switches_per_sec`, an `oscillating` 0/1 indicator (its mean
/// is the fleet's oscillation incidence), and `battery_remaining` for
/// battery-powered devices (mains devices are skipped, so the sketch's
/// mean is over devices that actually have a battery).
pub fn fold_result(
    acc: &mut FleetAccum,
    _device: u64,
    spec: &JobSpec,
    r: &JobResult,
    timeline: &[WindowSample],
) {
    let secs = (spec.duration.as_micros() as f64 / 1e6).max(1e-9);
    let switches_per_sec = r.clock_switches as f64 / secs;
    acc.summary.record("energy_j", r.energy_j);
    acc.summary.record("mean_freq_mhz", r.mean_freq_mhz);
    acc.summary.record("mean_utilization", r.mean_utilization);
    acc.summary.record("misses", r.misses as f64);
    acc.summary
        .record("max_lateness_us", r.max_lateness_us as f64);
    acc.summary
        .record("clock_switches_per_sec", switches_per_sec);
    acc.summary.record(
        "oscillating",
        if switches_per_sec > OSCILLATION_SWITCHES_PER_SEC {
            1.0
        } else {
            0.0
        },
    );
    if r.battery_remaining >= 0.0 {
        acc.summary.record("battery_remaining", r.battery_remaining);
    }
    acc.summary.bump_devices();

    if acc.windows.len() < timeline.len() {
        acc.windows.resize(timeline.len(), FleetWindow::default());
    }
    // 1 mWh = 3.6 J; zero capacity means mains-powered.
    let capacity_j = f64::from(spec.hw.battery_mwh) * 3.6;
    for (win, sample) in acc.windows.iter_mut().zip(timeline) {
        win.start_us = sample.start_us;
        win.end_us = sample.end_us;
        win.summary.record("energy_j", sample.energy_j);
        win.summary.record("misses", sample.misses as f64);
        let span_us = sample.end_us.saturating_sub(sample.start_us).max(1);
        win.summary
            .record("utilization", sample.busy_us as f64 / span_us as f64);
        if capacity_j > 0.0 {
            win.summary
                .record("battery_drain_pct", sample.energy_j / capacity_j * 100.0);
        }
        win.summary.bump_devices();
    }
}

/// Streams the whole population through the engine and returns the
/// merged accumulator. `batch` names the run for metrics/progress
/// output. The timeline half of the accumulator is only populated when
/// the engine's `timeline_windows` is non-zero.
pub fn run(engine: &Engine, batch: &str, population: &PopulationConfig) -> FleetOutcome {
    engine.run_stream(
        batch,
        population.devices,
        |device| population.spec_for(device),
        fold_result,
        |into, from| into.merge(&from),
    )
}

/// Renders the human-readable digest the `repro fleet` command prints:
/// one line per metric with count, mean and extremes pulled from the
/// sketches.
pub fn digest(summary: &FleetSummary) -> String {
    let mut out = format!(
        "fleet: {} devices summarized, {} failed\n",
        summary.devices(),
        summary.failed()
    );
    for name in summary.metric_names().collect::<Vec<_>>() {
        let h = summary.metric(name).expect("listed metric exists");
        out.push_str(&format!(
            "  {name:<24} n={:<8} mean={:<12.4} min={:<12.4} p50={:<12.4} max={:.4}\n",
            h.count(),
            h.mean().unwrap_or(0.0),
            h.min().unwrap_or(0.0),
            h.percentile(0.5).unwrap_or(0.0),
            h.max().unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{EngineConfig, FaultPlan};

    fn outcome(jobs: usize, faults: Option<FaultPlan>) -> FleetOutcome {
        outcome_windowed(jobs, faults, 0)
    }

    fn outcome_windowed(jobs: usize, faults: Option<FaultPlan>, windows: u32) -> FleetOutcome {
        let engine = Engine::new(EngineConfig {
            jobs,
            faults,
            timeline_windows: windows,
            ..EngineConfig::hermetic()
        });
        run(&engine, "fleet-test", &PopulationConfig::new(10, 99))
    }

    #[test]
    fn summary_is_byte_identical_across_worker_counts() {
        let one = outcome(1, None);
        assert_eq!(one.stats.executed, 10);
        assert_eq!(one.acc.summary.devices(), 10);
        assert!(one.acc.windows.is_empty(), "no timeline unless asked");
        // Battery metric only covers battery-powered devices.
        let battery_n = one
            .acc
            .summary
            .metric("battery_remaining")
            .map_or(0, |h| h.count());
        assert!(battery_n <= 10);
        assert_eq!(one.acc.summary.metric("energy_j").unwrap().count(), 10);
        for jobs in [4, 8] {
            assert_eq!(
                one.acc.summary.encode(),
                outcome(jobs, None).acc.summary.encode(),
                "jobs=1 vs jobs={jobs}"
            );
        }
    }

    #[test]
    fn summary_is_byte_identical_under_injected_chaos() {
        let clean = outcome(1, None);
        let chaotic = outcome(
            4,
            Some(FaultPlan {
                panic: 1.0,
                max_panics: 2,
                ..FaultPlan::default()
            }),
        );
        assert_eq!(chaotic.stats.failed, 0, "retries absorb injected panics");
        assert_eq!(clean.acc.summary.encode(), chaotic.acc.summary.encode());
    }

    #[test]
    fn timeline_windows_merge_deterministically() {
        let one = outcome_windowed(1, None, TIMELINE_WINDOWS);
        assert_eq!(one.acc.windows.len(), TIMELINE_WINDOWS as usize);
        for (i, win) in one.acc.windows.iter().enumerate() {
            assert!(win.start_us < win.end_us, "window {i} has a span");
            assert_eq!(win.summary.devices(), 10, "window {i} saw every device");
            assert_eq!(win.summary.metric("energy_j").unwrap().count(), 10);
            assert_eq!(win.summary.metric("utilization").unwrap().count(), 10);
        }
        // Windows tile the shared device horizon without gaps.
        for pair in one.acc.windows.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
        // Battery drain only covers battery-powered devices.
        let battery_n = one.acc.windows[0]
            .summary
            .metric("battery_drain_pct")
            .map_or(0, |h| h.count());
        assert!(battery_n > 0 && battery_n <= 10);
        // The timeline, like the summary, is worker-count independent.
        let four = outcome_windowed(4, None, TIMELINE_WINDOWS);
        assert_eq!(one.acc.summary.encode(), four.acc.summary.encode());
        assert_eq!(one.acc.windows.len(), four.acc.windows.len());
        for (a, b) in one.acc.windows.iter().zip(&four.acc.windows) {
            assert_eq!(a.start_us, b.start_us);
            assert_eq!(a.end_us, b.end_us);
            assert_eq!(a.summary.encode(), b.summary.encode());
        }
    }

    #[test]
    fn timeline_does_not_perturb_the_summary() {
        let plain = outcome(1, None);
        let windowed = outcome_windowed(1, None, TIMELINE_WINDOWS);
        assert_eq!(
            plain.acc.summary.encode(),
            windowed.acc.summary.encode(),
            "the timeline is derived observation; the summary must not move"
        );
    }

    #[test]
    fn oscillation_indicator_is_a_zero_one_metric() {
        let out = outcome(2, None);
        let h = out
            .acc
            .summary
            .metric("oscillating")
            .expect("indicator recorded");
        assert_eq!(h.count(), 10);
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        assert!(min == 0.0 || min == 1.0);
        assert!(max == 0.0 || max == 1.0);
    }

    #[test]
    fn digest_lists_every_metric() {
        let out = outcome(2, None);
        let digest = digest(&out.acc.summary);
        assert!(digest.starts_with("fleet: 10 devices"));
        for name in out.acc.summary.metric_names() {
            assert!(digest.contains(name), "digest missing {name}");
        }
    }
}
