//! Figure 3: per-10 ms-quantum utilization vs time for the four
//! workloads, machine pinned at 206.4 MHz.
//!
//! The paper's observations this experiment must reproduce:
//!
//! - "the system is usually either completely idle or completely busy
//!   during a given quantum" (bimodality);
//! - MPEG renders each frame in "just under 7 scheduling quanta";
//! - behavior "is difficult to predict ... each application appears to
//!   run at a different time-scale".

use core::fmt;

use sim_core::{SimTime, TimeSeries};
use workloads::Benchmark;

use crate::report;
use crate::runner::{run_benchmark, RunSpec};

/// The captured utilization traces.
pub struct Fig3 {
    /// One `(benchmark, per-quantum utilization)` series per workload.
    pub series: Vec<(Benchmark, TimeSeries)>,
}

/// Window length the paper plots (30–40 s).
pub const WINDOW_SECS: u64 = 35;

/// Runs all four workloads at 206.4 MHz and captures their utilization.
pub fn run(seed: u64) -> Fig3 {
    let series = Benchmark::ALL
        .iter()
        .map(|&b| {
            let secs = WINDOW_SECS.min(b.nominal_duration().as_micros() / 1_000_000);
            let spec = RunSpec::new(b, 10).for_secs(secs).with_seed(seed);
            let report = run_benchmark(&spec, None);
            let mut s = report.utilization;
            s.name = format!("{}_utilization", b.name().to_lowercase());
            (b, s)
        })
        .collect();
    Fig3 { series }
}

impl Fig3 {
    /// Fraction of quanta that are extreme (≤5 % or ≥95 % busy) — the
    /// paper's bimodality observation.
    pub fn bimodality(&self, b: Benchmark) -> f64 {
        let s = self
            .series
            .iter()
            .find(|(x, _)| *x == b)
            .map(|(_, s)| s)
            .expect("benchmark present");
        let vals = s.values();
        let extreme = vals.iter().filter(|&&v| v <= 0.05 || v >= 0.95).count();
        extreme as f64 / vals.len() as f64
    }

    /// Writes the four series as CSVs.
    pub fn save(&self) -> std::io::Result<()> {
        let refs: Vec<&TimeSeries> = self.series.iter().map(|(_, s)| s).collect();
        report::save_series("fig3", &refs).map(|_| ())
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: utilization per 10ms quantum @ 206.4 MHz ({}s windows)",
            WINDOW_SECS
        )?;
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|(b, s)| {
                vec![
                    b.name().to_string(),
                    format!("{:.3}", s.mean().unwrap_or(0.0)),
                    format!("{:.2}", s.min().unwrap_or(0.0)),
                    format!("{:.2}", s.max().unwrap_or(0.0)),
                    format!("{:.0}%", self.bimodality(*b) * 100.0),
                    format!("{}", s.len()),
                ]
            })
            .collect();
        f.write_str(&report::render_table(
            &[
                "workload",
                "mean util",
                "min",
                "max",
                "extreme quanta",
                "quanta",
            ],
            &rows,
        ))
    }
}

/// MPEG's frame-scale structure: mean busy run length in quanta.
pub fn mean_busy_run_quanta(s: &TimeSeries) -> f64 {
    let vals = s.values();
    let mut runs = Vec::new();
    let mut len = 0u32;
    for v in vals {
        if v > 0.5 {
            len += 1;
        } else if len > 0 {
            runs.push(len);
            len = 0;
        }
    }
    if len > 0 {
        runs.push(len);
    }
    if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len() as f64
    }
}

/// Convenience: the window the paper plots (first 30 s).
pub fn plot_window(s: &TimeSeries) -> TimeSeries {
    s.window(SimTime::ZERO, SimTime::from_secs(30))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quanta_are_mostly_bimodal() {
        let fig = run(7);
        // Chess and Web spend most quanta fully busy or fully idle.
        assert!(fig.bimodality(Benchmark::Chess) > 0.7);
        assert!(fig.bimodality(Benchmark::Web) > 0.6);
    }

    #[test]
    fn mpeg_frames_span_about_seven_quanta() {
        // "Each frame is rendered in 67ms or just under 7 scheduling
        // quanta" — at 206.4 MHz the busy part is ~5 quanta per frame;
        // boundary quanta occasionally merge adjacent frames' runs, so
        // the mean busy run sits between one and two frame-widths, far
        // from both a quantum-scale and a second-scale pattern.
        let fig = run(7);
        let (_, mpeg) = fig
            .series
            .iter()
            .find(|(b, _)| *b == Benchmark::Mpeg)
            .unwrap();
        let run_len = mean_busy_run_quanta(mpeg);
        assert!(
            (3.0..=13.0).contains(&run_len),
            "mean busy run = {run_len} quanta"
        );
    }

    #[test]
    fn workloads_differ_in_mean_utilization() {
        let fig = run(7);
        let mean = |b: Benchmark| {
            fig.series
                .iter()
                .find(|(x, _)| *x == b)
                .unwrap()
                .1
                .mean()
                .unwrap()
        };
        // MPEG is the heavy one at ~0.75; Web the light one.
        assert!(mean(Benchmark::Mpeg) > 0.6);
        assert!(mean(Benchmark::Web) < 0.35);
        assert!(mean(Benchmark::Mpeg) > mean(Benchmark::Web) + 0.3);
    }

    #[test]
    fn display_renders_all_rows() {
        let fig = run(7);
        assert_eq!(fig.series.len(), 4, "one trace per application");
        let text = format!("{fig}");
        for b in Benchmark::ALL {
            assert!(text.contains(b.name()), "missing {}", b.name());
        }
    }
}
