//! The §5.3 "comprehensive study": AVG_N × speed-setting × thresholds
//! across the workloads.
//!
//! "We conducted a comprehensive study and varied the value of N from 0
//! (the PAST policy) to 10 with each combination of the speed-setting
//! policies." The conclusions this sweep must reproduce:
//!
//! - "Although a given set of parameters can result in optimal
//!   performance for a single application, these tuned parameters will
//!   probably not work for other applications": Pering's 70 %/50 %
//!   thresholds save substantial energy on a light workload (Web) but
//!   nothing on MPEG, whose ~75 % utilization at full speed sits above
//!   the 70 % upper bound, so the clock never comes down;
//! - slow-reacting combinations (large N, one-step-up from a pegged-down
//!   clock) miss deadlines;
//! - the AVG_N policy "can be easily designed to ensure that very few
//!   deadlines will be missed, but this results in minimal energy
//!   savings".

use core::fmt::{self, Write as _};

use engine::{BatchStats, Engine, EngineConfig, JobSpec, WorkloadSpec};
use obs::RunMetrics;
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange};
use workloads::Benchmark;

use crate::report;

/// Bytes reserved per CSV row; a typical row is about 50.
const CSV_ROW_BYTES: usize = 64;

/// One sweep cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Workload.
    pub benchmark: Benchmark,
    /// AVG decay (0 = PAST).
    pub n: u32,
    /// Scale-up rule.
    pub up: SpeedChange,
    /// Scale-down rule.
    pub down: SpeedChange,
    /// Hysteresis band.
    pub thresholds: Hysteresis,
    /// Run energy, joules.
    pub energy_j: f64,
    /// Deadline misses beyond tolerance.
    pub misses: usize,
    /// Clock switches.
    pub switches: u64,
}

/// The sweep plus per-workload constant-top-speed baselines.
pub struct Sweep {
    /// All completed cells.
    pub cells: Vec<SweepCell>,
    /// `(benchmark, energy at constant 206.4 MHz)` baselines.
    pub baselines: Vec<(Benchmark, f64)>,
    /// Seconds simulated per cell.
    pub secs: u64,
    /// Failure reports for cells that produced no result. A sweep
    /// degrades cell-by-cell: one bad cell costs one row, not the
    /// grid. Empty on healthy runs.
    pub failed: Vec<String>,
}

/// Parameters of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workloads to cover.
    pub benchmarks: Vec<Benchmark>,
    /// N values.
    pub ns: Vec<u32>,
    /// Speed rules (used for both up and down, crossed).
    pub rules: Vec<SpeedChange>,
    /// Threshold pairs.
    pub thresholds: Vec<Hysteresis>,
    /// Seconds per run.
    pub secs: u64,
}

impl SweepConfig {
    /// A small sweep for tests and quick runs.
    pub fn quick() -> Self {
        SweepConfig {
            benchmarks: vec![Benchmark::Mpeg, Benchmark::Web],
            ns: vec![0, 3, 9],
            rules: vec![SpeedChange::One, SpeedChange::Peg],
            thresholds: vec![Hysteresis::PERING, Hysteresis::BEST],
            secs: 15,
        }
    }

    /// The paper's full grid: N ∈ 0..=10, all rule pairs, both
    /// threshold sets, all four workloads.
    pub fn full() -> Self {
        SweepConfig {
            benchmarks: Benchmark::ALL.to_vec(),
            ns: (0..=10).collect(),
            rules: vec![SpeedChange::One, SpeedChange::Double, SpeedChange::Peg],
            thresholds: vec![Hysteresis::PERING, Hysteresis::BEST],
            secs: 30,
        }
    }
}

/// The grid's job specs: per-workload constant-top baselines first,
/// then every sweep cell, in deterministic grid order.
pub fn specs(config: &SweepConfig, seed: u64) -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = config
        .benchmarks
        .iter()
        .map(|&b| {
            JobSpec::new(
                WorkloadSpec::Benchmark(b),
                PolicyDesc::constant_top(),
                config.secs,
                seed,
            )
        })
        .collect();
    for &b in &config.benchmarks {
        for &n in &config.ns {
            for &up in &config.rules {
                for &down in &config.rules {
                    for &th in &config.thresholds {
                        specs.push(JobSpec::new(
                            WorkloadSpec::Benchmark(b),
                            PolicyDesc::interval(PredictorDesc::AvgN(n), th, up, down),
                            config.secs,
                            seed,
                        ));
                    }
                }
            }
        }
    }
    specs
}

/// Runs the sweep on an explicit engine (the `repro` binary passes one
/// configured from `--jobs` / `--resume` / `--no-cache`).
pub fn run_with(eng: &Engine, config: &SweepConfig, seed: u64) -> (Sweep, BatchStats, RunMetrics) {
    let specs = {
        let _s = obs::span::enter("build_specs");
        specs(config, seed)
    };
    let outcome = eng.run_batch("sweep", &specs);

    let _collect_span = obs::span::enter("collect_results");
    let n_base = config.benchmarks.len();
    let mut failed: Vec<String> = Vec::new();
    let mut baselines: Vec<(Benchmark, f64)> = Vec::new();
    for (&b, r) in config.benchmarks.iter().zip(&outcome.results) {
        match r {
            Ok(r) => baselines.push((b, r.energy_j)),
            Err(f) => failed.push(format!("baseline for {}: {f}", b.name())),
        }
    }
    let mut results = outcome.results[n_base..].iter();
    let mut cells = Vec::with_capacity(specs.len() - n_base);
    let mut dropped_for_baseline = 0usize;
    for &b in &config.benchmarks {
        let has_baseline = baselines.iter().any(|(x, _)| *x == b);
        for &n in &config.ns {
            for &up in &config.rules {
                for &down in &config.rules {
                    for &th in &config.thresholds {
                        match results.next().expect("one result per cell") {
                            Ok(r) if has_baseline => cells.push(SweepCell {
                                benchmark: b,
                                n,
                                up,
                                down,
                                thresholds: th,
                                energy_j: r.energy_j,
                                misses: r.misses as usize,
                                switches: r.clock_switches,
                            }),
                            // Savings are relative to the baseline; a
                            // cell without one has no row.
                            Ok(_) => dropped_for_baseline += 1,
                            Err(f) => failed.push(f.to_string()),
                        }
                    }
                }
            }
        }
    }
    if dropped_for_baseline > 0 {
        failed.push(format!(
            "{dropped_for_baseline} completed cell(s) dropped because their \
             workload's baseline failed"
        ));
    }

    (
        Sweep {
            cells,
            baselines,
            secs: config.secs,
            failed,
        },
        outcome.stats,
        outcome.metrics,
    )
}

/// Runs the sweep in memory on all cores (no cache, no journal).
pub fn run(config: &SweepConfig, seed: u64) -> Sweep {
    run_with(&Engine::new(EngineConfig::in_memory()), config, seed).0
}

impl Sweep {
    /// Baseline energy for a benchmark.
    pub fn baseline(&self, b: Benchmark) -> f64 {
        self.baselines
            .iter()
            .find(|(x, _)| *x == b)
            .map(|(_, e)| *e)
            .expect("baseline present")
    }

    /// Relative energy saving of a cell vs the constant-top baseline.
    pub fn saving(&self, cell: &SweepCell) -> f64 {
        1.0 - cell.energy_j / self.baseline(cell.benchmark)
    }

    /// The best (largest-saving) zero-miss cell for a benchmark.
    pub fn best_safe(&self, b: Benchmark) -> Option<&SweepCell> {
        self.cells
            .iter()
            .filter(|c| c.benchmark == b && c.misses == 0)
            .min_by(|a, c| a.energy_j.total_cmp(&c.energy_j))
    }

    /// All cells as one CSV document — what [`save`](Self::save)
    /// writes. Public so tests can compare sweeps byte-for-byte
    /// without touching the results directory. Rows are formatted
    /// straight into the document, with no per-cell strings.
    pub fn csv(&self) -> String {
        const HEADER: &str = "benchmark,n,up,down,up_thresh,down_thresh,\
                              energy_j,saving,misses,switches\n";
        let mut out = String::with_capacity(HEADER.len() + CSV_ROW_BYTES * self.cells.len());
        out.push_str(HEADER);
        for c in &self.cells {
            writeln!(
                out,
                "{},{},{},{},{},{},{:.3},{:.4},{},{}",
                c.benchmark.name(),
                c.n,
                c.up.label(),
                c.down.label(),
                c.thresholds.up,
                c.thresholds.down,
                c.energy_j,
                self.saving(c),
                c.misses,
                c.switches,
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Writes all cells as CSV.
    pub fn save(&self) -> std::io::Result<()> {
        report::save_csv("sweep", "policy_sweep", &self.csv()).map(|_| ())
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Policy sweep: {} cells, {}s each (energy vs constant 206.4 MHz)",
            self.cells.len(),
            self.secs
        )?;
        let mut rows = Vec::new();
        for &(b, base) in &self.baselines {
            let best = self.best_safe(b);
            rows.push(vec![
                b.name().to_string(),
                format!("{base:.1} J"),
                match best {
                    Some(c) => format!(
                        "AVG_{} {}-{} {} -> {:.1} J ({:+.1}%)",
                        c.n,
                        c.up.label(),
                        c.down.label(),
                        c.thresholds,
                        c.energy_j,
                        -self.saving(c) * 100.0
                    ),
                    None => "no zero-miss cell".to_string(),
                },
            ]);
        }
        f.write_str(&report::render_table(
            &["workload", "constant-top energy", "best zero-miss policy"],
            &rows,
        ))?;
        if !self.failed.is_empty() {
            writeln!(
                f,
                "WARNING: {} cell(s) produced no result:",
                self.failed.len()
            )?;
            for msg in &self.failed {
                writeln!(f, "  {msg}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static Sweep {
        use std::sync::OnceLock;
        static CELL: OnceLock<Sweep> = OnceLock::new();
        CELL.get_or_init(|| run(&SweepConfig::quick(), 1))
    }

    #[test]
    fn pering_thresholds_do_not_transfer_from_web_to_mpeg() {
        // "Although a given set of parameters can result in optimal
        // performance for a single application, these tuned parameters
        // will probably not work for other applications": the 70%/50%
        // bounds save a lot on the light Web workload but only scraps
        // on MPEG, whose utilization at full speed straddles the 70%
        // bound.
        let s = sweep();
        let best = |b: Benchmark| {
            s.cells
                .iter()
                .filter(|c| c.benchmark == b && c.thresholds == Hysteresis::PERING && c.misses == 0)
                .map(|c| s.saving(c))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let web = best(Benchmark::Web);
        let mpeg = best(Benchmark::Mpeg);
        assert!(
            web > 0.10,
            "best zero-miss Web saving = {:.1}%",
            web * 100.0
        );
        assert!(
            mpeg < web / 2.0,
            "MPEG saving {:.1}% not far below Web {:.1}%",
            mpeg * 100.0,
            web * 100.0
        );
    }

    #[test]
    fn pering_thresholds_save_a_lot_on_web() {
        // The same parameters are great for a light workload — "tuned
        // parameters will probably not work for other applications".
        let s = sweep();
        let best_web = s
            .cells
            .iter()
            .filter(|c| {
                c.benchmark == Benchmark::Web && c.thresholds == Hysteresis::PERING && c.misses == 0
            })
            .map(|c| s.saving(c))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_web > 0.10,
            "best Web saving = {:.1}%",
            best_web * 100.0
        );
    }

    #[test]
    fn some_safe_policy_saves_energy_on_mpeg() {
        let s = sweep();
        let best = s.best_safe(Benchmark::Mpeg).expect("a zero-miss cell");
        assert!(
            s.saving(best) > 0.01,
            "best MPEG saving = {:.2}%",
            s.saving(best) * 100.0
        );
    }

    #[test]
    fn sluggish_scale_up_misses_deadlines_somewhere() {
        // One-step-up from a pegged-down clock with a laggy average is
        // the classic deadline killer.
        let s = sweep();
        let miss_total: usize = s
            .cells
            .iter()
            .filter(|c| {
                c.benchmark == Benchmark::Mpeg
                    && c.up == SpeedChange::One
                    && c.down == SpeedChange::Peg
                    && c.thresholds == Hysteresis::BEST
            })
            .map(|c| c.misses)
            .sum();
        assert!(miss_total > 0, "no misses from one-up/peg-down cells");
    }

    #[test]
    fn all_cells_present() {
        let s = sweep();
        let cfg = SweepConfig::quick();
        let expect = cfg.benchmarks.len()
            * cfg.ns.len()
            * cfg.rules.len()
            * cfg.rules.len()
            * cfg.thresholds.len();
        assert_eq!(s.cells.len(), expect);
    }
}
