//! §6 future work, implemented: kernel deadline support vs the
//! heuristics.
//!
//! The paper closes by proposing deadline mechanisms in Linux whose
//! semantics differ from an RTOS ("energy scheduling would prefer for
//! the deadline to be met as late as possible"). We realise that with
//! [`kernel_sim::deadline::DeadlineGovernor`] and compare it against
//! the paper's best heuristic on an MPEG-like periodic load whose
//! demand the application announces.

use core::fmt;

use itsy_hw::{ClockTable, DeviceSet};
use kernel_sim::deadline::{AnnouncementId, DeadlineGovernor, DeadlineRegistry, SharedRegistry};
use kernel_sim::{Kernel, KernelConfig, Machine, TaskAction, TaskBehavior, TaskCtx};
use policies::IntervalScheduler;
use sim_core::{SimDuration, SimTime};

use crate::report;
use crate::runner::TOLERANCE;

/// A periodic decoder that *announces* each frame's demand to the
/// deadline registry before decoding it — the cooperation the paper
/// says the kernel otherwise lacks.
struct AnnouncingDecoder {
    registry: Option<SharedRegistry>,
    work_cycles: f64,
    period: SimDuration,
    k: u64,
    pending: bool,
    live: Option<AnnouncementId>,
}

impl AnnouncingDecoder {
    fn new(registry: Option<SharedRegistry>, work_cycles: f64, period: SimDuration) -> Self {
        AnnouncingDecoder {
            registry,
            work_cycles,
            period,
            k: 0,
            pending: false,
            live: None,
        }
    }

    fn due(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros((self.k + 1) * self.period.as_micros())
    }

    /// Announced worst-case demand per frame: the announcer adds its
    /// own estimate margin over the mean.
    fn announce_next(&mut self, now: SimTime) {
        if let Some(reg) = &self.registry {
            self.live = Some(reg.lock().expect("registry poisoned").announce(
                self.work_cycles * 1.05,
                now,
                self.due(),
            ));
        }
    }
}

impl TaskBehavior for AnnouncingDecoder {
    fn next_action(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        if self.pending {
            // Frame done: report it and withdraw its announcement, then
            // immediately announce the *next* frame — giving the
            // governor the full window to provision for it.
            ctx.report_deadline("frame", self.due());
            if let (Some(reg), Some(id)) = (&self.registry, self.live.take()) {
                reg.lock().expect("registry poisoned").complete(id);
            }
            self.pending = false;
            self.k += 1;
            self.announce_next(ctx.now);
            let start = self.due() - self.period;
            if ctx.now < start {
                return TaskAction::SleepUntil(start);
            }
        }
        if self.live.is_none() && self.registry.is_some() {
            self.announce_next(ctx.now);
        }
        self.pending = true;
        // The demand is mildly memory-bound like real decode work.
        TaskAction::Compute(itsy_hw::Work::new(
            self.work_cycles * 0.8,
            0.0,
            self.work_cycles * 0.2 / 42.0,
        ))
    }

    fn label(&self) -> String {
        "announcing-decoder".to_string()
    }
}

/// One policy's outcome.
#[derive(Debug, Clone)]
pub struct DeadlineRow {
    /// Policy label.
    pub policy: String,
    /// Energy, joules.
    pub energy_j: f64,
    /// Deadline misses.
    pub misses: usize,
    /// Clock switches.
    pub switches: u64,
    /// Mean clock frequency (MHz) over the run.
    pub mean_mhz: f64,
}

/// The comparison.
pub struct DeadlineExp {
    /// Constant top speed, best heuristic, deadline governor.
    pub rows: Vec<DeadlineRow>,
}

/// Seconds per run.
pub const RUN_SECS: u64 = 30;

/// Runs the comparison: a 30 fps-like periodic load that needs
/// ≈118 MHz on average.
pub fn run() -> DeadlineExp {
    // 4.0e6 cycles every 36 ms: needs ~111 MHz sustained.
    let work_cycles = 4.0e6;
    let period = SimDuration::from_millis(36);

    let mut rows = Vec::new();
    let mut exec = |label: &str,
                    registry: Option<SharedRegistry>,
                    policy: Option<Box<dyn policies::ClockPolicy>>| {
        let mut kernel = Kernel::new(
            Machine::itsy(10, DeviceSet::AV),
            KernelConfig {
                duration: SimDuration::from_secs(RUN_SECS),
                ..KernelConfig::default()
            },
        );
        kernel.spawn(Box::new(AnnouncingDecoder::new(
            registry,
            work_cycles,
            period,
        )));
        if let Some(p) = policy {
            kernel.install_policy(p);
        }
        let r = kernel.run();
        rows.push(DeadlineRow {
            policy: label.to_string(),
            energy_j: r.energy.as_joules(),
            misses: r.deadlines.misses(TOLERANCE),
            switches: r.clock_switches,
            mean_mhz: r.freq_mhz.mean().unwrap_or(0.0),
        });
    };

    exec("Constant 206.4 MHz", None, None);
    exec(
        "PAST, peg-peg, >98%/<93%",
        None,
        Some(Box::new(IntervalScheduler::best_from_paper(
            ClockTable::sa1100(),
        ))),
    );
    let registry = DeadlineRegistry::shared();
    let governor = DeadlineGovernor::new(registry.clone(), ClockTable::sa1100());
    exec(
        "Deadline governor (EDF)",
        Some(registry),
        Some(Box::new(governor)),
    );

    DeadlineExp { rows }
}

impl DeadlineExp {
    /// Energy of a row by index (0 constant, 1 heuristic, 2 governor).
    pub fn energy(&self, i: usize) -> f64 {
        self.rows[i].energy_j
    }

    /// Writes the comparison as CSV.
    pub fn save(&self) -> std::io::Result<()> {
        let doc = report::csv_doc(
            &["policy", "energy_j", "misses", "switches", "mean_mhz"],
            &self
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.policy.replace(',', ";"),
                        format!("{:.2}", r.energy_j),
                        r.misses.to_string(),
                        r.switches.to_string(),
                        format!("{:.1}", r.mean_mhz),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        report::save_csv("deadline", "governor_vs_heuristics", &doc).map(|_| ())
    }
}

impl fmt::Display for DeadlineExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section 6 future work: deadline governor vs heuristics ({}s periodic load)",
            RUN_SECS
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.2} J", r.energy_j),
                    r.misses.to_string(),
                    r.switches.to_string(),
                    format!("{:.1} MHz", r.mean_mhz),
                ]
            })
            .collect();
        f.write_str(&report::render_table(
            &["policy", "energy", "misses", "switches", "mean clock"],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> &'static DeadlineExp {
        use std::sync::OnceLock;
        static CELL: OnceLock<DeadlineExp> = OnceLock::new();
        CELL.get_or_init(run)
    }

    #[test]
    fn governor_beats_the_heuristic_and_the_constant() {
        let e = exp();
        assert!(
            e.energy(2) < e.energy(1),
            "governor {:.1}J vs heuristic {:.1}J",
            e.energy(2),
            e.energy(1)
        );
        assert!(e.energy(2) < e.energy(0));
    }

    #[test]
    fn nobody_misses_deadlines() {
        let e = exp();
        assert_eq!(e.rows.len(), 3, "constant, heuristic and governor rows");
        for r in &e.rows {
            assert_eq!(r.misses, 0, "{} missed", r.policy);
        }
    }

    #[test]
    fn governor_settles_near_the_feasible_minimum() {
        // ~111 MHz needed with 1.1x headroom -> ~122 -> step 132.7.
        let e = exp();
        let g = &e.rows[2];
        assert!(
            (100.0..150.0).contains(&g.mean_mhz),
            "governor mean clock = {:.1} MHz",
            g.mean_mhz
        );
        // And it is no less stable than the flapping heuristic.
        assert!(
            g.switches <= e.rows[1].switches,
            "governor switches {} vs heuristic {}",
            g.switches,
            e.rows[1].switches
        );
    }
}
