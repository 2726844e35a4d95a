//! Interval-based dynamic clock/voltage scheduling policies.
//!
//! This crate is the paper's primary subject. An *interval scheduler*
//! wakes at a fixed period (10 ms on the Itsy — the Linux scheduling
//! quantum), observes the CPU utilization of the interval that just
//! ended, and performs two separable tasks (Govil et al.'s terminology):
//!
//! 1. **prediction** — estimate the coming interval's utilization from
//!    past intervals ([`predictor`]: [`Past`], [`AvgN`],
//!    [`SlidingWindowAvg`]);
//! 2. **speed-setting** — decide whether and how far to move the clock
//!    ([`speed::SpeedChange`]: `One`, `Double`, `Peg`), gated by a
//!    hysteresis band ([`Hysteresis`]).
//!
//! [`IntervalScheduler`] composes the two, optionally with a
//! [`VoltageRule`] that drops the core to 1.23 V below a frequency
//! threshold. The [`govil`] module adds the wider predictor family of
//! Govil et al. (FLAT, LONG_SHORT, AGED_AVERAGES, CYCLE, PATTERN,
//! PEAK) that §3 of the paper builds on. [`NonIdleCycleAvg`] is the Figure 5 "simple averaging"
//! strawman. [`oracle`] holds Weiser et al.'s trace-driven baselines
//! (OPT, FUTURE, and the original unfinished-work PAST) which need
//! information a real kernel does not have — the paper's argument for
//! why they are not implementable — but which a simulator can compute
//! for comparison. [`scaling`] goes beyond the paper entirely: an
//! explicit deadline-job model with the exact offline optimum (YDS
//! critical intervals, discretizable onto the Itsy's clock steps) and
//! the modern online speed-scaling canon (OA, AVR, BKP, qOA) under a
//! parameterized power model `P(s) = s^α`.
//!
//! # Example
//!
//! The paper's best-performing policy — PAST prediction, peg-to-extremes
//! speed setting, 98 %/93 % thresholds:
//!
//! ```
//! use policies::{ClockPolicy, Hysteresis, IntervalScheduler, Past, SpeedChange};
//! use itsy_hw::ClockTable;
//! use sim_core::SimTime;
//!
//! let table = ClockTable::sa1100();
//! let mut policy = IntervalScheduler::new(
//!     Box::new(Past::new()),
//!     Hysteresis { up: 0.98, down: 0.93 },
//!     SpeedChange::Peg,
//!     SpeedChange::Peg,
//!     table.clone(),
//! );
//! // A fully-busy interval pegs the clock to 206.4 MHz.
//! let req = policy.on_interval(SimTime::ZERO, 1.0, 0);
//! assert_eq!(req.step, Some(table.fastest()));
//! ```

pub mod cpufreq;
pub mod descriptor;
pub mod energy;
pub mod governor;
pub mod govil;
pub mod oracle;
pub mod predictor;
pub mod scaling;
pub mod simple;
pub mod speed;

pub use cpufreq::{Conservative, Ondemand, Schedutil};
pub use descriptor::{PolicyDesc, PolicyId, PredictorDesc};
pub use energy::VfCurve;
pub use governor::{
    ClockPolicy, ConstantPolicy, Hysteresis, IntervalScheduler, PolicyRequest, VoltageRule,
};
pub use govil::{AgedAverage, Cycle, Flat, LongShort, Pattern, Peak};
pub use oracle::{TraceSchedule, WorkTrace};
pub use predictor::{AvgN, Past, Predictor, SlidingWindowAvg};
pub use scaling::{Job, JobSet, PowerModel, Schedule, SpeedSegment};
pub use simple::NonIdleCycleAvg;
pub use speed::SpeedChange;
