//! Streaming population simulation: millions of simulated Itsys at
//! bounded memory.
//!
//! The paper evaluates policies on *one* device; this crate asks the
//! fleet question — what does a policy do across a whole population of
//! devices whose hardware, charge state and workloads vary? It builds
//! on three pieces:
//!
//! - [`PopulationConfig`] ([`population`]) — a seeded generator that
//!   describes each device (hardware spread over the stock Itsy, a
//!   workload drawn from a mix, per-device trace jitter) as a pure
//!   function of `(seed, device_id)`, so the population is never
//!   materialized: [`PopulationConfig::spec_for`] builds any device's
//!   [`engine::JobSpec`] on demand;
//! - [`engine::Engine::run_stream`] — streaming execution in which
//!   each worker claims device indices from an atomic counter, builds
//!   their specs and folds into its own accumulator, so peak RSS is
//!   flat in device count;
//! - [`sim_core::FleetSummary`] — mergeable log-histogram sketches
//!   whose bit-for-bit associative merge makes the population summary
//!   byte-identical at any `--jobs`, verified by diffing
//!   [`FleetSummary::encode`](sim_core::FleetSummary::encode) output.
//!
//! [`run`](crate::run::run) ties them together; the `repro fleet`
//! subcommand is a thin CLI over it.

pub mod population;
pub mod run;

pub use population::PopulationConfig;
pub use run::{
    digest, fold_result, run, FleetAccum, FleetOutcome, FleetWindow, OSCILLATION_SWITCHES_PER_SEC,
    TIMELINE_WINDOWS,
};
