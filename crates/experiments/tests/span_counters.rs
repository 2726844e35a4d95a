//! Golden values of the kernel's span counters.
//!
//! `KernelReport::spans` counts the uniform spans the batched loop
//! committed and `KernelReport::span_quanta` the ticks they covered.
//! They are the kernel's own record of how much of a run the span loop
//! batched, so a change to span detection shows here as a count before
//! it shows as a timing. The reference loop commits no span.

use engine::JobSpec;
use experiments::sweep::{self, SweepConfig};
use fleet::PopulationConfig;
use sim_core::SimFidelity;

/// `(spans, span_quanta, ticks)` of a spec at one fidelity. A Full run
/// counts its ticks as utilization samples, a Summary run directly.
fn counters(spec: &JobSpec, fidelity: SimFidelity, reference: bool) -> (u64, u64, u64) {
    let r = spec
        .clone()
        .with_fidelity(fidelity)
        .kernel_report(reference);
    let ticks = match fidelity {
        SimFidelity::Full => r.utilization.len() as u64,
        SimFidelity::Summary => r.ticks,
    };
    (r.spans, r.span_quanta, ticks)
}

/// Checks a spec's counters at both fidelities against one golden
/// triple: a Summary run may commit a span in closed form, but it
/// detects and ends spans exactly where a Full run does.
fn check(name: &str, spec: &JobSpec, want: (u64, u64, u64)) {
    for fidelity in [SimFidelity::Full, SimFidelity::Summary] {
        assert_eq!(
            counters(spec, fidelity, false),
            want,
            "{name} at {fidelity:?}"
        );
        let (spans, quanta, ticks) = counters(spec, fidelity, true);
        assert_eq!(
            (spans, quanta),
            (0, 0),
            "{name} reference loop at {fidelity:?}"
        );
        assert_eq!(ticks, want.2, "{name}: both loops run the same ticks");
    }
}

#[test]
fn fleet_device_zero_span_counters() {
    // Device 0 of seed 1: the first device of the benchmark's fleet.
    let spec = PopulationConfig::new(10_000, 1).spec_for(0);
    check("fleet device 0", &spec, (32, 32, 100));
}

#[test]
fn grid_cell_span_counters() {
    let grid = SweepConfig {
        secs: 120,
        ..SweepConfig::full()
    };
    // The grid the benchmark's warm workload serves; cell 150 is
    // MPEG / AVG_8 one-double >70%/<50%.
    let spec = &sweep::specs(&grid, 1)[150];
    check(&spec.label(), spec, (2783, 7854, 12000));
}
