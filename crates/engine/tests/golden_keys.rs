//! Golden snapshot of `JobSpec` content keys.
//!
//! Every cached result and journal record is addressed by the FNV-1a
//! 128 hash of a spec's canonical string. If that hash drifts — a
//! canonicalisation change, a field rename, a hashing tweak — every
//! existing cache entry silently misses and every interrupted run
//! loses its journal. That may be an *intended* consequence (bump
//! `SIM_VERSION` when simulator semantics change), but it must never
//! be an accident: this test pins the keys of a representative spec
//! grid against a committed fixture so drift fails CI loudly.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN_KEYS=1 cargo test -p engine --test golden_keys
//! ```

use engine::{HwSpec, JobSpec, WorkloadSpec};
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange, VoltageRule};
use sim_core::{SimDuration, SimFidelity};
use workloads::Benchmark;

/// A fixed grid crossing every workload kind, predictor family member,
/// rule pair, threshold set and spec option the engine can address.
/// Append new specs at the end; never reorder or remove — the fixture
/// is a contract with every cache directory in existence.
fn golden_grid() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for b in Benchmark::ALL {
        specs.push(JobSpec::new(
            WorkloadSpec::Benchmark(b),
            PolicyDesc::constant_top(),
            30,
            1,
        ));
    }
    for p in [
        PredictorDesc::Past,
        PredictorDesc::AvgN(3),
        PredictorDesc::AvgN(9),
        PredictorDesc::Flat(0.7),
        PredictorDesc::LongShort,
        PredictorDesc::Aged(0.9),
        PredictorDesc::Cycle,
        PredictorDesc::Pattern,
        PredictorDesc::Peak,
    ] {
        specs.push(JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Mpeg),
            PolicyDesc::interval(p, Hysteresis::BEST, SpeedChange::Peg, SpeedChange::Peg),
            20,
            1,
        ));
    }
    for up in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
        for th in [Hysteresis::PERING, Hysteresis::BEST] {
            specs.push(JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Web),
                PolicyDesc::interval(PredictorDesc::AvgN(5), th, up, SpeedChange::Peg),
                15,
                7,
            ));
        }
    }
    for poller in [false, true] {
        specs.push(JobSpec::new(
            WorkloadSpec::WebBrowse { poller },
            PolicyDesc::interval(
                PredictorDesc::AvgN(3),
                Hysteresis::BEST,
                SpeedChange::One,
                SpeedChange::One,
            ),
            60,
            1,
        ));
    }
    specs.push(JobSpec::new(
        WorkloadSpec::MpegElastic,
        PolicyDesc::best_from_paper(),
        30,
        1,
    ));
    specs.push(
        JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Mpeg),
            PolicyDesc::best_from_paper(),
            30,
            1,
        )
        .with_quantum(SimDuration::from_millis(50)),
    );
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Mpeg),
        PolicyDesc::best_from_paper().with_voltage_rule(VoltageRule { low_at_or_below: 5 }),
        30,
        1,
    ));
    // Seed sensitivity: same cell as the grid above, different seed.
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Web),
        PolicyDesc::interval(
            PredictorDesc::AvgN(5),
            Hysteresis::BEST,
            SpeedChange::One,
            SpeedChange::Peg,
        ),
        15,
        8,
    ));
    // Summary fidelity keys under its own version namespace.
    specs.push(
        JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Chess),
            PolicyDesc::best_from_paper(),
            10,
            3,
        )
        .with_fidelity(SimFidelity::Summary),
    );
    // Fleet-style hardware spread: scaled power, battery at part charge.
    specs.push(
        JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::TalkingEditor),
            PolicyDesc::best_from_paper(),
            10,
            4,
        )
        .with_hw(HwSpec {
            core_ppm: 1_043_210,
            base_ppm: 987_654,
            battery_mwh: 3_460,
            charge_pct: 73,
        })
        .with_fidelity(SimFidelity::Summary),
    );
    specs.push(
        JobSpec::new(
            WorkloadSpec::SquareWave { busy: 3, idle: 7 },
            PolicyDesc::interval(
                PredictorDesc::AvgN(4),
                Hysteresis::BEST,
                SpeedChange::Double,
                SpeedChange::One,
            ),
            5,
            1,
        )
        .starting_at(4),
    );
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Web),
        PolicyDesc::SimpleAvg { window: 12 },
        15,
        1,
    ));
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Web),
        PolicyDesc::interval(
            PredictorDesc::SlidingWindow(6),
            Hysteresis::PERING,
            SpeedChange::Peg,
            SpeedChange::Double,
        ),
        15,
        1,
    ));
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Mpeg),
        PolicyDesc::Constant {
            step: 3,
            voltage_mv: 1_230,
        },
        30,
        1,
    ));
    specs
}

/// One fixture line per spec: `<key> <canonical>`.
fn render(specs: &[JobSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        out.push_str(&format!("{} {}\n", s.key(), s.canonical()));
    }
    out
}

#[test]
fn content_keys_match_committed_fixture() {
    let specs = golden_grid();
    let actual = render(&specs);
    let fixture_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_keys.txt"
    );

    if std::env::var_os("UPDATE_GOLDEN_KEYS").is_some() {
        std::fs::write(fixture_path, &actual).expect("write fixture");
        return;
    }

    let expected = std::fs::read_to_string(fixture_path).expect(
        "missing tests/fixtures/golden_keys.txt — regenerate with \
         UPDATE_GOLDEN_KEYS=1 cargo test -p engine --test golden_keys",
    );

    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "\ncontent key drift at fixture line {}.\n\
             Every existing cache entry and journal would be orphaned by \
             this change. If the simulator's semantics changed, bump \
             SIM_VERSION (crates/engine/src/job.rs) and regenerate the \
             fixture with UPDATE_GOLDEN_KEYS=1; if not, the \
             canonicalisation or hash changed by accident — fix that \
             instead.\n",
            i + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "fixture and golden grid disagree on spec count — regenerate \
         the fixture with UPDATE_GOLDEN_KEYS=1 after appending specs"
    );
}

#[test]
fn golden_grid_keys_are_unique() {
    let specs = golden_grid();
    let mut keys: Vec<_> = specs.iter().map(|s| s.key()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), specs.len(), "key collision inside the grid");
}
