//! Golden snapshot of the sweep CSV.
//!
//! The cold, warm and chaos suites compare one build's sweep output
//! with itself, so a rendering change (a float format, a column order,
//! a label spelling) would pass all of them. This test pins the bytes
//! `Sweep::csv` writes for a small fixed grid against a committed
//! fixture.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN_SWEEP=1 cargo test -p experiments --test golden_sweep
//! ```

use experiments::sweep::{self, SweepConfig};
use policies::{Hysteresis, SpeedChange};
use workloads::Benchmark;

/// Two workloads, three N values, every rule pair and both threshold
/// sets at 2 s per cell: 108 rows, every column format exercised.
fn golden_config() -> SweepConfig {
    SweepConfig {
        benchmarks: vec![Benchmark::Mpeg, Benchmark::Web],
        ns: vec![0, 3, 9],
        rules: vec![SpeedChange::One, SpeedChange::Double, SpeedChange::Peg],
        thresholds: vec![Hysteresis::PERING, Hysteresis::BEST],
        secs: 2,
    }
}

#[test]
fn sweep_csv_matches_committed_golden_snapshot() {
    let actual = sweep::run(&golden_config(), 1).csv();
    let fixture_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_sweep.csv"
    );

    if std::env::var_os("UPDATE_GOLDEN_SWEEP").is_some() {
        std::fs::write(fixture_path, &actual).expect("write fixture");
        return;
    }

    let expected = std::fs::read_to_string(fixture_path).expect(
        "missing tests/fixtures/golden_sweep.csv — regenerate with \
         UPDATE_GOLDEN_SWEEP=1 cargo test -p experiments --test golden_sweep",
    );
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "\nsweep CSV drift at fixture line {}.\n\
             If the simulator or the CSV format changed intentionally, \
             regenerate with UPDATE_GOLDEN_SWEEP=1; otherwise the \
             rendering broke — fix that instead.\n",
            i + 1
        );
    }
    assert_eq!(expected, actual, "line count or trailing bytes differ");
}
