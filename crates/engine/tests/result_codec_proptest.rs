//! Property tests for the `JobResult` codec, the decoder behind every
//! cache entry and journal record: any result round-trips bit for bit,
//! and damaged or random text is rejected or accepted without a panic.

use proptest::prelude::*;

use engine::JobResult;

/// Float bit patterns a naive codec gets wrong: NaNs (quiet, signalling,
/// negative), both zeros, both infinities and the extreme finite values.
const SPECIAL_F64_BITS: [u64; 10] = [
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0xfff8_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7fef_ffff_ffff_ffff,
    0x0000_0000_0000_0001,
    u64::MAX,
];

/// Integer values at the edges of `u64`.
const SPECIAL_U64: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];

/// A result built from 13 raw draws. A draw's low bits pick a special
/// value a quarter of the time, so edge cases meet in one result.
fn result_from(draws: &[u64]) -> JobResult {
    let f = |i: usize| {
        let d = draws[i];
        f64::from_bits(if d.is_multiple_of(4) {
            SPECIAL_F64_BITS[(d >> 2) as usize % SPECIAL_F64_BITS.len()]
        } else {
            d
        })
    };
    let u = |i: usize| {
        let d = draws[i];
        if d.is_multiple_of(4) {
            SPECIAL_U64[(d >> 2) as usize % SPECIAL_U64.len()]
        } else {
            d
        }
    };
    JobResult {
        energy_j: f(0),
        core_energy_j: f(1),
        mean_freq_mhz: f(2),
        mean_utilization: f(3),
        misses: u(4),
        max_lateness_us: u(5),
        clock_switches: u(6),
        voltage_switches: u(7),
        final_step: u(8),
        frames_shown: u(9),
        frames_dropped: u(10),
        sched_dropped: u(11),
        battery_remaining: f(12),
    }
}

/// Bytes a mutation writes: the codec's own alphabet (hex and decimal
/// digits, field-name letters, separators) plus whitespace and a few it
/// never emits, so damaged encodings parse deep into the decoder.
const MUTANT_BYTES: &[u8] = b"0123456789abcdef_;= \t+-xyz_energymissfrm";

/// Decodes `s` and, if it is accepted, checks the result re-encodes to
/// text that decodes to the same bits.
fn assert_sound_if_accepted(s: &str) -> Result<(), TestCaseError> {
    if let Some(r) = JobResult::decode(s) {
        let again = JobResult::decode(&r.encode()).map(|b| b.encode());
        prop_assert_eq!(again, Some(r.encode()));
    }
    Ok(())
}

proptest! {
    /// Every result, specials included, survives encode/decode with
    /// identical bits (compared through `encode`, so NaN != NaN cannot
    /// fail the check).
    #[test]
    fn arbitrary_results_round_trip(draws in proptest::collection::vec(any::<u64>(), 13..14)) {
        let r = result_from(&draws);
        let encoded = r.encode();
        let back = JobResult::decode(&encoded);
        prop_assert!(back.is_some(), "rejected its own encoding: {encoded}");
        let back = back.unwrap();
        prop_assert_eq!(back.encode(), encoded);
        prop_assert_eq!(back.energy_j.to_bits(), r.energy_j.to_bits());
        prop_assert_eq!(back.battery_remaining.to_bits(), r.battery_remaining.to_bits());
    }

    /// Decoding a damaged encoding never panics, and whatever it
    /// accepts re-encodes to a string that decodes back to it.
    #[test]
    fn mutated_encodings_never_panic(
        draws in proptest::collection::vec(any::<u64>(), 13..14),
        edits in proptest::collection::vec((0usize..4, any::<u64>(), 0usize..MUTANT_BYTES.len()), 1..6),
    ) {
        let mut bytes = result_from(&draws).encode().into_bytes();
        for &(op, at, pick) in &edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            let b = MUTANT_BYTES[pick];
            match op {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, b),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        let mutant = String::from_utf8(bytes).expect("mutations stay ASCII");
        assert_sound_if_accepted(&mutant)?;
    }

    /// Random strings over the codec's alphabet never panic the decoder.
    #[test]
    fn random_encodings_never_panic(
        picks in proptest::collection::vec(0usize..MUTANT_BYTES.len(), 0..160),
    ) {
        let noise: String = picks.iter().map(|&i| MUTANT_BYTES[i] as char).collect();
        assert_sound_if_accepted(&noise)?;
    }
}
