//! Property-based tests for [`sim_core::LogHistogram`]: percentile
//! queries against a naive sorted-vec oracle, monotonicity of the
//! quantile chain p50 ≤ p90 ≤ p99 ≤ max, and the mergeable-sketch
//! algebra fleet aggregation depends on — merge is associative and
//! commutative bit-for-bit, and sharding a stream across workers then
//! merging equals single-pass recording byte-for-byte.

use proptest::prelude::*;

use sim_core::LogHistogram;

/// Nearest-rank percentile over the raw samples — the oracle the
/// histogram's bucketed estimate must track.
fn oracle_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// One bucket spans the ratio 2^(1/16), so a bucket's geometric
/// midpoint is within 2^(1/32) ≈ 1.022 of every sample in it.
const BUCKET_TOL: f64 = 0.03;

proptest! {
    /// Every percentile estimate lands within one bucket's relative
    /// error of the nearest-rank oracle on the raw samples.
    #[test]
    fn percentiles_track_sorted_vec_oracle(
        samples in proptest::collection::vec(1e-6f64..1e12, 1..400),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for &q in &qs {
            let got = h.percentile(q).expect("non-empty");
            let want = oracle_percentile(&sorted, q);
            let rel = (got / want - 1.0).abs();
            prop_assert!(
                rel <= BUCKET_TOL,
                "q={q}: histogram {got} vs oracle {want} (rel err {rel:.4})"
            );
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), Some(sorted[0]));
        prop_assert_eq!(h.max(), Some(*sorted.last().unwrap()));
    }

    /// p50 ≤ p90 ≤ p99 ≤ max for arbitrary sample sets, including
    /// zeros and negatives (which share the zero bucket).
    #[test]
    fn quantile_chain_is_monotone(
        samples in proptest::collection::vec(-10.0f64..1e9, 1..400),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let p50 = h.percentile(0.50).expect("non-empty");
        let p90 = h.percentile(0.90).expect("non-empty");
        let p99 = h.percentile(0.99).expect("non-empty");
        let max = h.max().expect("non-empty");
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        prop_assert!(p99 <= max, "p99 {p99} > max {max}");
    }

    /// Splitting a sample set across workers and merging gives the
    /// same histogram as recording everything in one, wherever the
    /// split falls.
    #[test]
    fn merge_is_split_invariant(
        samples in proptest::collection::vec(1e-3f64..1e9, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((samples.len() as f64 * split_frac) as usize).min(samples.len());
        let mut a = LogHistogram::new();
        for &s in &samples[..split] {
            a.record(s);
        }
        let mut b = LogHistogram::new();
        for &s in &samples[split..] {
            b.record(s);
        }
        a.merge(&b);
        let mut whole = LogHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // The sum is fixed-point, so even it is exact: the merged
        // histogram is byte-identical to single-pass recording.
        prop_assert_eq!(&a, &whole);
        prop_assert_eq!(a.encode(), whole.encode());
    }

    /// Merge is associative and commutative *bit-for-bit*: any
    /// parenthesization and any operand order of three histograms
    /// encodes to the same bytes. This is what makes per-worker shard
    /// folding deterministic at any `--jobs`.
    #[test]
    fn merge_is_associative_and_commutative(
        xs in proptest::collection::vec(-1.0f64..1e9, 0..60),
        ys in proptest::collection::vec(1e-9f64..1e12, 0..60),
        zs in proptest::collection::vec(0.0f64..1e3, 0..60),
    ) {
        let hist = |vals: &[f64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (hist(&xs), hist(&ys), hist(&zs));

        // ((a ⊕ b) ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // (a ⊕ (b ⊕ c))
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.encode(), right.encode(), "associativity");

        // (c ⊕ b) ⊕ a — a fully reversed order.
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        prop_assert_eq!(left.encode(), rev.encode(), "commutativity");
    }

    /// Round-robin sharding across k workers, each folding locally,
    /// then merging the shards equals single-pass aggregation
    /// byte-for-byte — the fleet invariant behind identical population
    /// summaries across `--jobs 1/4/8`.
    #[test]
    fn sharded_merge_equals_single_pass(
        samples in proptest::collection::vec(-10.0f64..1e10, 0..300),
        shards in 1usize..9,
    ) {
        let mut parts = vec![LogHistogram::new(); shards];
        let mut whole = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            parts[i % shards].record(s);
            whole.record(s);
        }
        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.encode(), whole.encode());
    }

    /// encode → decode is the identity on reachable states.
    #[test]
    fn codec_round_trips(
        samples in proptest::collection::vec(-100.0f64..1e12, 0..200),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let decoded = LogHistogram::decode(&h.encode());
        prop_assert_eq!(decoded, Some(h));
    }

    /// Decoding a damaged encoding never panics, and whatever it
    /// accepts is a sound histogram: it answers every query and
    /// re-encodes to a string that decodes back to it.
    #[test]
    fn mutated_encodings_never_panic(
        samples in proptest::collection::vec(-100.0f64..1e12, 0..40),
        edits in proptest::collection::vec((0usize..4, any::<u64>(), 0usize..MUTANT_BYTES.len()), 1..6),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut bytes = h.encode().into_bytes();
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

    /// Random strings over the codec's alphabet never panic the
    /// decoder either.
    #[test]
    fn random_encodings_never_panic(
        picks in proptest::collection::vec(0usize..MUTANT_BYTES.len(), 0..120),
    ) {
        let noise: String = picks.iter().map(|&i| MUTANT_BYTES[i] as char).collect();
        assert_sound_if_accepted(&noise)?;
    }
}

/// Decodes `s` and, if it is accepted, checks it answers every query
/// and re-encodes to a string that decodes back to it.
fn assert_sound_if_accepted(s: &str) -> Result<(), TestCaseError> {
    if let Some(back) = LogHistogram::decode(s) {
        if let (Some(min), Some(max)) = (back.min(), back.max()) {
            for q in [0.0, 0.5, 0.99, 1.0] {
                let p = back.percentile(q).expect("non-empty");
                prop_assert!(min <= p && p <= max, "q={q}: {p} outside [{min}, {max}]");
            }
        }
        let _ = (back.mean(), back.sum());
        let mut merged = back.clone();
        merged.merge(&back);
        let again = LogHistogram::decode(&back.encode());
        prop_assert_eq!(again.as_ref(), Some(&back));
    }
    Ok(())
}

/// Bytes a mutation writes: the codec's own alphabet (digits, hex,
/// field names and separators) plus a few it never emits, so damaged
/// encodings stay close enough to parse deep into the decoder.
const MUTANT_BYTES: &[u8] = b"0123456789abcdef-+;:=,nzsmixb 9f7f";
