//! Property tests for the mergeable quantile sketch and the
//! [`simcap::Recorder`] built on it: merging is associative and
//! order-independent (the foundation of byte-identical reports at any
//! `--jobs`), sharding a stream never changes the merged answer, and
//! the sketch's percentiles stay within the documented
//! [`simcap::RELATIVE_ERROR`] of the exact nearest-rank reference.

use proptest::prelude::*;
use proptest::TestRng;
use simcap::{
    LatencyDist, QuantileSketch, Quantiles, Recorder, RecorderMode, P999_MIN_SAMPLES,
    RELATIVE_ERROR,
};
use simkit::SimTime;

/// A latency sample in ns: spans sub-µs to tens of seconds, hitting
/// both the exact sub-bucket range (one bucket per value below 256)
/// and many log-linear octaves above it.
struct SampleNs;

impl Strategy for SampleNs {
    type Value = i64;
    #[allow(clippy::cast_possible_wrap)]
    fn generate(&self, rng: &mut TestRng) -> i64 {
        match rng.below(3) {
            0 => rng.below(256) as i64,
            1 => 256 + rng.below(1_000_000 - 256) as i64,
            _ => 1_000_000 + rng.below(50_000_000_000 - 1_000_000) as i64,
        }
    }
}

fn sample_ns() -> SampleNs {
    SampleNs
}

/// A non-negative ns sample as a recorder observation.
fn ns(v: i64) -> SimTime {
    SimTime::from_ns(u64::try_from(v).expect("non-negative sample"))
}

fn sketch_of(samples: &[i64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in samples {
        s.observe_ns(v);
    }
    s
}

/// Sketch state probe: count, sum, extremes, and a dense percentile
/// ladder. Two sketches that agree here produce byte-identical
/// canonical JSON downstream.
fn probe(s: &QuantileSketch) -> (u64, i128, Option<i64>, Option<i64>, Vec<Option<i64>>) {
    let ladder = (0..=1000)
        .map(|i| s.percentile_ns(f64::from(i) / 10.0))
        .collect();
    (s.count(), s.sum_ns(), s.min_ns(), s.max_ns(), ladder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c): merge is associative, so a grid
    /// can be merged shard by shard in any grouping.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(sample_ns(), 0..200),
        b in proptest::collection::vec(sample_ns(), 0..200),
        c in proptest::collection::vec(sample_ns(), 0..200),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        prop_assert_eq!(probe(&left), probe(&right));
    }

    /// a ⊔ b == b ⊔ a: merge order never matters, so only the final
    /// grid order (not worker scheduling) shapes the merged sketch.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(sample_ns(), 0..300),
        b in proptest::collection::vec(sample_ns(), 0..300),
    ) {
        let (sa, sb) = (sketch_of(&a), sketch_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(probe(&ab), probe(&ba));
    }

    /// Splitting one stream into shards and merging the shard
    /// sketches gives exactly the single-sketch answer — the jobs
    /// 1-vs-N identity, minus the thread pool.
    #[test]
    fn sharded_merge_equals_single_pass(
        samples in proptest::collection::vec(sample_ns(), 1..600),
        shards in 1usize..8,
    ) {
        let single = sketch_of(&samples);
        let mut merged = QuantileSketch::new();
        for chunk in samples.chunks(samples.len().div_ceil(shards)) {
            merged.merge(&sketch_of(chunk));
        }
        prop_assert_eq!(probe(&single), probe(&merged));
    }

    /// Every sketch percentile lands within RELATIVE_ERROR of the
    /// exact nearest-rank percentile over the same samples.
    #[test]
    fn percentiles_match_exact_within_documented_error(
        samples in proptest::collection::vec(sample_ns(), 1..500),
    ) {
        let sketch = sketch_of(&samples);
        let exact = LatencyDist::from_samples(samples);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let e = LatencyDist::percentile_ns(&exact, p);
            let s = sketch.percentile_ns(p).expect("non-empty sketch");
            let tol = (e.abs() as f64 * RELATIVE_ERROR).ceil() as i64 + 1;
            prop_assert!(
                (s - e).abs() <= tol,
                "p{p}: sketch {s} vs exact {e} (tol {tol})"
            );
        }
    }

    /// The Recorder's p999 floor holds in both modes: below
    /// P999_MIN_SAMPLES the p999 is None, at or above it is Some.
    #[test]
    fn p999_floor_is_mode_independent(
        n in 1usize..2000,
        seed in any::<u64>(),
    ) {
        let mut exact = Recorder::default();
        let mut sketched = Recorder::new(RecorderMode::Sketch);
        let mut x = seed | 1;
        for _ in 0..n {
            // xorshift: arbitrary positive ns values.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1_000_000_000) as i64;
            exact.observe(ns(v));
            sketched.observe(ns(v));
        }
        prop_assert_eq!(exact.p999_ns().is_some(), n >= P999_MIN_SAMPLES);
        prop_assert_eq!(sketched.p999_ns().is_some(), n >= P999_MIN_SAMPLES);
    }
}

/// Recorder::merge matches sketch merge semantics and keeps the
/// saturated-sample tally additive across shards.
#[test]
fn recorder_merge_is_shard_order_stable() {
    let shards: Vec<Vec<i64>> = (0..5u64)
        .map(|s| {
            (0..200u64)
                .map(|i| ((s * 7919 + i * 104_729) % 40_000_000) as i64)
                .collect()
        })
        .collect();
    let mut grid_order = Recorder::new(RecorderMode::Sketch);
    for shard in &shards {
        let mut r = Recorder::new(RecorderMode::Sketch);
        for &v in shard {
            r.observe(ns(v));
        }
        grid_order.merge(&r);
    }
    let mut single = Recorder::new(RecorderMode::Sketch);
    for shard in &shards {
        for &v in shard {
            single.observe(ns(v));
        }
    }
    assert_eq!(Quantiles::count(&grid_order), Quantiles::count(&single));
    for p in [50.0, 90.0, 99.0, 99.9] {
        assert_eq!(grid_order.percentile_ns(p), single.percentile_ns(p));
    }
    assert_eq!(grid_order.mean_us().to_bits(), single.mean_us().to_bits());
}

/// One synthetic fan-out completion in ns from two random words: a
/// ~50–250 µs body with a 1-in-64 tail stretching into tens of ms, so
/// the stream crosses many sketch octaves.
fn synthetic_completion_ns(r: u64, tail: u64) -> i64 {
    let spike = if r.is_multiple_of(64) {
        tail % 50_000_000
    } else {
        0
    };
    (50_000 + r % 200_000 + spike) as i64
}

/// Shard `shard` of the synthetic stream: a splitmix64 sequence seeded
/// per shard, so every shard is reproducible on any thread.
fn shard_stream(shard: u64, len: u64) -> impl Iterator<Item = i64> {
    let mut state = 0x5eed ^ (shard.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..len).map(move |_| {
        let r = next();
        synthetic_completion_ns(r, next())
    })
}

/// Records every shard on `threads` scoped threads (shard `i` on
/// thread `i % threads`), then merges the shard recorders in shard
/// order — the grid-order merge the studies' `--jobs` pool performs.
fn sharded_sketch(shards: u64, per_shard: u64, threads: u64) -> Recorder {
    let mut parts: Vec<(u64, Recorder)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..shards)
                        .step_by(threads as usize)
                        .map(|shard| {
                            let mut rec = Recorder::new(RecorderMode::Sketch);
                            shard_stream(shard, per_shard).for_each(|v| rec.observe(ns(v)));
                            (shard, rec)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("shard worker"))
            .collect()
    });
    parts.sort_by_key(|&(shard, _)| shard);
    let mut merged = Recorder::new(RecorderMode::Sketch);
    for (_, part) in &parts {
        merged.merge(part);
    }
    merged
}

/// The sketch-mode gates at the million-sample scale: retained memory
/// stays under the documented ceiling, the merged p99 stays within 1%
/// of the exact nearest-rank p99 over the same stream, and the merge
/// is identical whether the shards ran on 1 thread or 4.
#[test]
fn million_sample_sketch_meets_its_gates() {
    const SHARDS: u64 = 16;
    const PER_SHARD: u64 = 62_500;
    let exact = LatencyDist::from_samples(
        (0..SHARDS)
            .flat_map(|shard| shard_stream(shard, PER_SHARD))
            .collect(),
    );
    assert_eq!(exact.count(), 1_000_000);

    let merged = sharded_sketch(SHARDS, PER_SHARD, 4);
    assert_eq!(Quantiles::count(&merged), 1_000_000);
    // MAX_MEMORY_BYTES bounds the bucket arrays; the recorder adds a
    // fixed-size header on top.
    let ceiling = simcap::MAX_MEMORY_BYTES + 1024;
    assert!(
        merged.memory_bytes() <= ceiling,
        "sketch retained {} B, over the {ceiling} B ceiling",
        merged.memory_bytes()
    );
    let exact_p99 = exact.percentile_ns(99.0);
    let sketch_p99 = merged.percentile_ns(99.0).expect("non-empty");
    let drift = (sketch_p99 - exact_p99).abs() as f64 / exact_p99 as f64;
    assert!(
        drift < 0.01,
        "p99 drift {drift:.4}: sketch {sketch_p99} vs exact {exact_p99}"
    );
    assert_eq!(
        merged,
        sharded_sketch(SHARDS, PER_SHARD, 1),
        "the merge differs between 4 threads and 1"
    );
}
