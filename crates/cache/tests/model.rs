//! Exhaustive interleaving exploration of the sharded exact cache and the
//! snapshot ANN cache (build with `--features model-check`).
//!
//! The `model-check` feature reroutes `coic-cache`'s locks and atomics
//! through the in-tree `loom` shim, so every lock acquisition, release,
//! and atomic access inside [`ShardedExactCache`] becomes a scheduling
//! point. The explorer then runs each scenario below under every thread
//! interleaving (bounded preemption) and asserts its invariants in each
//! one.

#![cfg(feature = "model-check")]

use coic_cache::{Digest, PolicyKind, ShardedExactCache};
use loom::model::{Builder, Report};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Keys sized so the single shard holds exactly two entries: every insert
/// beyond the second evicts.
const ENTRY: u64 = 100;
const CAPACITY: u64 = 200;

fn key(tag: u8) -> Digest {
    Digest::of(&[tag])
}

/// How many schedules ended in each outcome of [`eviction_race_scenario`]:
/// both lookups hit, `a` missed, `b` missed.
#[derive(Default)]
struct Outcomes {
    both_hit: AtomicU64,
    a_missed: AtomicU64,
    b_missed: AtomicU64,
}

impl Outcomes {
    fn counts(&self) -> [u64; 3] {
        [&self.both_hit, &self.a_missed, &self.b_missed].map(|n| n.load(Ordering::Relaxed))
    }
}

/// One shard holds `a` and `b` (`a` the least recent). Reader A looks up
/// `a`, a writer inserts `c`, which evicts one entry, and reader B looks
/// up `b`. Each lookup records its recency under the shard's lock, so
/// the writer evicts whichever entry was least recently used at the
/// instant it took the lock, and a lookup that comes after it misses only
/// the entry it evicted. In every schedule: two lookups counted, one
/// eviction, two entries left, and never both lookups missing.
fn eviction_race_scenario(outcomes: &Outcomes) {
    let cache: ShardedExactCache<u64> = ShardedExactCache::new(CAPACITY, PolicyKind::Lru, None, 1);
    cache.insert(key(b'a'), 1, ENTRY, 0);
    cache.insert(key(b'b'), 2, ENTRY, 1);

    let reader_a = {
        let c = cache.clone();
        loom::thread::spawn(move || c.lookup(&key(b'a'), 2).is_some())
    };
    let writer = {
        let c = cache.clone();
        loom::thread::spawn(move || c.insert(key(b'c'), 3, ENTRY, 3))
    };
    let reader_b = {
        let c = cache.clone();
        loom::thread::spawn(move || c.lookup(&key(b'b'), 4).is_some())
    };
    let a_hit = reader_a.join().unwrap();
    writer.join().unwrap();
    let b_hit = reader_b.join().unwrap();

    let m = cache.metrics();
    assert_eq!(m.lookups(), 2, "both lookups accounted: {m:?}");
    assert_eq!(m.hits, u64::from(a_hit) + u64::from(b_hit), "{m:?}");
    assert_eq!(
        m.evictions, 1,
        "inserting `c` evicts exactly one entry: {m:?}"
    );
    assert_eq!(cache.len(), 2);
    let counter = match (a_hit, b_hit) {
        (true, true) => &outcomes.both_hit,
        (false, true) => &outcomes.a_missed,
        (true, false) => &outcomes.b_missed,
        (false, false) => panic!("one eviction cannot make both lookups miss: {m:?}"),
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Explore [`eviction_race_scenario`] with `builder`; returns the report
/// and the outcome counts.
fn explore_eviction_race(builder: Builder) -> (Report, [u64; 3]) {
    let outcomes = Arc::new(Outcomes::default());
    let tally = Arc::clone(&outcomes);
    let report = builder
        .check(move || eviction_race_scenario(&tally))
        .unwrap_or_else(|failure| {
            panic!("model found a schedule violating the invariant:\n{failure}")
        });
    (report, outcomes.counts())
}

#[test]
fn a_lookup_racing_an_eviction_sees_the_entry_or_its_eviction() {
    let (report, [both_hit, a_missed, b_missed]) = explore_eviction_race(Builder::default());
    println!(
        "eviction race: {} schedules explored (complete: {}); both hit {both_hit}, \
         a missed {a_missed}, b missed {b_missed}",
        report.schedules, report.complete
    );
    assert!(report.complete, "exploration must exhaust the bounded tree");
    // Not vacuous: the exploration reached every outcome the race has.
    assert!(
        both_hit > 0 && a_missed > 0 && b_missed > 0,
        "an outcome was never reached: both hit {both_hit}, a missed {a_missed}, \
         b missed {b_missed}"
    );
}

#[test]
fn eviction_race_exploration_is_deterministic() {
    let run = |seed: u64| {
        let (report, counts) = explore_eviction_race(Builder::default().seed(seed));
        (report.schedules, counts)
    };
    assert_eq!(
        run(42),
        run(42),
        "same seed must enumerate the same schedules in the same order"
    );
}

#[test]
fn read_path_hit_counters_match_observations_in_every_schedule() {
    // Two readers look up one present key: the merged counters must
    // equal the sum of per-thread observations in every schedule.
    let report = loom::model(|| {
        let cache: ShardedExactCache<u64> =
            ShardedExactCache::new(CAPACITY, PolicyKind::Lru, None, 1);
        cache.insert(key(b'x'), 7, ENTRY, 0);
        let observed = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let c = cache.clone();
                let observed = Arc::clone(&observed);
                loom::thread::spawn(move || {
                    if c.lookup(&key(b'x'), 1).is_some() {
                        observed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        let s = cache.metrics();
        assert_eq!(s.hits, observed.load(Ordering::Relaxed));
        assert_eq!(s.hits, 2, "the key is present: both lookups must hit");
        assert_eq!(s.misses, 0);
    });
    println!(
        "read-path counters: {} schedules explored",
        report.schedules
    );
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// Snapshot ANN cache: swap/journal handoff.

use coic_cache::{AnnFamily, SnapshotApproxCache};
use coic_vision::features::FeatureVec;

fn axis(i: usize) -> FeatureVec {
    let mut v = vec![0.0f32; 4];
    v[i] = 1.0;
    FeatureVec::new(v)
}

/// Concurrent inserts and a racing `maintain` against lock-free lookups
/// on [`SnapshotApproxCache`]: in every interleaving, (a) an entry that
/// was inserted before the race is visible to every lookup — whether it
/// is answered from the immutable snapshot or from the journal suffix the
/// fold preserved (no lost inserts, no torn snapshot/journal handoff) —
/// and (b) after the dust settles a final fold accounts for every insert
/// exactly once.
fn snapshot_handoff_scenario() {
    let cache: SnapshotApproxCache<u64> =
        SnapshotApproxCache::new(4096, 0.1, AnnFamily::Linear, 4, 2);
    cache.insert(axis(0), 10, 64, 0);
    cache.maintain(0); // axis(0) lives in the snapshot proper

    let w1 = {
        let c = cache.clone();
        loom::thread::spawn(move || {
            c.insert(axis(1), 11, 64, 1);
        })
    };
    let folder = {
        let c = cache.clone();
        loom::thread::spawn(move || {
            let _ = c.maintain(2);
        })
    };
    let reader = {
        let c = cache.clone();
        loom::thread::spawn(move || {
            // Pre-race entry: visible in EVERY schedule, from whichever
            // side of the snapshot/journal handoff it currently lives on.
            assert!(
                c.lookup(&axis(0), 3).is_hit(),
                "pre-race insert vanished mid-handoff"
            );
        })
    };
    w1.join().unwrap();
    folder.join().unwrap();
    reader.join().unwrap();

    // Quiesced: fold the remainder and check nothing was lost or doubled.
    cache.maintain(4);
    assert_eq!(
        cache.journal_depth(),
        0,
        "final fold must drain the journal"
    );
    assert_eq!(cache.len(), 2, "one prefill + one racing insert");
    assert!(cache.lookup(&axis(0), 5).is_hit());
    assert!(cache.lookup(&axis(1), 5).is_hit(), "racing insert lost");
    assert!(
        !cache.lookup(&axis(2), 5).is_hit(),
        "phantom entry appeared"
    );
}

#[test]
fn snapshot_swap_and_journal_handoff_lose_nothing() {
    let report = Builder::default()
        .check(snapshot_handoff_scenario)
        .unwrap_or_else(|failure| {
            panic!("model found a schedule violating the invariant:\n{failure}")
        });
    println!(
        "snapshot handoff: {} schedules explored (complete: {})",
        report.schedules, report.complete
    );
    assert!(report.complete, "exploration must exhaust the bounded tree");
}

// ---------------------------------------------------------------------
// Snapshot ANN cache: compaction racing an insert and a lookup.

/// A cached value: `(label, tag)`. Compaction merges on equal labels; the
/// tag tells which entry answered a lookup.
type Tagged = (u32, u32);

/// `axis(0)` nudged off the axis: a same-label near-duplicate of it.
fn near_axis0() -> FeatureVec {
    FeatureVec::new(vec![1.0, 0.02, 0.0, 0.0])
}

/// [`SnapshotApproxCache::compact_with`] folds the journal, merges, and
/// swaps under the same fold mutex as `maintain`, while an insert appends
/// to the journal and a lookup walks whichever snapshot it loaded. In
/// every interleaving: (a) the pre-race survivor hits, (b) exactly the
/// one near-duplicate is merged and never comes back, and (c) the racing
/// insert survives the swap, whether the compaction's fold captured it
/// or left it in the journal suffix.
fn compaction_race_scenario() {
    let cache: SnapshotApproxCache<Tagged> =
        SnapshotApproxCache::new(4096, 0.1, AnnFamily::Linear, 4, 4);
    cache.insert(axis(0), (0, 0), 64, 0);
    cache.insert(axis(2), (2, 2), 64, 0);
    cache.maintain(0);
    // Still journaled when the race starts: compaction must fold it first.
    cache.insert(near_axis0(), (0, 1), 64, 0);

    let compactor = {
        let c = cache.clone();
        loom::thread::spawn(move || {
            let merged = c.compact_with(0.05, |a, b| a.0 == b.0, 1);
            assert_eq!(merged, 1, "exactly the near-duplicate merges");
        })
    };
    let writer = {
        let c = cache.clone();
        loom::thread::spawn(move || {
            c.insert(axis(1), (1, 3), 64, 2);
        })
    };
    let reader = {
        let c = cache.clone();
        loom::thread::spawn(move || {
            assert!(
                c.lookup(&axis(2), 3).is_hit(),
                "pre-race survivor missed mid-compaction"
            );
        })
    };
    compactor.join().unwrap();
    writer.join().unwrap();
    reader.join().unwrap();

    // Quiesced: fold any insert the compaction left in the journal.
    cache.maintain(4);
    assert_eq!(cache.journal_depth(), 0);
    assert_eq!(cache.len(), 3, "two survivors + the racing insert");
    assert_eq!(
        cache.lookup(&axis(1), 5).into_value().as_deref(),
        Some(&(1, 3)),
        "racing insert lost"
    );
    assert_eq!(
        cache.lookup(&near_axis0(), 5).into_value().as_deref(),
        Some(&(0, 0)),
        "merged entry reappeared"
    );
    assert!(cache.lookup(&axis(2), 5).is_hit());
}

#[test]
fn compaction_racing_insert_and_lookup_loses_nothing() {
    let report = Builder::default()
        .check(compaction_race_scenario)
        .unwrap_or_else(|failure| {
            panic!("model found a schedule violating the invariant:\n{failure}")
        });
    println!(
        "compaction race: {} schedules explored (complete: {})",
        report.schedules, report.complete
    );
    assert!(report.complete, "exploration must exhaust the bounded tree");
}
