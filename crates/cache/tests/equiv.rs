//! `ExactCache` ≡ one-shard `ShardedExactCache`.
//!
//! The simulator drives the same `ShardedExactCache` the live edge
//! serves from, with one shard and from one thread. Every figure in
//! EXPERIMENTS.md assumes that is the cache the paper describes: a bare
//! [`ExactCache`] with the configured eviction policy and admission
//! filter. This property pins it — one random lookup/insert stream
//! through both must produce the same hit or miss at every step and the
//! same counters at the end, for every eviction policy, with and without
//! TinyLFU, with and without a TTL. (The TinyLFU half is what catches a
//! read path that forgets to show lookups to the frequency sketch; the
//! TTL half catches one that leaves an expired entry in place.)

use coic_cache::{Digest, ExactCache, PolicyKind, ShardedExactCache, TinyLfuConfig};
use proptest::prelude::*;

/// Small enough that the 24-key working set never fits: eviction and the
/// admission gate decide on most inserts.
const CAPACITY: u64 = 100;

/// Short against the 100 – 400-step streams (one step is one virtual
/// nanosecond), so entries expire while the stream still looks them up.
const TTL_NS: u64 = 40;

fn digest(key: u8) -> Digest {
    Digest::of(&[key])
}

/// Size is a function of the key so a re-insert replaces like for like
/// (and GDSF sees three size classes).
fn size_of(key: u8) -> u64 {
    10 + u64::from(key % 3) * 10
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    #[test]
    fn one_shard_makes_the_decisions_of_a_bare_exact_cache(
        ops in prop::collection::vec((any::<bool>(), 0u8..24), 100..400),
    ) {
        for policy in PolicyKind::ALL {
            for admission in [None, Some(TinyLfuConfig::default())] {
                for ttl in [None, Some(TTL_NS)] {
                    let mut plain: ExactCache<u8> = ExactCache::new(CAPACITY, policy, ttl);
                    let mut sharded: ShardedExactCache<u8> =
                        ShardedExactCache::new(CAPACITY, policy, ttl, 1);
                    if let Some(cfg) = admission {
                        plain = plain.with_admission(cfg);
                        sharded = sharded.with_admission(cfg);
                    }
                    for (step, &(insert, key)) in ops.iter().enumerate() {
                        let now = step as u64;
                        if insert {
                            plain.insert(digest(key), key, size_of(key), now);
                            sharded.insert(digest(key), key, size_of(key), now);
                        } else {
                            let want = plain.lookup(&digest(key), now).copied();
                            let got = sharded.lookup_owned(&digest(key), now);
                            prop_assert_eq!(
                                got, want,
                                "{} admission={} ttl={:?} step {}: lookup of key {} diverged",
                                policy, admission.is_some(), ttl, step, key
                            );
                        }
                    }
                    let (p, s) = (*plain.stats(), sharded.metrics());
                    prop_assert_eq!(
                        (s.hits, s.misses, s.insertions, s.evictions, s.expired, s.admission_rejects),
                        (p.hits, p.misses, p.insertions, p.evictions, p.expired, p.admission_rejects),
                        "{} admission={} ttl={:?}: counters diverged",
                        policy, admission.is_some(), ttl
                    );
                }
            }
        }
    }
}
