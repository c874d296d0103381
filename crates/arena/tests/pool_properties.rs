//! Property tests for the persistent trace pool's determinism contract:
//! the pool after a generation's full pass (rescore → evict → insert →
//! save) must be independent of the order the harvest batch arrives in,
//! and a redone pass must land on the same bytes — the two properties
//! the arena's bit-identical kill+resume leans on.

use arena::TracePool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traces::{Segment, Trace};

/// A deterministic synthetic trace whose content is a function of `tag`.
fn trace(tag: u64) -> Trace {
    let bw = 0.8 + 0.1 * (tag % 40) as f64;
    Trace::new(
        format!("prop-{tag}"),
        vec![Segment::bw(4.0, bw, 80.0), Segment::bw(4.0, bw + 0.05, 80.0)],
    )
}

/// Deterministic pseudo-damage for `(tag, gen)`.
fn damage(tag: u64, gen: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(tag.wrapping_mul(31).wrapping_add(gen));
    rng.gen_range(-0.5..1.0)
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..(i + 1) as u64) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Run `gens` generations of the standard pool pass over the same tag
/// batches, feeding each generation's inserts in the order given by
/// `order_seed`. Returns the final pool.
fn run_passes(tags: &[u64], gens: u64, order_seed: u64, evict_damage: f64) -> TracePool {
    let mut pool = TracePool::new();
    for g in 1..=gens {
        pool.rescore(g, |t| {
            // recover the tag from the trace's first-segment bandwidth
            let tag = ((t.segments[0].bandwidth_mbps - 0.8) / 0.1).round() as u64;
            damage(tag, g)
        });
        pool.evict(g, evict_damage, 1);
        // damage is keyed by the item's original batch position, so two
        // items with identical content can carry different damages —
        // the permutation then exercises the commutative max-merge
        for &i in &permutation(tags.len(), order_seed.wrapping_add(g)) {
            pool.insert(trace(tags[i]), damage(i as u64, g), g);
        }
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Insert order never changes the pool: entries are kept in
    /// canonical hash order and same-generation duplicate merges are
    /// commutative, so any two arrival orders of the same batches give
    /// structurally equal pools — including the eviction bookkeeping.
    #[test]
    fn pool_state_is_insert_order_invariant(
        seed_a in 0_u64..1_000,
        seed_b in 1_000_u64..2_000,
        n in 1_usize..24,
        gens in 1_u64..5,
    ) {
        // duplicate tags on purpose: `% 40` in `trace()` collides tags
        // into identical content, exercising the dedup merge path
        let tags: Vec<u64> = (0..n as u64).map(|i| i % ((n as u64 / 2).max(1))).collect();
        let a = run_passes(&tags, gens, seed_a, 0.2);
        let b = run_passes(&tags, gens, seed_b, 0.2);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.evicted_total, b.evicted_total);
    }

    /// Redoing the last generation's pass (what a resumed process does
    /// after a crash between the pool save and the arena state save) is
    /// a no-op: the per-generation guards make rescore and evict skip,
    /// and re-inserting the same batch merges idempotently.
    #[test]
    fn redo_of_a_generation_pass_is_idempotent(
        seed in 0_u64..1_000,
        n in 1_usize..16,
        gens in 1_u64..4,
    ) {
        let tags: Vec<u64> = (0..n as u64).collect();
        let done = run_passes(&tags, gens, seed, 0.2);
        let mut redone = done.clone();
        // blindly repeat generation `gens`'s full pass
        redone.rescore(gens, |_| panic!("rescore must be guarded on redo"));
        redone.evict(gens, 0.2, 1);
        for &t in &tags {
            redone.insert(trace(t), damage(t % 40, gens), gens);
        }
        prop_assert_eq!(&redone, &done);
    }

    /// Serialization is canonical: structurally equal pools produce
    /// byte-identical files regardless of the insert order that built
    /// them (the kill+resume test compares pool files with `cmp`).
    #[test]
    fn equal_pools_serialize_to_equal_bytes(
        seed_a in 0_u64..500,
        seed_b in 500_u64..1_000,
        n in 1_usize..16,
    ) {
        let tags: Vec<u64> = (0..n as u64).collect();
        let a = run_passes(&tags, 2, seed_a, 0.2);
        let b = run_passes(&tags, 2, seed_b, 0.2);
        // a directory of its own per process and test: no other test or
        // concurrent run of this suite can race on the `.tmp` rename
        let dir = std::env::temp_dir()
            .join(format!("advnet-arena-prop-{}", std::process::id()))
            .join("equal_pools_serialize");
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join(format!("a-{seed_a}-{seed_b}-{n}.pool"));
        let pb = dir.join(format!("b-{seed_a}-{seed_b}-{n}.pool"));
        a.try_save(&pa).unwrap();
        b.try_save(&pb).unwrap();
        let (ba, bb) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        prop_assert_eq!(ba, bb);
    }
}
