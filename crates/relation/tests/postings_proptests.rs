//! Property-based tests for the posting lists: random edit scripts against a
//! `BTreeSet` model, representation equivalence of `eq`/`hash` across the
//! sorted and dense tiers, set-algebra agreement with the model, union
//! accumulation through [`RowSetAccumulator`], the wire decode that PFDS
//! snapshots and `.pfdi` index files share (followed by edits), and that
//! decode on arbitrary and mutated bytes never panics.

use pfd_relation::binary::{decode_postings, encode_postings};
use pfd_relation::{Cursor, PostingList, RowSetAccumulator};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const UNIVERSE: usize = 40_000;

fn hash_of(list: &PostingList) -> u64 {
    let mut h = DefaultHasher::new();
    list.hash(&mut h);
    h.finish()
}

/// Ids spread over the universe, half of them clustered within a few ids
/// of a multiple of 128, so seeds mix stride-1 runs with wide gaps and
/// edits often hit existing ids.
fn clustered_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Anywhere in the universe.
        0u32..(UNIVERSE as u32),
        // Within a couple of a multiple of 128.
        (0u32..300, 0u32..4).prop_map(|(k, off)| (k * 128 + off).min(UNIVERSE as u32 - 1)),
    ]
}

/// A large sparse seed set (≥ 256 ids, far below the 1/16 density bound).
/// The raw draw is a vec (the vendored proptest has no btree_set
/// collector), so dedup can land below 256 — pad with a deterministic
/// stride-3 run to keep it large.
fn large_sparse_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    proptest::collection::vec(clustered_id(), 256..700).prop_map(|ids| {
        let mut set: BTreeSet<u32> = ids.into_iter().collect();
        let mut pad = 0u32;
        while set.len() < 256 {
            set.insert(pad * 3);
            pad += 1;
        }
        set
    })
}

/// A small set (< 100 ids).
fn sorted_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    proptest::collection::vec(clustered_id(), 0..100).prop_map(|ids| ids.into_iter().collect())
}

/// A contiguous run dense enough (≥ universe/16 ids) for the bitset tier.
fn dense_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    (0u32..30_000, 2_500u32..2_800).prop_map(|(start, len)| (start..start + len).collect())
}

/// A seed of any shape: small, large sparse or dense.
fn any_tier_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    prop_oneof![sorted_seed(), large_sparse_seed(), dense_seed()]
}

#[derive(Debug, Clone)]
enum EditOp {
    Insert(u32),
    Remove(u32),
}

fn edit_script() -> impl Strategy<Value = Vec<EditOp>> {
    proptest::collection::vec(
        prop_oneof![
            clustered_id().prop_map(EditOp::Insert),
            clustered_id().prop_map(EditOp::Remove),
        ],
        0..200,
    )
}

/// SplitMix64: every byte a decode case draws derives from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A byte that is small (a one-byte varint) half the time, so random
    /// strings often parse past the header.
    fn byte(&mut self) -> u8 {
        if self.below(2) == 0 {
            self.below(16) as u8
        } else {
            self.next() as u8
        }
    }
}

/// A valid encoding of a small list: sparse over a universe up to
/// `u32::MAX`, or dense over a small one.
fn valid_encoding(rng: &mut Rng) -> Vec<u8> {
    let list = if rng.below(2) == 0 {
        let universe = 1 + rng.below(u64::from(u32::MAX)) as usize;
        let ids = (0..rng.below(24))
            .map(|_| rng.below(universe as u64) as u32)
            .collect();
        PostingList::from_unsorted(ids, universe)
    } else {
        let universe = 64 + rng.below(256) as usize;
        let ids = (0..universe as u32).filter(|_| rng.below(3) == 0).collect();
        PostingList::from_sorted(ids, universe)
    };
    let mut bytes = Vec::new();
    encode_postings(&mut bytes, &list);
    bytes
}

/// Decode `bytes` (which must not panic); an `Ok` list must re-encode to
/// exactly the bytes the decoder consumed.
fn decode_reencodes_exactly(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let mut cur = Cursor::new(bytes);
    let Ok(list) = decode_postings(&mut cur) else {
        return Ok(false);
    };
    let mut re = Vec::new();
    encode_postings(&mut re, &list);
    prop_assert_eq!(&re[..], &bytes[..cur.position()], "input {:?}", bytes);
    Ok(true)
}

proptest! {
    /// Random insert/remove scripts over a large sparse list agree with a
    /// `BTreeSet` model at every step, and the final list is equal (and
    /// hash-equal) to a canonically rebuilt one.
    #[test]
    fn edit_scripts_agree_with_set_model(seed in large_sparse_seed(), script in edit_script()) {
        let mut model = seed.clone();
        let mut list = PostingList::from_sorted(seed.iter().copied().collect(), UNIVERSE);
        for op in script {
            match op {
                EditOp::Insert(id) => {
                    prop_assert_eq!(list.insert(id as usize), model.insert(id));
                }
                EditOp::Remove(id) => {
                    prop_assert_eq!(list.remove(id as usize), model.remove(&id));
                }
            }
            prop_assert_eq!(list.len(), model.len());
        }
        prop_assert_eq!(list.to_vec(), model.iter().copied().collect::<Vec<u32>>());
        let rebuilt = PostingList::from_sorted(model.iter().copied().collect(), UNIVERSE);
        prop_assert_eq!(&list, &rebuilt);
        prop_assert_eq!(hash_of(&list), hash_of(&rebuilt));
    }

    /// The same id set reached through different public-API paths — and
    /// therefore possibly different storage tiers — compares and hashes
    /// identically. Removal never demotes, so shrinking a dense list far
    /// below the density bound yields a representation `from_sorted` would
    /// not pick.
    #[test]
    fn representations_are_equivalent_under_eq_and_hash(
        seed in large_sparse_seed(),
        drop_raw in proptest::collection::vec(0usize..700, 0..500),
    ) {
        let drop: BTreeSet<usize> = drop_raw.into_iter().collect();
        let ids: Vec<u32> = seed.iter().copied().collect();
        let kept: Vec<u32> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop.contains(i))
            .map(|(_, id)| *id)
            .collect();

        // Path 1: sorted, then shrunk in place.
        let mut shrunk_sorted = PostingList::from_sorted(ids.clone(), UNIVERSE);
        // Path 2: dense (tight universe), then shrunk in place (stays dense).
        let tight = ids.last().map_or(1, |m| *m as usize + 1);
        let mut shrunk_dense = PostingList::from_sorted(ids.clone(), tight.max(seed.len() * 16));
        // Path 3: rebuilt canonically from the survivors.
        let rebuilt = PostingList::from_sorted(kept.clone(), UNIVERSE);

        for (i, id) in ids.iter().enumerate() {
            if drop.contains(&i) {
                shrunk_sorted.remove(*id as usize);
                shrunk_dense.remove(*id as usize);
            }
        }

        prop_assert_eq!(shrunk_sorted.to_vec(), kept.clone());
        prop_assert_eq!(&shrunk_sorted, &rebuilt);
        prop_assert_eq!(hash_of(&shrunk_sorted), hash_of(&rebuilt));
        // Dense and sorted lists are compared at equal universes, so check
        // the dense pair against a rebuild at its own universe.
        let rebuilt_tight =
            PostingList::from_sorted(kept.clone(), shrunk_dense.universe());
        prop_assert_eq!(&shrunk_dense, &rebuilt_tight);
        prop_assert_eq!(hash_of(&shrunk_dense), hash_of(&rebuilt_tight));
    }

    /// Intersection and subset checks across mixed representations agree
    /// with the `BTreeSet` model.
    #[test]
    fn set_algebra_agrees_with_model(a in large_sparse_seed(), b in large_sparse_seed()) {
        let la = PostingList::from_sorted(a.iter().copied().collect(), UNIVERSE);
        let lb = PostingList::from_sorted(b.iter().copied().collect(), UNIVERSE);
        let expected: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(la.intersect(&lb).to_vec(), expected.clone());
        prop_assert_eq!(lb.intersect(&la).to_vec(), expected.clone());
        let mut out = Vec::new();
        la.intersect_into(&lb, &mut out);
        prop_assert_eq!(out, expected.clone());

        prop_assert_eq!(la.is_subset(&lb), a.is_subset(&b));
        // A genuine subset of ≥ 128 ids, checked in both directions.
        let sub: Vec<u32> = a.iter().copied().step_by(2).collect();
        let ls = PostingList::from_sorted(sub, UNIVERSE);
        prop_assert!(ls.is_subset(&la));
        prop_assert_eq!(la.is_subset(&ls), la.len() == ls.len());

        // The intersection list itself behaves: every member is contained
        // in both operands.
        let meet = la.intersect(&lb);
        prop_assert!(meet
            .iter()
            .all(|id| la.contains(id as usize) && lb.contains(id as usize)));
    }

    /// Unioning lists of mixed storage tiers (plus loose single inserts)
    /// through `RowSetAccumulator` matches a `BTreeSet` model, and the
    /// produced `PostingList` is equal (and hash-equal) to a canonical
    /// rebuild — pinning the per-tier fast paths in `insert_all` and the
    /// dense word-adoption in `into_posting_list`.
    #[test]
    fn accumulator_union_matches_model(
        seeds in proptest::collection::vec(any_tier_seed(), 1..5),
        loose in proptest::collection::vec(clustered_id(), 0..120),
    ) {
        let mut acc = RowSetAccumulator::new(UNIVERSE);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for seed in &seeds {
            let list = PostingList::from_sorted(seed.iter().copied().collect(), UNIVERSE);
            acc.insert_all(&list);
            model.extend(seed.iter().copied());
            prop_assert_eq!(acc.len(), model.len());
        }
        for &id in &loose {
            acc.insert(id as usize);
            model.insert(id);
        }
        prop_assert_eq!(acc.len(), model.len());
        let got = acc.into_posting_list();
        prop_assert_eq!(got.to_vec(), model.iter().copied().collect::<Vec<u32>>());
        let rebuilt = PostingList::from_sorted(model.iter().copied().collect(), UNIVERSE);
        prop_assert_eq!(&got, &rebuilt);
        prop_assert_eq!(hash_of(&got), hash_of(&rebuilt));
    }

    /// A large sparse list decoded from the wire payload that PFDS `GROUPS`
    /// sections and `.pfdi` files share, read from a nonzero cursor
    /// position, is indistinguishable from the list it was encoded from:
    /// equal, hash-equal, re-encodes byte-identically, and after an edit
    /// script (what the engine does to decoded group row sets) still agrees
    /// with the `BTreeSet` model and a canonical rebuild.
    #[test]
    fn shared_payload_decode_is_equivalent_to_owned(
        seed in large_sparse_seed(),
        script in edit_script(),
    ) {
        let owned = PostingList::from_sorted(seed.iter().copied().collect(), UNIVERSE);
        let mut reference = Vec::new();
        encode_postings(&mut reference, &owned);

        // Nonzero leading padding: decoding starts mid-buffer.
        const BASE: usize = 11;
        let mut bytes = vec![0xA5u8; BASE];
        bytes.extend_from_slice(&reference);
        let mut cur = Cursor::new(&bytes);
        cur.get_bytes(BASE).unwrap();
        let mut decoded = decode_postings(&mut cur).unwrap();
        prop_assert!(cur.is_empty());
        prop_assert_eq!(&decoded, &owned);
        prop_assert_eq!(hash_of(&decoded), hash_of(&owned));

        let mut re = Vec::new();
        encode_postings(&mut re, &decoded);
        prop_assert_eq!(re, reference);

        let mut model = seed.clone();
        for op in script {
            match op {
                EditOp::Insert(id) => {
                    prop_assert_eq!(decoded.insert(id as usize), model.insert(id));
                }
                EditOp::Remove(id) => {
                    prop_assert_eq!(decoded.remove(id as usize), model.remove(&id));
                }
            }
        }
        prop_assert_eq!(decoded.to_vec(), model.iter().copied().collect::<Vec<u32>>());
        let rebuilt = PostingList::from_sorted(model.iter().copied().collect(), UNIVERSE);
        prop_assert_eq!(&decoded, &rebuilt);
        prop_assert_eq!(hash_of(&decoded), hash_of(&rebuilt));
    }

    /// `decode_postings` on arbitrary short byte strings and on every
    /// single-byte mutation of a valid encoding returns `Ok` or `Err`, never
    /// panics, and an `Ok` list re-encodes to exactly the bytes it consumed.
    /// Each case derives from one seed, logged before it runs, because the
    /// vendored proptest does not shrink.
    #[test]
    fn decode_never_panics_and_reencodes_what_it_accepts(seed in any::<u64>()) {
        eprintln!("postings decode case seed {seed}");
        let mut rng = Rng(seed);
        let random: Vec<u8> = (0..rng.below(48)).map(|_| rng.byte()).collect();
        decode_reencodes_exactly(&random)?;
        let valid = valid_encoding(&mut rng);
        prop_assert!(decode_reencodes_exactly(&valid)?, "seed {}", seed);
        for at in 0..valid.len() {
            let mut mutated = valid.clone();
            mutated[at] ^= 1 + rng.below(255) as u8;
            decode_reencodes_exactly(&mutated)?;
        }
    }
}
