//! Property-based tests for the block-compressed posting lists: random edit
//! scripts straddling the 128-entry block boundaries against a `BTreeSet`
//! model, representation equivalence of `eq`/`hash` across the sorted,
//! blocked and dense tiers, set-algebra agreement with the model, union
//! accumulation through [`RowSetAccumulator`], and the wire decode that
//! PFDS snapshots and `.pfdi` index files share, followed by edits.

use pfd_relation::binary::{decode_postings, encode_postings};
use pfd_relation::{Cursor, PostingList, RowSetAccumulator};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const UNIVERSE: usize = 40_000;

fn hash_of(list: &PostingList) -> u64 {
    let mut h = DefaultHasher::new();
    list.hash(&mut h);
    h.finish()
}

/// Ids biased toward block-boundary neighborhoods: the 128-entry build
/// chunks put boundaries at every 128th element of the sorted run, so seeds
/// clustered around multiples of 128 in id space (with stride-1 runs) make
/// edits land on first/last elements of blocks often.
fn boundary_biased_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Anywhere in the universe.
        0u32..(UNIVERSE as u32),
        // Within a couple of a multiple of 128.
        (0u32..300, 0u32..4).prop_map(|(k, off)| (k * 128 + off).min(UNIVERSE as u32 - 1)),
    ]
}

/// A seed set large enough to be stored blocked (≥ 256 ids, sparse). The
/// raw draw is a vec (the vendored proptest has no btree_set collector), so
/// dedup can land below 256 — pad with a deterministic stride-3 run to keep
/// the blocked tier engaged.
fn blocked_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    proptest::collection::vec(boundary_biased_id(), 256..700).prop_map(|ids| {
        let mut set: BTreeSet<u32> = ids.into_iter().collect();
        let mut pad = 0u32;
        while set.len() < 256 {
            set.insert(pad * 3);
            pad += 1;
        }
        set
    })
}

/// A small set that `from_sorted` keeps in the sorted tier (< 256 ids).
fn sorted_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    proptest::collection::vec(boundary_biased_id(), 0..100)
        .prop_map(|ids| ids.into_iter().collect())
}

/// A contiguous run dense enough (≥ universe/16 ids) for the bitset tier.
fn dense_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    (0u32..30_000, 2_500u32..2_800).prop_map(|(start, len)| (start..start + len).collect())
}

/// A seed from any of the three storage tiers.
fn any_tier_seed() -> impl Strategy<Value = BTreeSet<u32>> {
    prop_oneof![sorted_seed(), blocked_seed(), dense_seed()]
}

#[derive(Debug, Clone)]
enum EditOp {
    Insert(u32),
    Remove(u32),
}

fn edit_script() -> impl Strategy<Value = Vec<EditOp>> {
    proptest::collection::vec(
        prop_oneof![
            boundary_biased_id().prop_map(EditOp::Insert),
            boundary_biased_id().prop_map(EditOp::Remove),
        ],
        0..200,
    )
}

proptest! {
    /// Random insert/remove scripts over a blocked list agree with a
    /// `BTreeSet` model at every step, and the final list is equal (and
    /// hash-equal) to a canonically rebuilt one.
    #[test]
    fn edit_scripts_agree_with_set_model(seed in blocked_seed(), script in edit_script()) {
        let mut model = seed.clone();
        let mut list = PostingList::from_sorted(seed.iter().copied().collect(), UNIVERSE);
        prop_assert!(list.is_blocked_repr(), "seed sizes must exercise the blocked tier");
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
        // Mutated block partitions are non-canonical; equality and hash must
        // not notice.
        let rebuilt = PostingList::from_sorted(model.iter().copied().collect(), UNIVERSE);
        prop_assert_eq!(&list, &rebuilt);
        prop_assert_eq!(hash_of(&list), hash_of(&rebuilt));
    }

    /// The same id set reached through different public-API paths — and
    /// therefore possibly different storage tiers — compares and hashes
    /// identically. Removal never demotes, so shrinking a blocked list far
    /// below the block threshold (or a dense one far below the density bound)
    /// yields a representation `from_sorted` would not pick.
    #[test]
    fn representations_are_equivalent_under_eq_and_hash(
        seed in blocked_seed(),
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

        // Path 1: blocked, then shrunk in place (stays blocked).
        let mut shrunk_blocked = PostingList::from_sorted(ids.clone(), UNIVERSE);
        // Path 2: dense (tight universe), then shrunk in place (stays dense).
        let tight = ids.last().map_or(1, |m| *m as usize + 1);
        let mut shrunk_dense = PostingList::from_sorted(ids.clone(), tight.max(seed.len() * 16));
        // Path 3: rebuilt canonically from the survivors.
        let rebuilt = PostingList::from_sorted(kept.clone(), UNIVERSE);

        for (i, id) in ids.iter().enumerate() {
            if drop.contains(&i) {
                shrunk_blocked.remove(*id as usize);
                shrunk_dense.remove(*id as usize);
            }
        }

        prop_assert_eq!(shrunk_blocked.to_vec(), kept.clone());
        prop_assert_eq!(&shrunk_blocked, &rebuilt);
        prop_assert_eq!(hash_of(&shrunk_blocked), hash_of(&rebuilt));
        // Dense and blocked/sorted share universe-independent equality only
        // when universes match, so compare the dense pair separately.
        let rebuilt_tight =
            PostingList::from_sorted(kept.clone(), shrunk_dense.universe());
        prop_assert_eq!(&shrunk_dense, &rebuilt_tight);
        prop_assert_eq!(hash_of(&shrunk_dense), hash_of(&rebuilt_tight));
    }

    /// Intersection and subset checks across mixed representations agree
    /// with the `BTreeSet` model.
    #[test]
    fn set_algebra_agrees_with_model(a in blocked_seed(), b in blocked_seed()) {
        let la = PostingList::from_sorted(a.iter().copied().collect(), UNIVERSE);
        let lb = PostingList::from_sorted(b.iter().copied().collect(), UNIVERSE);
        let expected: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(la.intersect(&lb).to_vec(), expected.clone());
        prop_assert_eq!(lb.intersect(&la).to_vec(), expected.clone());
        let mut out = Vec::new();
        la.intersect_into(&lb, &mut out);
        prop_assert_eq!(out, expected.clone());

        prop_assert_eq!(la.is_subset(&lb), a.is_subset(&b));
        // A genuine subset, blocked-sized, checked in both directions.
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
        loose in proptest::collection::vec(boundary_biased_id(), 0..120),
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

    /// A blocked list decoded from the wire payload that PFDS `GROUPS`
    /// sections and `.pfdi` files share, read from a nonzero cursor
    /// position, is indistinguishable from the list it was encoded from:
    /// equal, hash-equal, re-encodes byte-identically, and after an edit
    /// script (what the engine does to decoded group row sets) still agrees
    /// with the `BTreeSet` model and a canonical rebuild.
    #[test]
    fn shared_payload_decode_is_equivalent_to_owned(
        seed in blocked_seed(),
        script in edit_script(),
    ) {
        let owned = PostingList::from_sorted(seed.iter().copied().collect(), UNIVERSE);
        prop_assert!(owned.is_blocked_repr());
        let mut reference = Vec::new();
        encode_postings(&mut reference, &owned);

        // Nonzero leading padding: block payload offsets must be relative to
        // the decoded list's own buffer, not the cursor position.
        const BASE: usize = 11;
        let mut bytes = vec![0xA5u8; BASE];
        bytes.extend_from_slice(&reference);
        let mut cur = Cursor::new(&bytes);
        cur.get_bytes(BASE).unwrap();
        let mut decoded = decode_postings(&mut cur).unwrap();
        prop_assert!(cur.is_empty());
        prop_assert!(decoded.is_blocked_repr());
        prop_assert_eq!(&decoded, &owned);
        prop_assert_eq!(hash_of(&decoded), hash_of(&owned));

        let mut re = Vec::new();
        encode_postings(&mut re, &decoded);
        prop_assert_eq!(re, reference);

        // Each edit re-encodes one block; payloads stay contiguous, so
        // every splice must land exactly where the next block begins.
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
}
