//! Binary serializers for discovery index structures.
//!
//! The snapshot format (`pfd_core::snapshot`) persists engine state; this
//! module provides the matching codecs for the discovery side — fragment
//! dictionaries and index-entry blocks — built on the same
//! [`pfd_relation::binary`] primitives (varints, front coding, delta-gap
//! postings), so the `.pfdi` index cache ([`crate::warm`]) can persist a
//! built [`AttrIndex`](crate::index::AttrIndex) instead of re-extracting
//! fragments on every start.
//!
//! Symbols are interning-order indexes, so a dictionary round-trips by
//! re-interning its fragments in symbol order: `decode_dict(encode_dict(d))`
//! yields a dictionary where every `Symbol` resolves identically.

use pfd_relation::binary::{
    decode_postings, encode_postings, put_string, put_varint, BinaryError, Cursor,
};

use crate::index::{FragmentDict, IndexEntry, Symbol};

/// Encode a fragment dictionary: fragment count, then each fragment in
/// symbol order (length-prefixed — interning order is not sorted, so front
/// coding does not apply here).
pub fn encode_dict(out: &mut Vec<u8>, dict: &FragmentDict) {
    put_varint(out, dict.len() as u64);
    for i in 0..dict.len() {
        put_string(out, dict.resolve(Symbol::from_index(i)));
    }
}

/// Decode a fragment dictionary written by [`encode_dict`], preserving
/// every symbol's index.
pub fn decode_dict(cur: &mut Cursor<'_>) -> Result<FragmentDict, BinaryError> {
    let count = cur.get_len()?;
    let mut dict = FragmentDict::default();
    for expected in 0..count {
        let s = cur.get_string()?;
        let sym = dict.intern(&s);
        if sym.index() != expected {
            return Err(BinaryError::Corrupt(format!(
                "duplicate fragment {s:?} in dictionary"
            )));
        }
    }
    Ok(dict)
}

/// Encode a block of index entries (patterns as symbol indexes, row sets as
/// delta-gap postings).
pub fn encode_entries(out: &mut Vec<u8>, entries: &[IndexEntry]) {
    put_varint(out, entries.len() as u64);
    for e in entries {
        put_varint(out, e.pattern.index() as u64);
        put_varint(out, u64::from(e.chars));
        put_varint(out, u64::from(e.pos));
        encode_postings(out, &e.rows);
    }
}

/// Decode an entry block written by [`encode_entries`], validating every
/// pattern symbol against `dict`.
pub fn decode_entries(
    cur: &mut Cursor<'_>,
    dict: &FragmentDict,
) -> Result<Vec<IndexEntry>, BinaryError> {
    let count = cur.get_len()?;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let pattern = cur.get_index()?;
        if pattern >= dict.len() {
            return Err(BinaryError::Corrupt(format!(
                "entry references symbol {pattern} outside the dictionary"
            )));
        }
        let chars = u32::try_from(cur.get_varint()?)
            .map_err(|_| BinaryError::Corrupt("entry chars overflows u32".into()))?;
        let pos = u32::try_from(cur.get_varint()?)
            .map_err(|_| BinaryError::Corrupt("entry pos overflows u32".into()))?;
        let rows = decode_postings(cur)?;
        entries.push(IndexEntry {
            pattern: Symbol::from_index(pattern),
            chars,
            pos,
            rows,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfd_relation::PostingList;

    #[test]
    fn dict_round_trips_with_stable_symbols() {
        let mut dict = FragmentDict::default();
        let syms: Vec<Symbol> = ["los", "angeles", "new", "york", ""]
            .iter()
            .map(|s| dict.intern(s))
            .collect();
        let mut buf = Vec::new();
        encode_dict(&mut buf, &dict);
        let mut cur = Cursor::new(&buf);
        let back = decode_dict(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.len(), dict.len());
        for &sym in &syms {
            assert_eq!(back.resolve(sym), dict.resolve(sym));
        }
    }

    #[test]
    fn entries_round_trip_against_their_dict() {
        let mut dict = FragmentDict::default();
        let a = dict.intern("601");
        let b = dict.intern("900");
        let entries = vec![
            IndexEntry {
                pattern: a,
                chars: 3,
                pos: 0,
                rows: PostingList::from_sorted(vec![0, 2, 5], 10),
            },
            IndexEntry {
                pattern: b,
                chars: 3,
                pos: 1,
                rows: PostingList::from_sorted(vec![1, 3], 10),
            },
        ];
        let mut buf = Vec::new();
        encode_entries(&mut buf, &entries);
        let mut cur = Cursor::new(&buf);
        let back = decode_entries(&mut cur, &dict).unwrap();
        assert_eq!(back.len(), 2);
        for (orig, got) in entries.iter().zip(&back) {
            assert_eq!(got.pattern, orig.pattern);
            assert_eq!(got.chars, orig.chars);
            assert_eq!(got.pos, orig.pos);
            assert_eq!(got.rows.to_vec(), orig.rows.to_vec());
        }
    }

    #[test]
    fn corrupt_entry_blocks_error_not_panic() {
        let mut dict = FragmentDict::default();
        dict.intern("x");
        // Entry referencing symbol 7 in a 1-symbol dictionary.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // one entry
        put_varint(&mut buf, 7); // bad symbol
        let mut cur = Cursor::new(&buf);
        assert!(decode_entries(&mut cur, &dict).is_err());
        // Truncated dictionary.
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        put_string(&mut buf, "only one");
        let mut cur = Cursor::new(&buf);
        assert!(decode_dict(&mut cur).is_err());
    }
}
