//! Integration suite for the persisted `.pfdi` discovery index.
//!
//! The contract under test: a warm load must reproduce the cold build's
//! dependency set *exactly*, and a stale, corrupt, foreign, or torn index
//! must always fall back to a cold build — a `.pfdi` can cost time, never
//! correctness. Corruption fixtures cover truncation at sampled byte
//! positions, flipped bytes, a future format version, and every staleness
//! axis of the key (relation contents, snapshot generation, index-shaping
//! configuration). A [`FailpointIo`] fuel sweep then crashes the
//! save → discover → re-save sequence at every sampled write point and
//! checks that the surviving file state still yields the reference output
//! and heals into a warm-loadable index.

use std::path::Path;

use pfd_discovery::warm::INDEX_FORMAT_VERSION;
use pfd_discovery::{
    discover, discover_persistent, load_index, DiscoveryConfig, DiscoveryResult, IndexFallback,
    IndexKey,
};
use pfd_relation::binary::{put_varint, SectionWriter};
use pfd_relation::{FailpointIo, Io, MemIo, Relation, Schema};

const INDEX: &str = "/store/geo.pfdi";

/// Zip → city data with two deliberate inconsistencies: enough structure
/// for discovery to emit dependencies, enough noise to exercise tableau
/// generalization.
fn geo_relation() -> Relation {
    let mut rel = Relation::empty(Schema::new("geo", ["zip", "city", "phone"]).unwrap());
    let cities = [
        ("900", "Los Angeles", "213"),
        ("606", "Chicago", "312"),
        ("100", "New York", "212"),
    ];
    for i in 0..36u32 {
        let (zip_prefix, city, area) = cities[(i % 3) as usize];
        let city = if i == 7 { "Chicago" } else { city };
        let area = if i == 11 { "999" } else { area };
        rel.push_row(vec![
            format!("{zip_prefix}{:02}", i / 3),
            city.to_string(),
            format!("{area}-555-{:04}", 100 + i),
        ])
        .unwrap();
    }
    rel
}

fn config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 2,
        ..DiscoveryConfig::default()
    }
}

/// The byte-identity oracle: the full debug rendering of the dependency
/// vector (tableaux, coverage counts, kinds — everything).
fn deps(result: &DiscoveryResult) -> String {
    format!("{:#?}", result.dependencies)
}

#[test]
fn warm_load_reproduces_cold_dependencies_exactly() {
    let rel = geo_relation();
    let cfg = config();
    let reference = discover(&rel, &cfg);
    assert!(
        !reference.dependencies.is_empty(),
        "fixture must discover something or the oracle is vacuous"
    );

    let io = MemIo::new();
    let first = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
    assert_eq!(first.fallback, Some(IndexFallback::Missing));
    assert!(!first.result.stats.index_loaded);
    assert!(first.saved, "first run persists the index");
    assert_eq!(deps(&first.result), deps(&reference));

    let second = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
    assert_eq!(second.fallback, None);
    assert!(second.result.stats.index_loaded, "second run warm-starts");
    assert!(!second.saved, "a warm hit does not rewrite the index");
    assert_eq!(deps(&second.result), deps(&reference));
}

#[test]
fn lattice_thresholds_share_one_index() {
    // The config fingerprint covers only index-shaping knobs; changing a
    // lattice threshold must still warm-start from the same file.
    let rel = geo_relation();
    let io = MemIo::new();
    let saved = discover_persistent(&io, Path::new(INDEX), &rel, &config(), 0, 0);
    assert!(saved.saved);

    let stricter = DiscoveryConfig {
        min_support: 4,
        min_coverage: 0.9,
        ..config()
    };
    let warm = discover_persistent(&io, Path::new(INDEX), &rel, &stricter, 0, 0);
    assert!(
        warm.result.stats.index_loaded,
        "lattice knobs are not part of the index key: {:?}",
        warm.fallback
    );
    assert_eq!(deps(&warm.result), deps(&discover(&rel, &stricter)));
}

/// Snapshot saves canonicalize vocab interning order, so `pfd discover
/// --snapshot` sees a differently-interned (but value-identical) relation
/// on its second run. The fingerprint — and therefore the warm hit — must
/// not notice.
#[test]
fn reinterned_relation_still_warm_loads() {
    let rel = geo_relation();
    let cfg = config();
    let io = MemIo::new();
    let saved = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
    assert!(saved.saved);

    // Rebuild with every column's vocab reversed and cells remapped: same
    // values in the same rows, different interning history.
    let columns: Vec<(Vec<String>, Vec<u32>)> = rel
        .schema()
        .attr_ids()
        .map(|attr| {
            let (vocab, cells) = rel.column_parts(attr);
            let n = vocab.len() as u32;
            let reversed: Vec<String> = vocab.iter().rev().cloned().collect();
            let remapped: Vec<u32> = cells.iter().map(|&c| n - 1 - c).collect();
            (reversed, remapped)
        })
        .collect();
    let reinterned = Relation::from_columns(rel.schema().clone(), columns, rel.version()).unwrap();
    for attr in rel.schema().attr_ids() {
        assert_ne!(
            rel.column_parts(attr).0,
            reinterned.column_parts(attr).0,
            "fixture must actually change the interning order"
        );
    }

    let warm = discover_persistent(&io, Path::new(INDEX), &reinterned, &cfg, 0, 0);
    assert!(
        warm.result.stats.index_loaded,
        "interning order is not content: {:?}",
        warm.fallback
    );
    assert_eq!(deps(&warm.result), deps(&discover(&rel, &cfg)));
}

/// An edit can leave a value no cell holds in a column's vocabulary; a
/// snapshot save drops it. A relation recovered by replaying edits and its
/// snapshot reload hold the same rows, so they must share an index.
#[test]
fn dead_vocabulary_entries_do_not_change_the_fingerprint() {
    let mut edited = geo_relation();
    edited.delete_row(0).unwrap();
    let live_only: Vec<(Vec<String>, Vec<u32>)> = edited
        .schema()
        .attr_ids()
        .map(|attr| {
            let values: Vec<&str> = (0..edited.num_rows())
                .map(|row| edited.cell(row, attr))
                .collect();
            let mut vocab: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            vocab.sort();
            vocab.dedup();
            let cells = values
                .iter()
                .map(|v| vocab.binary_search_by(|w| w.as_str().cmp(v)).unwrap() as u32)
                .collect();
            (vocab, cells)
        })
        .collect();
    let reloaded =
        Relation::from_columns(edited.schema().clone(), live_only, edited.version()).unwrap();
    assert!(
        edited
            .schema()
            .attr_ids()
            .any(|attr| edited.column_parts(attr).0.len() > reloaded.column_parts(attr).0.len()),
        "fixture must leave a dead vocabulary entry"
    );

    let cfg = config();
    let io = MemIo::new();
    assert!(discover_persistent(&io, Path::new(INDEX), &edited, &cfg, 0, 0).saved);
    let warm = discover_persistent(&io, Path::new(INDEX), &reloaded, &cfg, 0, 0);
    assert!(
        warm.result.stats.index_loaded,
        "a dead vocabulary entry is not content: {:?}",
        warm.fallback
    );
    assert_eq!(deps(&warm.result), deps(&discover(&edited, &cfg)));
}

#[test]
fn changed_data_invalidates_the_index() {
    let rel = geo_relation();
    let cfg = config();
    let io = MemIo::new();
    assert!(discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0).saved);

    let mut changed = geo_relation();
    changed
        .set_cell(3, pfd_relation::AttrId(1), "Springfield".to_string())
        .unwrap();
    let run = discover_persistent(&io, Path::new(INDEX), &changed, &cfg, 0, 0);
    assert_eq!(run.fallback, Some(IndexFallback::RelationMismatch));
    assert!(!run.result.stats.index_loaded);
    assert!(run.saved, "the stale file is replaced");
    assert_eq!(deps(&run.result), deps(&discover(&changed, &cfg)));

    // The replacement is keyed to the new contents and warm-loads.
    let again = discover_persistent(&io, Path::new(INDEX), &changed, &cfg, 0, 0);
    assert!(again.result.stats.index_loaded);
}

#[test]
fn generation_and_config_mismatches_fall_back() {
    let rel = geo_relation();
    let cfg = config();
    let io = MemIo::new();
    assert!(discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 3, 17).saved);

    let other_gen = IndexKey::compute(&rel, &cfg, 4, 17);
    assert_eq!(
        load_index(&io, Path::new(INDEX), &other_gen).unwrap_err(),
        IndexFallback::GenerationMismatch
    );
    let other_seq = IndexKey::compute(&rel, &cfg, 3, 18);
    assert_eq!(
        load_index(&io, Path::new(INDEX), &other_seq).unwrap_err(),
        IndexFallback::GenerationMismatch
    );

    let mut other_cfg = cfg.clone();
    other_cfg.extract.full_enum_max_chars += 1;
    let key = IndexKey::compute(&rel, &other_cfg, 3, 17);
    assert_eq!(
        load_index(&io, Path::new(INDEX), &key).unwrap_err(),
        IndexFallback::ConfigMismatch
    );

    // End to end: the fallback still yields correct output and re-saves.
    let run = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 4, 0);
    assert_eq!(run.fallback, Some(IndexFallback::GenerationMismatch));
    assert!(run.saved);
    assert_eq!(deps(&run.result), deps(&discover(&rel, &cfg)));
}

#[test]
fn future_format_version_falls_back() {
    let rel = geo_relation();
    let cfg = config();
    let io = MemIo::new();

    // A structurally valid container whose META leads with a future
    // version; load must stop at the version check.
    let mut meta = Vec::new();
    put_varint(&mut meta, INDEX_FORMAT_VERSION + 1);
    let mut w = SectionWriter::new();
    w.add(1, meta);
    io.write(Path::new(INDEX), &w.finish()).unwrap();

    let key = IndexKey::compute(&rel, &cfg, 0, 0);
    assert_eq!(
        load_index(&io, Path::new(INDEX), &key).unwrap_err(),
        IndexFallback::VersionMismatch {
            found: INDEX_FORMAT_VERSION + 1
        }
    );
    let run = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
    assert!(run.saved);
    assert_eq!(deps(&run.result), deps(&discover(&rel, &cfg)));
}

#[test]
fn missing_file_reports_missing() {
    let rel = geo_relation();
    let key = IndexKey::compute(&rel, &config(), 0, 0);
    assert_eq!(
        load_index(&MemIo::new(), Path::new(INDEX), &key).unwrap_err(),
        IndexFallback::Missing
    );
}

/// A valid saved index as raw bytes, plus the reference output.
fn valid_index_bytes() -> (Vec<u8>, String) {
    let rel = geo_relation();
    let cfg = config();
    let io = MemIo::new();
    let run = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
    assert!(run.saved);
    (io.read(Path::new(INDEX)).unwrap(), deps(&run.result))
}

#[test]
fn every_sampled_truncation_falls_back_to_cold() {
    let (bytes, reference) = valid_index_bytes();
    let rel = geo_relation();
    let cfg = config();
    let key = IndexKey::compute(&rel, &cfg, 0, 0);
    let step = (bytes.len() / 48).max(1);
    for len in (0..bytes.len()).step_by(step).chain([bytes.len() - 1]) {
        let io = MemIo::new();
        io.write(Path::new(INDEX), &bytes[..len]).unwrap();
        let err = load_index(&io, Path::new(INDEX), &key)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, IndexFallback::Corrupt(_)),
            "truncation to {len} bytes must read as corrupt, got {err:?}"
        );
        let run = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
        assert_eq!(deps(&run.result), reference, "truncation to {len} bytes");
        assert!(run.saved, "the damaged file is replaced");
    }
}

#[test]
fn every_sampled_byte_flip_falls_back_to_cold() {
    let (bytes, reference) = valid_index_bytes();
    let rel = geo_relation();
    let cfg = config();
    let key = IndexKey::compute(&rel, &cfg, 0, 0);
    let step = (bytes.len() / 48).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0xFF;
        let io = MemIo::new();
        io.write(Path::new(INDEX), &flipped).unwrap();
        // Every flip lands under the container checksums (or mangles the
        // header/table) — the load must fail, never decode silently.
        assert!(
            load_index(&io, Path::new(INDEX), &key).is_err(),
            "flip at byte {pos} was not detected"
        );
        let run = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
        assert_eq!(deps(&run.result), reference, "flip at byte {pos}");
        let healed = discover_persistent(&io, Path::new(INDEX), &rel, &cfg, 0, 0);
        assert!(healed.result.stats.index_loaded, "flip at byte {pos}");
    }
}

/// Crash points to test: every fuel value under `PFD_FAULT_EXHAUSTIVE=1`,
/// otherwise ~64 evenly spaced points plus the boundaries.
fn fuel_points(total: u64) -> Vec<u64> {
    if std::env::var("PFD_FAULT_EXHAUSTIVE").as_deref() == Ok("1") {
        return (0..=total).collect();
    }
    let step = (total / 60).max(1) as usize;
    let mut points: Vec<u64> = (0..=total).step_by(step).collect();
    points.extend([1, total.saturating_sub(1), total]);
    points.sort_unstable();
    points.dedup();
    points
}

#[test]
fn crash_sweep_over_save_discover_resave_never_poisons_results() {
    let rel = geo_relation();
    let cfg = config();
    let reference = deps(&discover(&rel, &cfg));

    // Measure the fuel the full two-step sequence consumes: a cold save at
    // generation 0, then a generation bump that forces a fallback re-save.
    let probe = FailpointIo::unlimited(MemIo::new());
    assert!(discover_persistent(&probe, Path::new(INDEX), &rel, &cfg, 0, 0).saved);
    let resave = discover_persistent(&probe, Path::new(INDEX), &rel, &cfg, 1, 0);
    assert_eq!(resave.fallback, Some(IndexFallback::GenerationMismatch));
    assert!(resave.saved);
    let total = probe.consumed();

    for fuel in fuel_points(total) {
        let disk = MemIo::new();
        let faulty = FailpointIo::with_fuel(disk.clone(), fuel);

        // Crashing a save never changes what discovery returns.
        let r1 = discover_persistent(&faulty, Path::new(INDEX), &rel, &cfg, 0, 0);
        assert_eq!(deps(&r1.result), reference, "fuel {fuel}: first run");
        let r2 = discover_persistent(&faulty, Path::new(INDEX), &rel, &cfg, 1, 0);
        assert_eq!(deps(&r2.result), reference, "fuel {fuel}: re-save run");

        // Whatever torn state survived — a missing index, a `.tmp` nobody
        // reads, an old-generation file — a clean run over it must produce
        // the reference output and heal into a warm-loadable index.
        let r3 = discover_persistent(&disk, Path::new(INDEX), &rel, &cfg, 1, 0);
        assert_eq!(deps(&r3.result), reference, "fuel {fuel}: recovery run");
        assert!(
            r3.result.stats.index_loaded || r3.saved,
            "fuel {fuel}: recovery neither warm-started nor re-saved"
        );
        let r4 = discover_persistent(&disk, Path::new(INDEX), &rel, &cfg, 1, 0);
        assert!(
            r4.result.stats.index_loaded,
            "fuel {fuel}: index still cold after a clean save"
        );
        assert_eq!(deps(&r4.result), reference, "fuel {fuel}: warm run");
    }
}
