//! Workload inputs, generated from the seed with `pfd_datagen` and written
//! as files: the `pfd` binary only ever sees these files.

use pfd_core::Pfd;
use pfd_datagen::{dirty_clean_pair, geo_cascade_table, ErrorProfile, GroundTruthDep};
use pfd_relation::{read_csv_str, write_csv_string, AttrId, Relation};
use std::collections::BTreeMap;
use std::path::Path;

/// Rate of correlated errors in city/county/state/region (as the repair
/// bench injects them).
pub const GEO_ERROR_RATE: f64 = 0.005;

/// A dirty table on disk with everything needed to score what the binary
/// does with it.
pub struct BatchInput {
    /// CSV file name inside the work directory.
    pub csv: String,
    /// The dirty relation exactly as the binary reads it back.
    pub dirty: Relation,
    /// Its clean twin (same relation name, so relations compare directly).
    pub clean: Relation,
    /// Cells where `dirty` differs from `clean`.
    pub error_cells: usize,
    /// Dependencies discovery should find.
    pub truth: Vec<GroundTruthDep>,
}

/// Write `rel` as CSV to `dir/name` and read it back the way the CLI does
/// (relation named after the file stem), so in-process oracles see exactly
/// the binary's input.
pub fn write_table(dir: &Path, name: &str, rel: &Relation) -> Relation {
    let text = write_csv_string(rel);
    std::fs::write(dir.join(name), &text).expect("write input CSV");
    read_back(name, &text)
}

fn read_back(name: &str, text: &str) -> Relation {
    read_csv_str(stem(name), text).expect("generated CSV parses")
}

/// The relation name the CLI gives a CSV file: its stem.
pub fn stem(file: &str) -> &str {
    Path::new(file)
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("file names are plain ASCII")
}

/// Re-label `rel` under another relation name (cells unchanged).
fn renamed(rel: &Relation, name: &str) -> Relation {
    read_back(name, &write_csv_string(rel))
}

fn attr(rel: &Relation, name: &str) -> AttrId {
    rel.schema().attr(name).expect("geo schema attribute")
}

/// The zip → city → county → state → region chain of the geo table.
fn geo_chain_truth() -> Vec<GroundTruthDep> {
    vec![
        GroundTruthDep::new(&["zip"], "city"),
        GroundTruthDep::new(&["city"], "county"),
        GroundTruthDep::new(&["county"], "state"),
        GroundTruthDep::new(&["state"], "region"),
    ]
}

/// A geo cascade table of `rows` rows with correlated errors on the four
/// dependent columns, written to `dir/csv`.
pub fn geo_batch(dir: &Path, csv: &str, rows: usize, seed: u64) -> BatchInput {
    let clean = geo_cascade_table(rows, seed);
    let targets = ["city", "county", "state", "region"].map(|a| attr(&clean, a));
    let profile = ErrorProfile::correlated(&targets, GEO_ERROR_RATE);
    let (dirty, injected) = dirty_clean_pair(&clean, &profile, seed ^ 0x9e37_79b9);
    let dirty = write_table(dir, csv, &dirty);
    BatchInput {
        clean: renamed(&clean, stem(csv)),
        dirty,
        error_cells: injected.len(),
        csv: csv.to_string(),
        truth: geo_chain_truth(),
    }
}

/// The four hand-written chain rules of the repair bench.
pub fn chain_rules(rel: &Relation) -> Vec<Pfd> {
    let schema = rel.schema();
    let name = schema.relation();
    vec![
        Pfd::constant_normal_form(name, schema, "zip", r"[\D{3}]\D{2}", "city", "_")
            .expect("zip-prefix rule"),
        Pfd::fd(name, schema, &["city"], &["county"]).expect("city rule"),
        Pfd::fd(name, schema, &["county"], &["state"]).expect("county rule"),
        Pfd::fd(name, schema, &["state"], &["region"]).expect("state rule"),
    ]
}

/// One `set` edit of a serve tenant.
#[derive(Clone, Debug)]
pub struct SetEdit {
    pub row: usize,
    pub attr: String,
    pub value: String,
}

impl SetEdit {
    /// The JSONL command, routed to `tenant`.
    pub fn command(&self, tenant: &str) -> String {
        format!(
            "{{\"op\":\"set\",\"tenant\":\"{tenant}\",\"row\":{},\"attr\":\"{}\",\"value\":{}}}",
            self.row,
            self.attr,
            pfd_core::session::json::escaped(&self.value)
        )
    }
}

/// Small deterministic generator for edit positions (splitmix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Spread edits: pairs that corrupt one random cell and then restore it,
/// over every row and column, so the table stays near its starting state
/// and each edit touches one small group per rule.
pub fn spread_edits(rel: &Relation, count: usize, seed: u64) -> Vec<SetEdit> {
    let mut mix = Mix(seed ^ 0x3de);
    let schema = rel.schema();
    let mut edits = Vec::with_capacity(count + 1);
    while edits.len() < count {
        let row = mix.below(rel.num_rows());
        let col = AttrId(mix.below(schema.arity()));
        let name = schema.name_of(col).expect("column in schema").to_string();
        let clean = rel.cell(row, col).to_string();
        edits.push(SetEdit {
            row,
            attr: name.clone(),
            value: format!("{clean} x"),
        });
        edits.push(SetEdit {
            row,
            attr: name,
            value: clean,
        });
    }
    edits.truncate(count);
    edits
}

/// `hot` edits: walk one state group (about 96 rows at 2k rows) at a time,
/// moving its rows' region to a new value one by one until the new value
/// holds the majority, then moving them back. Every edit changes the
/// group's majority counts, so the server re-reports every violation of
/// the group.
pub fn hot_edits(rel: &Relation, count: usize, seed: u64) -> Vec<SetEdit> {
    let mut mix = Mix(seed ^ 0x0407);
    let state = attr(rel, "state");
    let region = attr(rel, "region");
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for row in 0..rel.num_rows() {
        groups.entry(rel.cell(row, state)).or_default().push(row);
    }
    let groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 8).collect();
    let mut edits = Vec::with_capacity(count);
    while edits.len() < count {
        let rows = &groups[mix.below(groups.len())];
        let moved = &rows[..rows.len() / 2 + 1];
        let target = format!("{} moved", rel.cell(rows[0], region));
        for &row in moved {
            edits.push(SetEdit {
                row,
                attr: "region".to_string(),
                value: target.clone(),
            });
        }
        for &row in moved.iter().rev() {
            edits.push(SetEdit {
                row,
                attr: "region".to_string(),
                value: rel.cell(row, region).to_string(),
            });
        }
    }
    edits.truncate(count);
    edits
}
