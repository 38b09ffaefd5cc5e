//! String-valued relations.
//!
//! PFDs are defined on *qualitative* values (§2.1 Remark): names, codes,
//! cities — values where patterns carry meaning. We therefore store every
//! cell as a string; quantitative columns are recognized (and pruned) by the
//! profiler, mirroring the paper's discovery pipeline.

use crate::schema::{AttrId, Schema, SchemaError};
use std::collections::HashMap;
use std::fmt;

/// A row identifier: index into the relation's row vector.
pub type RowId = usize;

/// One column of the relation: a distinct-value vocabulary (in first-seen
/// interning order) plus one vocabulary index per row.
///
/// Qualitative columns repeat values heavily (codes, cities, categories), so
/// interning stores each distinct string once and makes a cell a `u32`. The
/// layout is also exactly what the binary snapshot's `ROWS` section holds,
/// so a snapshot load rebuilds columns without per-cell allocations.
/// Overwrites can strand vocabulary entries no live cell references; they
/// stay in place (indexes are stable) and are skipped when enumerating
/// distinct values.
#[derive(Debug, Clone)]
struct Column {
    /// Distinct values in first-seen order; may contain dead entries.
    vocab: Vec<String>,
    /// value → vocabulary index, for interning writes. Built lazily: a
    /// bulk-constructed column ([`Relation::from_columns`]) defers it until
    /// the first write, so read-only consumers (check, discover) never pay
    /// for it.
    lookup: HashMap<String, u32>,
    /// Is `lookup` in sync with `vocab`?
    lookup_built: bool,
    /// One vocabulary index per row.
    cells: Vec<u32>,
}

impl Default for Column {
    fn default() -> Self {
        Column {
            vocab: Vec::new(),
            lookup: HashMap::new(),
            lookup_built: true,
            cells: Vec::new(),
        }
    }
}

impl Column {
    fn intern(&mut self, value: String) -> u32 {
        if !self.lookup_built {
            self.lookup = self
                .vocab
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u32))
                .collect();
            self.lookup_built = true;
        }
        if let Some(&i) = self.lookup.get(&value) {
            return i;
        }
        let i = self.vocab.len() as u32;
        self.lookup.insert(value.clone(), i);
        self.vocab.push(value);
        i
    }

    fn value(&self, row: RowId) -> &str {
        &self.vocab[self.cells[row] as usize]
    }
}

/// A relation instance: a schema plus rows of string cells, stored
/// column-wise with per-column value interning (each column keeps a
/// vocabulary of distinct strings and one `u32` index per row).
///
/// Every mutation bumps a monotonic [`version`](Relation::version) counter.
/// Mutations report nothing else: the incremental engine that owns a
/// relation knows what it changed, and maintains its group indexes itself.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
    /// Monotonic mutation counter; not part of value equality.
    version: u64,
}

/// Two relations are equal when schema and cells agree; the mutation
/// [`version`](Relation::version) is provenance, not value. Cells compare
/// by value, so two relations whose vocabularies were built in different
/// orders (say, CSV ingestion vs a snapshot load) still compare equal.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.num_rows != other.num_rows {
            return false;
        }
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| columns_equal(a, b, self.num_rows))
    }
}

/// Value-wise column comparison, memoizing the index correspondence so each
/// distinct value's strings are compared once and the per-row work is an
/// integer check (interning guarantees distinct indexes hold distinct
/// values within a column).
fn columns_equal(a: &Column, b: &Column, num_rows: usize) -> bool {
    let mut pair: Vec<Option<u32>> = vec![None; a.vocab.len()];
    for row in 0..num_rows {
        let (ai, bi) = (a.cells[row], b.cells[row]);
        match pair[ai as usize] {
            Some(expected) => {
                if expected != bi {
                    return false;
                }
            }
            None => {
                if a.vocab[ai as usize] != b.vocab[bi as usize] {
                    return false;
                }
                pair[ai as usize] = Some(bi);
            }
        }
    }
    true
}

impl Eq for Relation {}

/// A borrowed view of one row: cheap to construct (no allocation), lazily
/// resolving cells against the column vocabularies.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    rel: &'a Relation,
    row: RowId,
}

impl<'a> RowView<'a> {
    /// Number of cells (the relation's arity).
    pub fn len(&self) -> usize {
        self.rel.schema.arity()
    }

    /// Is the row empty (arity-0 relation)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at column position `i`.
    pub fn get(&self, i: usize) -> &'a str {
        self.rel.columns[i].value(self.row)
    }

    /// Iterate over the row's cells in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        let row = self.row;
        self.rel.columns.iter().map(move |c| c.value(row))
    }

    /// Materialize the row as a vector of borrowed cells.
    pub fn to_vec(&self) -> Vec<&'a str> {
        self.iter().collect()
    }
}

/// Errors from relation construction/mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// An underlying schema error.
    Schema(SchemaError),
    /// A row whose arity does not match the schema.
    ArityMismatch {
        /// Index of the offending row.
        row: usize,
        /// The schema's arity.
        expected: usize,
        /// The row's cell count.
        got: usize,
    },
    /// Row index out of range.
    RowOutOfRange(RowId),
    /// Inconsistent bulk-construction input
    /// ([`from_columns`](Relation::from_columns)).
    Columns(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::Schema(e) => write!(f, "{e}"),
            RelationError::ArityMismatch { row, expected, got } => {
                write!(f, "row {row}: expected {expected} cells, got {got}")
            }
            RelationError::RowOutOfRange(r) => write!(f, "row {r} out of range"),
            RelationError::Columns(msg) => write!(f, "inconsistent columns: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

impl From<SchemaError> for RelationError {
    fn from(e: SchemaError) -> Self {
        RelationError::Schema(e)
    }
}

impl Relation {
    /// An empty relation over the given schema.
    pub fn empty(schema: Schema) -> Relation {
        let columns = (0..schema.arity()).map(|_| Column::default()).collect();
        Relation {
            schema,
            columns,
            num_rows: 0,
            version: 0,
        }
    }

    /// Bulk-construct a relation from per-column `(vocabulary, cell indexes)`
    /// pairs — the snapshot load path: the binary `ROWS` section decodes
    /// directly into this shape, so rebuilding the relation allocates only
    /// the distinct values, never one string per cell.
    ///
    /// Each vocabulary must be duplicate-free, every cell index must be in
    /// its vocabulary's range, and all columns must agree on the row count.
    pub fn from_columns(
        schema: Schema,
        columns: Vec<(Vec<String>, Vec<u32>)>,
        version: u64,
    ) -> Result<Relation, RelationError> {
        if columns.len() != schema.arity() {
            return Err(RelationError::Columns(format!(
                "{} columns for arity {}",
                columns.len(),
                schema.arity()
            )));
        }
        let num_rows = columns.first().map_or(0, |(_, cells)| cells.len());
        let columns = columns
            .into_iter()
            .map(|(vocab, cells)| {
                if cells.len() != num_rows {
                    return Err(RelationError::Columns(format!(
                        "column with {} cells next to one with {num_rows}",
                        cells.len()
                    )));
                }
                // Distinctness check: a strictly ascending vocabulary (the
                // canonical snapshot encoding) is duplicate-free by
                // construction; anything else pays for a hash-based check,
                // which doubles as the interning lookup.
                let sorted = vocab.windows(2).all(|w| w[0] < w[1]);
                let mut lookup = HashMap::new();
                if !sorted {
                    lookup.reserve(vocab.len());
                    for (i, value) in vocab.iter().enumerate() {
                        if lookup.insert(value.clone(), i as u32).is_some() {
                            return Err(RelationError::Columns(format!(
                                "duplicate vocabulary value {value:?}"
                            )));
                        }
                    }
                }
                if let Some(&bad) = cells.iter().find(|&&i| i as usize >= vocab.len()) {
                    return Err(RelationError::Columns(format!(
                        "cell index {bad} outside vocabulary of {}",
                        vocab.len()
                    )));
                }
                Ok(Column {
                    vocab,
                    lookup,
                    lookup_built: !sorted,
                    cells,
                })
            })
            .collect::<Result<Vec<Column>, RelationError>>()?;
        Ok(Relation {
            schema,
            columns,
            num_rows,
            version,
        })
    }

    /// Borrow one column's raw parts: `(vocabulary, cell indexes)`. The
    /// vocabulary is in interning order and may contain dead entries (values
    /// no live cell references after overwrites); `cells[row]` indexes into
    /// it. This is the save-side counterpart of
    /// [`from_columns`](Relation::from_columns).
    pub fn column_parts(&self, attr: AttrId) -> (&[String], &[u32]) {
        let col = &self.columns[attr.index()];
        (&col.vocab, &col.cells)
    }

    /// Build a relation from rows of `&str` cells (test/fixture friendly).
    pub fn from_rows<S: AsRef<str>>(
        relation: &str,
        attributes: &[&str],
        rows: Vec<Vec<S>>,
    ) -> Result<Relation, RelationError> {
        let schema = Schema::new(relation, attributes.iter().copied())?;
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.push_row(row.iter().map(|c| c.as_ref().to_string()).collect())?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The monotonic mutation counter: 0 for a freshly built empty relation,
    /// bumped by every [`push_row`](Relation::push_row),
    /// [`set_cell`](Relation::set_cell) and
    /// [`delete_row`](Relation::delete_row).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Does the relation have no rows?
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Append a row, validating arity, and return its id. Rows are only
    /// ever appended (the new id is `num_rows() - 1`), so existing row ids
    /// stay stable across inserts.
    pub fn push_row(&mut self, row: Vec<String>) -> Result<RowId, RelationError> {
        if row.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                row: self.num_rows,
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            let idx = col.intern(value);
            col.cells.push(idx);
        }
        self.num_rows += 1;
        self.version += 1;
        Ok(self.num_rows - 1)
    }

    /// Remove a row, shifting every higher row id down by one (the same
    /// renumbering [`filter_rows`](Relation::filter_rows) applies).
    pub fn delete_row(&mut self, row: RowId) -> Result<(), RelationError> {
        if row >= self.num_rows {
            return Err(RelationError::RowOutOfRange(row));
        }
        for col in &mut self.columns {
            col.cells.remove(row);
        }
        self.num_rows -= 1;
        self.version += 1;
        Ok(())
    }

    /// The cell at `(row, attr)`.
    pub fn cell(&self, row: RowId, attr: AttrId) -> &str {
        self.columns[attr.index()].value(row)
    }

    /// Overwrite a single cell (used by error injection, repair and the
    /// incremental cleaning engines).
    pub fn set_cell(
        &mut self,
        row: RowId,
        attr: AttrId,
        value: String,
    ) -> Result<(), RelationError> {
        if row >= self.num_rows {
            return Err(RelationError::RowOutOfRange(row));
        }
        let col = self
            .columns
            .get_mut(attr.index())
            .ok_or(RelationError::Schema(SchemaError::AttrIdOutOfRange(attr)))?;
        let idx = col.intern(value);
        col.cells[row] = idx;
        self.version += 1;
        Ok(())
    }

    /// Borrow a full row as a lazy [`RowView`] (no allocation).
    pub fn row(&self, row: RowId) -> RowView<'_> {
        assert!(row < self.num_rows, "row {row} out of range");
        RowView { rel: self, row }
    }

    /// Iterate over `(RowId, row)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (RowId, RowView<'_>)> {
        (0..self.num_rows).map(move |i| (i, RowView { rel: self, row: i }))
    }

    /// Iterate over one column's values.
    pub fn column(&self, attr: AttrId) -> impl Iterator<Item = &str> {
        let col = &self.columns[attr.index()];
        col.cells
            .iter()
            .map(move |&i| col.vocab[i as usize].as_str())
    }

    /// Project a row onto a list of attributes.
    pub fn project(&self, row: RowId, attrs: &[AttrId]) -> Vec<&str> {
        attrs.iter().map(|a| self.cell(row, *a)).collect()
    }

    /// Number of distinct values in a column. Counts live cells, so values
    /// stranded in the vocabulary by overwrites don't inflate the count.
    pub fn distinct_count(&self, attr: AttrId) -> usize {
        let mut live = self.columns[attr.index()].cells.clone();
        live.sort_unstable();
        live.dedup();
        live.len()
    }

    /// Retain only the rows whose ids satisfy the predicate, renumbering.
    pub fn filter_rows(&self, mut keep: impl FnMut(RowId) -> bool) -> Relation {
        let kept: Vec<RowId> = (0..self.num_rows).filter(|&i| keep(i)).collect();
        Relation {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|col| Column {
                    vocab: col.vocab.clone(),
                    lookup: col.lookup.clone(),
                    lookup_built: col.lookup_built,
                    cells: kept.iter().map(|&i| col.cells[i]).collect(),
                })
                .collect(),
            num_rows: kept.len(),
            version: 0,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (i, row) in self.iter_rows() {
            writeln!(f, "  r{}: ({})", i, row.to_vec().join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_table() -> Relation {
        // Table 1 of the paper.
        Relation::from_rows(
            "Name",
            &["name", "gender"],
            vec![
                vec!["John Charles", "M"],
                vec!["John Bosco", "M"],
                vec!["Susan Orlean", "F"],
                vec!["Susan Boyle", "M"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_access() {
        let r = name_table();
        assert_eq!(r.num_rows(), 4);
        let name = r.schema().attr("name").unwrap();
        let gender = r.schema().attr("gender").unwrap();
        assert_eq!(r.cell(0, name), "John Charles");
        assert_eq!(r.cell(3, gender), "M");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = name_table();
        let err = r.push_row(vec!["only one".into()]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
    }

    #[test]
    fn set_cell_overwrites_and_bumps_version() {
        let mut r = name_table();
        let gender = r.schema().attr("gender").unwrap();
        let v0 = r.version();
        r.set_cell(3, gender, "F".into()).unwrap();
        assert_eq!(r.cell(3, gender), "F");
        assert_eq!(r.cell(2, gender), "F", "other cells keep their values");
        assert_eq!(r.version(), v0 + 1);
    }

    #[test]
    fn push_and_delete_bump_version_and_renumber() {
        let mut r = name_table();
        let v0 = r.version();
        let row = r.push_row(vec!["Ada Lovelace".into(), "F".into()]).unwrap();
        assert_eq!(row, 4, "rows are appended at the tail");
        assert_eq!(r.num_rows(), 5);
        assert_eq!(r.version(), v0 + 1);

        r.delete_row(1).unwrap();
        assert_eq!(r.num_rows(), 4);
        assert_eq!(r.version(), v0 + 2);
        let name = r.schema().attr("name").unwrap();
        assert_eq!(r.cell(0, name), "John Charles", "lower ids stay put");
        assert_eq!(r.cell(1, name), "Susan Orlean", "higher ids shift down");
        assert_eq!(r.cell(3, name), "Ada Lovelace");
        assert!(matches!(
            r.delete_row(99),
            Err(RelationError::RowOutOfRange(99))
        ));
        assert_eq!(r.version(), v0 + 2, "a failed delete changes nothing");
    }

    #[test]
    fn version_is_not_part_of_equality() {
        let mut a = name_table();
        let b = name_table();
        let gender = a.schema().attr("gender").unwrap();
        a.set_cell(3, gender, "M".into()).unwrap(); // same value, new version
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b, "equality compares schema and cells only");
    }

    #[test]
    fn set_cell_out_of_range() {
        let mut r = name_table();
        let gender = r.schema().attr("gender").unwrap();
        assert!(matches!(
            r.set_cell(99, gender, "F".into()),
            Err(RelationError::RowOutOfRange(99))
        ));
    }

    #[test]
    fn column_iteration_and_distinct() {
        let r = name_table();
        let gender = r.schema().attr("gender").unwrap();
        let genders: Vec<&str> = r.column(gender).collect();
        assert_eq!(genders, vec!["M", "M", "F", "M"]);
        assert_eq!(r.distinct_count(gender), 2);
    }

    #[test]
    fn project_row() {
        let r = name_table();
        let ids = r.schema().attrs(&["gender", "name"]).unwrap();
        assert_eq!(r.project(2, &ids), vec!["F", "Susan Orlean"]);
    }

    #[test]
    fn filter_rows_renumbers() {
        let r = name_table();
        let filtered = r.filter_rows(|i| i % 2 == 0);
        assert_eq!(filtered.num_rows(), 2);
        let name = filtered.schema().attr("name").unwrap();
        assert_eq!(filtered.cell(1, name), "Susan Orlean");
    }
}
