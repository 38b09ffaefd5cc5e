//! Minimal RFC-4180 CSV reader/writer.
//!
//! The evaluation datasets (synthetic equivalents of the paper's data.gov /
//! ChEMBL / university-warehouse tables) are exchanged as CSV. We implement
//! the format directly: quoted fields, embedded commas, escaped quotes and
//! embedded newlines — enough for real open-data exports — without pulling
//! in an external dependency.

use crate::relation::{Relation, RelationError};
use crate::schema::Schema;
use std::fmt;
use std::io::{BufRead, Write};

/// CSV errors carry 1-based line numbers for diagnostics.
#[derive(Debug)]
pub enum CsvError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A quoted field that never closes.
    UnterminatedQuote {
        /// 1-based line where the quote opened.
        line: usize,
    },
    /// Garbage after a closing quote, e.g. `"ab"c`.
    TrailingAfterQuote {
        /// 1-based line the offending field *started* on (a multi-line
        /// quoted field may close several lines later).
        line: usize,
    },
    /// Header missing or empty.
    EmptyInput,
    /// The parsed rows do not form a valid relation.
    Relation(RelationError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::TrailingAfterQuote { line } => {
                write!(
                    f,
                    "unexpected character after closing quote in the field starting on line {line}"
                )
            }
            CsvError::EmptyInput => write!(f, "empty CSV input (missing header)"),
            CsvError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<RelationError> for CsvError {
    fn from(e: RelationError) -> Self {
        CsvError::Relation(e)
    }
}

/// One parsed logical record. `blank` marks a record produced by a
/// physically empty line (no characters before the terminator) — the only
/// kind of record [`read_csv`] may skip, and only when it is truly trailing.
/// A quoted empty field (`""`) on its own line is *not* blank.
struct Record {
    fields: Vec<String>,
    blank: bool,
}

/// Streaming CSV record parser over arbitrary `BufRead` input.
struct Records<R: BufRead> {
    input: R,
    line: usize,
    buf: String,
    done: bool,
}

/// Split one physical line into its content and its terminator bytes.
/// Recognized terminators: `\r\n`, `\n`, and a lone trailing `\r` (which
/// `read_line` can only produce at EOF). The terminator is returned intact
/// so quoted continuations can preserve the field's original bytes.
fn split_terminator(line: &str) -> (&str, &str) {
    if let Some(content) = line.strip_suffix("\r\n") {
        (content, "\r\n")
    } else if let Some(content) = line.strip_suffix('\n') {
        (content, "\n")
    } else if let Some(content) = line.strip_suffix('\r') {
        (content, "\r")
    } else {
        (line, "")
    }
}

impl<R: BufRead> Records<R> {
    fn new(input: R) -> Self {
        Records {
            input,
            line: 0,
            buf: String::new(),
            done: false,
        }
    }

    /// Read one logical record (which may span physical lines when quoted).
    fn next_record(&mut self) -> Result<Option<Record>, CsvError> {
        if self.done {
            return Ok(None);
        }
        self.buf.clear();
        let n = self.input.read_line(&mut self.buf)?;
        if n == 0 {
            self.done = true;
            return Ok(None);
        }
        self.line += 1;
        // A UTF-8 byte-order mark at the very start of the input is
        // encoding metadata, not part of the first header name.
        if self.line == 1 && self.buf.starts_with('\u{FEFF}') {
            self.buf.drain(..'\u{FEFF}'.len_utf8());
        }

        let mut fields: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut after_quote = false;
        // Line the current field started on (trailing-garbage diagnostics
        // point here, not at the line the closing quote landed on).
        let mut field_start_line = self.line;
        // Line the currently open quote was opened on.
        let mut quote_open_line = self.line;
        let mut blank = true;

        loop {
            // Work on the line content without its terminator, but keep the
            // terminator: inside quotes it is field content, not framing.
            let (line, terminator) = split_terminator(&self.buf);
            if !line.is_empty() {
                blank = false;
            }
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                if in_quotes {
                    match c {
                        '"' => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                in_quotes = false;
                                after_quote = true;
                            }
                        }
                        _ => field.push(c),
                    }
                } else {
                    match c {
                        ',' => {
                            fields.push(std::mem::take(&mut field));
                            after_quote = false;
                            field_start_line = self.line;
                        }
                        '"' if field.is_empty() && !after_quote => {
                            in_quotes = true;
                            quote_open_line = self.line;
                        }
                        _ if after_quote => {
                            return Err(CsvError::TrailingAfterQuote {
                                line: field_start_line,
                            })
                        }
                        _ => field.push(c),
                    }
                }
            }
            if !in_quotes {
                break;
            }
            // Quoted field continues on the next physical line: the
            // terminator bytes (`\n` or `\r\n`) belong to the field.
            field.push_str(terminator);
            self.buf.clear();
            let n = self.input.read_line(&mut self.buf)?;
            if n == 0 {
                return Err(CsvError::UnterminatedQuote {
                    line: quote_open_line,
                });
            }
            self.line += 1;
        }
        fields.push(field);
        Ok(Some(Record { fields, blank }))
    }
}

/// Read a relation from CSV. The first record is the header; `relation` is
/// the logical relation name. One UTF-8 byte-order mark at the very start
/// of the input is dropped; a U+FEFF anywhere else is data.
pub fn read_csv<R: BufRead>(relation: &str, input: R) -> Result<Relation, CsvError> {
    let mut records = Records::new(input);
    let header = records.next_record()?.ok_or(CsvError::EmptyInput)?;
    let schema = Schema::new(relation, header.fields)
        .map_err(|e| CsvError::Relation(RelationError::Schema(e)))?;
    let mut rel = Relation::empty(schema);
    // Blank physical lines are held back: a blank line followed by more
    // records is data (a valid empty row in a single-column relation, an
    // arity error otherwise), while the file's truly trailing blank line —
    // the optional final CRLF of RFC 4180 — is tolerated and dropped.
    let mut pending_blanks = 0usize;
    while let Some(record) = records.next_record()? {
        if record.blank {
            pending_blanks += 1;
            continue;
        }
        for _ in 0..pending_blanks {
            rel.push_row(vec![String::new()])?;
        }
        pending_blanks = 0;
        rel.push_row(record.fields)?;
    }
    // Only the very last blank line is the tolerated trailing one; any
    // blank lines before it are data.
    if pending_blanks > 1 {
        for _ in 0..pending_blanks - 1 {
            rel.push_row(vec![String::new()])?;
        }
    }
    Ok(rel)
}

/// Parse CSV from a string.
pub fn read_csv_str(relation: &str, data: &str) -> Result<Relation, CsvError> {
    read_csv(relation, data.as_bytes())
}

fn needs_quoting(field: &str) -> bool {
    field
        .chars()
        .any(|c| c == ',' || c == '"' || c == '\n' || c == '\r')
}

fn write_field<W: Write>(out: &mut W, field: &str) -> std::io::Result<()> {
    if needs_quoting(field) {
        write!(out, "\"{}\"", field.replace('"', "\"\""))
    } else {
        write!(out, "{field}")
    }
}

/// Write one record. A record consisting of a single empty field is written
/// as `""`: an unquoted empty sole field would be a blank line, which the
/// reader must treat as a tolerated trailing blank — quoting keeps
/// single-column relations with empty cells round-trippable.
fn write_record<W: Write, S: AsRef<str>>(out: &mut W, cells: &[S]) -> std::io::Result<()> {
    if cells.len() == 1 && cells[0].as_ref().is_empty() {
        return writeln!(out, "\"\"");
    }
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            write!(out, ",")?;
        }
        write_field(out, cell.as_ref())?;
    }
    writeln!(out)
}

/// Write a relation as CSV (header + rows).
pub fn write_csv<W: Write>(relation: &Relation, out: &mut W) -> std::io::Result<()> {
    write_record(out, relation.schema().attribute_names())?;
    for (_, row) in relation.iter_rows() {
        write_record(out, &row.to_vec())?;
    }
    Ok(())
}

/// Serialize a relation to a CSV string.
pub fn write_csv_string(relation: &Relation) -> String {
    let mut buf = Vec::new();
    write_csv(relation, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_roundtrip() {
        let csv = "zip,city\n90001,Los Angeles\n90002,Los Angeles\n";
        let rel = read_csv_str("Zip", csv).unwrap();
        assert_eq!(rel.num_rows(), 2);
        assert_eq!(rel.schema().attribute_names(), ["zip", "city"]);
        assert_eq!(write_csv_string(&rel), csv);
    }

    #[test]
    fn quoted_fields_with_commas() {
        let csv = "name,city\n\"Holloway, Donald E.\",Boston\n";
        let rel = read_csv_str("T", csv).unwrap();
        let name = rel.schema().attr("name").unwrap();
        assert_eq!(rel.cell(0, name), "Holloway, Donald E.");
        // Round-trip preserves the quoting need.
        assert_eq!(write_csv_string(&rel), csv);
    }

    #[test]
    fn escaped_quotes() {
        let csv = "a\n\"say \"\"hi\"\"\"\n";
        let rel = read_csv_str("T", csv).unwrap();
        assert_eq!(rel.cell(0, rel.schema().attr("a").unwrap()), "say \"hi\"");
        assert_eq!(write_csv_string(&rel), csv);
    }

    #[test]
    fn embedded_newline() {
        let csv = "a,b\n\"line1\nline2\",x\n";
        let rel = read_csv_str("T", csv).unwrap();
        assert_eq!(rel.cell(0, rel.schema().attr("a").unwrap()), "line1\nline2");
    }

    #[test]
    fn crlf_line_endings() {
        let csv = "a,b\r\n1,2\r\n";
        let rel = read_csv_str("T", csv).unwrap();
        assert_eq!(rel.cell(0, rel.schema().attr("b").unwrap()), "2");
    }

    #[test]
    fn empty_fields() {
        let csv = "a,b,c\n,,\nx,,z\n";
        let rel = read_csv_str("T", csv).unwrap();
        assert_eq!(rel.num_rows(), 2);
        assert_eq!(rel.cell(0, rel.schema().attr("a").unwrap()), "");
        assert_eq!(rel.cell(1, rel.schema().attr("b").unwrap()), "");
    }

    #[test]
    fn blank_trailing_line_ignored() {
        let csv = "a\nx\n\n";
        let rel = read_csv_str("T", csv).unwrap();
        assert_eq!(rel.num_rows(), 1);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let csv = "a\n\"never closed\n";
        assert!(matches!(
            read_csv_str("T", csv),
            Err(CsvError::UnterminatedQuote { .. })
        ));
    }

    #[test]
    fn trailing_after_quote_is_error() {
        let csv = "a\n\"ab\"c\n";
        assert!(matches!(
            read_csv_str("T", csv),
            Err(CsvError::TrailingAfterQuote { .. })
        ));
    }

    // Regression: `read_csv` used to drop *every* record that parsed to a
    // single empty field, losing valid empty-cell rows in single-column
    // relations and silently swallowing blank lines mid-file.
    #[test]
    fn single_column_empty_rows_survive() {
        // A blank line mid-file is an empty row; only the trailing one is
        // the tolerated final newline.
        let csv = "a\nx\n\ny\n";
        let rel = read_csv_str("T", csv).unwrap();
        let a = rel.schema().attr("a").unwrap();
        assert_eq!(rel.num_rows(), 3);
        assert_eq!(rel.cell(0, a), "x");
        assert_eq!(rel.cell(1, a), "");
        assert_eq!(rel.cell(2, a), "y");

        // Writer quotes the sole empty field, so the round trip is exact.
        let rel2 = Relation::from_rows("T", &["a"], vec![vec!["x"], vec![""], vec!["y"]]).unwrap();
        let written = write_csv_string(&rel2);
        assert_eq!(written, "a\nx\n\"\"\ny\n");
        assert_eq!(read_csv_str("T", &written).unwrap(), rel2);

        // An empty row in final position round-trips too.
        let rel3 = Relation::from_rows("T", &["a"], vec![vec!["x"], vec![""]]).unwrap();
        assert_eq!(read_csv_str("T", &write_csv_string(&rel3)).unwrap(), rel3);
    }

    #[test]
    fn consecutive_blank_lines_keep_all_but_the_trailing_one() {
        let csv = "a\nx\n\n\n";
        let rel = read_csv_str("T", csv).unwrap();
        assert_eq!(rel.num_rows(), 2, "one mid-file blank + one trailing");
        let a = rel.schema().attr("a").unwrap();
        assert_eq!(rel.cell(1, a), "");
    }

    #[test]
    fn blank_line_mid_file_is_an_arity_error_for_wider_schemas() {
        // Previously swallowed; a blank line inside a two-column file is a
        // malformed row, not noise.
        let csv = "a,b\n1,2\n\n3,4\n";
        assert!(matches!(
            read_csv_str("T", csv),
            Err(CsvError::Relation(RelationError::ArityMismatch { .. }))
        ));
    }

    // Regression: quoted fields spanning physical lines had their CRLF
    // terminators normalized to a bare `\n`, breaking byte fidelity.
    #[test]
    fn crlf_inside_quoted_field_is_preserved() {
        let csv = "a,b\r\n\"x\r\ny\",z\r\n";
        let rel = read_csv_str("T", csv).unwrap();
        let a = rel.schema().attr("a").unwrap();
        assert_eq!(rel.cell(0, a), "x\r\ny");
    }

    #[test]
    fn multi_line_field_round_trip_keeps_line_ending_bytes() {
        for cell in ["x\r\ny", "x\ny", "x\r\n\r\ny", "ends with cr\r", "\r\n"] {
            let rel = Relation::from_rows("T", &["a", "b"], vec![vec![cell, "z"]]).unwrap();
            let written = write_csv_string(&rel);
            let back = read_csv_str("T", &written).unwrap();
            assert_eq!(back, rel, "round trip of {cell:?} via {written:?}");
        }
    }

    // Regression: `UnterminatedQuote` used to report the record's first
    // line, not the line the quote actually opened on.
    #[test]
    fn unterminated_quote_reports_the_quote_open_line() {
        // Record starts on line 2; its second field's quote opens on line 3.
        let csv = "a,b\n\"x\ny\",\"open\n";
        match read_csv_str("T", csv) {
            Err(CsvError::UnterminatedQuote { line }) => assert_eq!(line, 3),
            other => panic!("expected UnterminatedQuote, got {other:?}"),
        }
    }

    // Regression: `TrailingAfterQuote` pointed at the line the closing
    // quote landed on, not where the offending field started.
    #[test]
    fn trailing_after_quote_reports_the_field_start_line() {
        let csv = "a\n\"x\ny\"z\n";
        match read_csv_str("T", csv) {
            Err(CsvError::TrailingAfterQuote { line }) => assert_eq!(line, 2),
            other => panic!("expected TrailingAfterQuote, got {other:?}"),
        }
    }

    #[test]
    fn leading_byte_order_mark_is_dropped() {
        for csv in [
            "\u{FEFF}zip,city\n90001,\u{FEFF}LA\n",
            "\u{FEFF}\"zip\",city\n90001,\u{FEFF}LA\n",
        ] {
            let rel = read_csv_str("Zip", csv).unwrap();
            assert_eq!(rel.schema().attribute_names(), ["zip", "city"], "{csv:?}");
            let city = rel.schema().attr("city").unwrap();
            assert_eq!(rel.cell(0, city), "\u{FEFF}LA", "a later U+FEFF is data");
        }
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(read_csv_str("T", ""), Err(CsvError::EmptyInput)));
    }

    #[test]
    fn arity_mismatch_reported() {
        let csv = "a,b\n1,2,3\n";
        assert!(matches!(
            read_csv_str("T", csv),
            Err(CsvError::Relation(RelationError::ArityMismatch { .. }))
        ));
    }
}
