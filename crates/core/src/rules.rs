//! Rule-file persistence for PFDs.
//!
//! §4.5 motivates PFDs as *automatic and explainable* cleaning rules, "such
//! as ETL rules, which are usually manually coded" — which implies rules
//! outlive a single process: they are reviewed, versioned and shipped. This
//! module defines a line-oriented text format mirroring the paper's own
//! notation and round-trips PFDs through it:
//!
//! ```text
//! # comment
//! Name([name = [Susan\ ]\A*] -> [gender = F])
//! Zip([zip = [\D{3}]\D{2}] -> [city = _])
//! Name([name = [John\ ]\A*] -> [gender = M]; [name = [Susan\ ]\A*] -> [gender = F])
//! ```
//!
//! One PFD per line; multiple tableau rows separated by `;`; the wildcard
//! `⊥` is written `_`; attribute names resolve against a schema at parse
//! time.

use crate::pfd::{Pfd, PfdError};
use crate::tableau::{TableauCell, TableauRow};
use pfd_relation::{AttrId, Schema};
use std::fmt;

/// Errors from rule parsing.
#[derive(Debug)]
pub enum RuleError {
    /// Line does not follow `Relation([lhs] -> [rhs]; …)`.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A tableau row whose attribute lists differ from the first row's.
    InconsistentRows {
        /// 1-based line number.
        line: usize,
    },
    /// The parsed rule failed PFD validation.
    Pfd(PfdError),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::Syntax { line, reason } => write!(f, "line {line}: {reason}"),
            RuleError::InconsistentRows { line } => {
                write!(f, "line {line}: tableau rows use different attribute lists")
            }
            RuleError::Pfd(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuleError {}

impl From<PfdError> for RuleError {
    fn from(e: PfdError) -> Self {
        RuleError::Pfd(e)
    }
}

/// Serialize one PFD as a rule line (the inverse of [`parse_rule`]).
pub fn to_rule_string(pfd: &Pfd, schema: &Schema) -> String {
    let row_str = |row: &TableauRow| -> String {
        let side = |attrs: &[AttrId], cells: &[TableauCell]| -> String {
            attrs
                .iter()
                .zip(cells)
                .map(|(a, c)| {
                    let cell = match c {
                        TableauCell::Wildcard => "_".to_string(),
                        TableauCell::Pattern(p) => p.to_string(),
                    };
                    format!("{} = {}", schema.name_of(*a).unwrap_or("?"), cell)
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "[{}] -> [{}]",
            side(pfd.lhs(), &row.lhs),
            side(pfd.rhs(), &row.rhs)
        )
    };
    let rows: Vec<String> = pfd.tableau().iter().map(row_str).collect();
    format!("{}({})", pfd.relation(), rows.join("; "))
}

/// Split at the top-level `delim`, respecting the pattern syntax: `\x`
/// escapes and `[...]`/`(...)` nesting.
fn split_top_level(s: &str, delim: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut escape = false;
    for (i, c) in s.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' => escape = true,
            '[' | '(' => depth += 1,
            ']' | ')' => depth -= 1,
            _ if c == delim && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Parse `name = cell` with the pattern syntax intact.
fn parse_assignment(s: &str, line: usize) -> Result<(String, String), RuleError> {
    // The attribute name cannot contain '='; split on the first '=' that is
    // followed by a space or preceded by one (the writer always emits
    // " = ").
    let idx = s.find(" = ").ok_or_else(|| RuleError::Syntax {
        line,
        reason: format!("expected `attr = cell` in {s:?}"),
    })?;
    Ok((s[..idx].trim().to_string(), s[idx + 3..].trim().to_string()))
}

/// Split a cell list on commas — but only commas that actually start a new
/// `attr = cell` assignment for a schema attribute, because unescaped commas
/// are legal pattern characters (the Table 3 name format `\LU\LL+,\ …`).
fn split_assignments<'s>(inner: &'s str, schema: &Schema) -> Vec<&'s str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut escape = false;
    for (i, c) in inner.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' => escape = true,
            '[' | '(' => depth += 1,
            ']' | ')' => depth -= 1,
            ',' if depth == 0 => {
                // A separator comma is followed by `<attr> = `.
                let rest = inner[i + 1..].trim_start();
                let is_separator = rest
                    .find(" = ")
                    .map(|eq| schema.attr(rest[..eq].trim()).is_ok())
                    .unwrap_or(false);
                if is_separator {
                    parts.push(&inner[start..i]);
                    start = i + 1;
                }
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
}

fn parse_side(s: &str, schema: &Schema, line: usize) -> Result<Vec<(String, String)>, RuleError> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| RuleError::Syntax {
            line,
            reason: format!("expected bracketed cell list, got {s:?}"),
        })?;
    split_assignments(inner, schema)
        .into_iter()
        .map(|part| parse_assignment(part.trim(), line))
        .collect()
}

/// Parse one rule line against a schema.
pub fn parse_rule(text: &str, schema: &Schema, line: usize) -> Result<Pfd, RuleError> {
    let text = text.trim();
    let open = text.find('(').ok_or_else(|| RuleError::Syntax {
        line,
        reason: "missing '(' after relation name".into(),
    })?;
    let relation = &text[..open];
    let body = text[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| RuleError::Syntax {
            line,
            reason: "missing closing ')'".into(),
        })?;

    let mut lhs_attrs: Option<Vec<AttrId>> = None;
    let mut rhs_attrs: Option<Vec<AttrId>> = None;
    let mut rows: Vec<TableauRow> = Vec::new();

    for row_text in split_top_level(body, ';') {
        let arrow = row_text.find("->").ok_or_else(|| RuleError::Syntax {
            line,
            reason: "missing '->'".into(),
        })?;
        let lhs_text = &row_text[..arrow];
        let rhs_text = &row_text[arrow + 2..];
        let lhs_pairs = parse_side(lhs_text, schema, line)?;
        let rhs_pairs = parse_side(rhs_text, schema, line)?;

        let resolve = |pairs: &[(String, String)]| -> Result<Vec<AttrId>, RuleError> {
            pairs
                .iter()
                .map(|(name, _)| {
                    schema.attr(name).map_err(|e| RuleError::Syntax {
                        line,
                        reason: e.to_string(),
                    })
                })
                .collect()
        };
        let row_lhs_attrs = resolve(&lhs_pairs)?;
        let row_rhs_attrs = resolve(&rhs_pairs)?;
        match (&lhs_attrs, &rhs_attrs) {
            (None, None) => {
                lhs_attrs = Some(row_lhs_attrs);
                rhs_attrs = Some(row_rhs_attrs);
            }
            (Some(l), Some(r)) => {
                if *l != row_lhs_attrs || *r != row_rhs_attrs {
                    return Err(RuleError::InconsistentRows { line });
                }
            }
            _ => unreachable!("set together"),
        }

        let cells = |pairs: &[(String, String)]| -> Result<Vec<TableauCell>, RuleError> {
            pairs
                .iter()
                .map(|(_, cell)| {
                    TableauCell::parse(cell).map_err(|e| RuleError::Syntax {
                        line,
                        reason: format!("bad cell {cell:?}: {e}"),
                    })
                })
                .collect()
        };
        rows.push(TableauRow::new(cells(&lhs_pairs)?, cells(&rhs_pairs)?));
    }

    Ok(Pfd::new(
        relation,
        lhs_attrs.ok_or(RuleError::Syntax {
            line,
            reason: "empty tableau".into(),
        })?,
        rhs_attrs.expect("set together with lhs"),
        rows,
    )?)
}

/// Parse a whole rule file: one rule per line, `#` comments and blank lines
/// ignored. Errors carry 1-based line numbers.
pub fn parse_rules(text: &str, schema: &Schema) -> Result<Vec<Pfd>, RuleError> {
    // A UTF-8 byte-order mark opening the file is encoding metadata;
    // `str::trim` does not strip U+FEFF.
    let text = text.strip_prefix('\u{FEFF}').unwrap_or(text);
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(parse_rule(trimmed, schema, i + 1)?);
    }
    Ok(out)
}

/// Serialize a rule set with a header comment.
pub fn to_rules_string(pfds: &[Pfd], schema: &Schema) -> String {
    let mut out = String::from("# PFD rules — one per line; tableau rows separated by ';'\n");
    for pfd in pfds {
        out.push_str(&to_rule_string(pfd, schema));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfd_relation::Relation;

    fn schema() -> Schema {
        Schema::new("Name", ["name", "gender"]).unwrap()
    }

    fn zip_schema() -> Schema {
        Schema::new("Zip", ["zip", "city", "state"]).unwrap()
    }

    #[test]
    fn roundtrip_constant_pfd() {
        let s = schema();
        let pfd =
            Pfd::constant_normal_form("Name", &s, "name", r"[Susan\ ]\A*", "gender", "F").unwrap();
        let text = to_rule_string(&pfd, &s);
        let reparsed = parse_rule(&text, &s, 1).unwrap();
        assert_eq!(pfd, reparsed, "{text}");
    }

    #[test]
    fn roundtrip_variable_pfd_with_wildcard() {
        let s = zip_schema();
        let pfd =
            Pfd::constant_normal_form("Zip", &s, "zip", r"[\D{3}]\D{2}", "city", "_").unwrap();
        let text = to_rule_string(&pfd, &s);
        assert!(text.contains("_"), "{text}");
        let reparsed = parse_rule(&text, &s, 1).unwrap();
        assert_eq!(pfd, reparsed);
    }

    #[test]
    fn roundtrip_multi_row_tableau() {
        let s = schema();
        let mut pfd =
            Pfd::constant_normal_form("Name", &s, "name", r"[John\ ]\A*", "gender", "M").unwrap();
        pfd.add_row(TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"]).unwrap())
            .unwrap();
        let text = to_rule_string(&pfd, &s);
        assert!(text.contains(';'), "{text}");
        let reparsed = parse_rule(&text, &s, 1).unwrap();
        assert_eq!(pfd, reparsed);
    }

    #[test]
    fn roundtrip_multi_attribute_lhs() {
        let s = zip_schema();
        let pfd = Pfd::normal_form(
            "Zip",
            &s,
            &[("zip", r"[900]\D{2}"), ("state", "CA")],
            ("city", r"Los\ Angeles"),
        )
        .unwrap();
        let text = to_rule_string(&pfd, &s);
        let reparsed = parse_rule(&text, &s, 1).unwrap();
        assert_eq!(pfd, reparsed);
    }

    #[test]
    fn rule_file_with_comments_and_blanks() {
        let s = schema();
        let text = "\n# gender rules\nName([name = [Susan\\ ]\\A*] -> [gender = F])\n\nName([name = [John\\ ]\\A*] -> [gender = M])\n";
        let rules = parse_rules(text, &s).unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn parsed_rules_execute() {
        let s = schema();
        let rel = Relation::from_rows(
            "Name",
            &["name", "gender"],
            vec![
                vec!["Susan Boyle", "M"], // violates the rule
                vec!["Susan Orlean", "F"],
            ],
        )
        .unwrap();
        let rules = parse_rules("Name([name = [Susan\\ ]\\A*] -> [gender = F])", &s).unwrap();
        assert_eq!(rules[0].violations(&rel).len(), 1);
    }

    #[test]
    fn leading_byte_order_mark_is_dropped() {
        let s = schema();
        let text = "# gender rules\nName([name = [Susan\\ ]\\A*] -> [gender = F])\n";
        let plain = parse_rules(text, &s).unwrap();
        assert_eq!(plain.len(), 1);
        assert_eq!(parse_rules(&format!("\u{FEFF}{text}"), &s).unwrap(), plain);
        // Only the one opening the text: a U+FEFF on a later line is data.
        let err = parse_rules(&format!("{text}\u{FEFF}{text}"), &s).unwrap_err();
        assert!(matches!(err, RuleError::Syntax { line: 3, .. }), "{err}");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let s = schema();
        let err = parse_rules("# ok\nName[missing paren]", &s).unwrap_err();
        match err {
            RuleError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn unknown_attribute_rejected() {
        let s = schema();
        let err = parse_rule("Name([nope = x] -> [gender = F])", &s, 1).unwrap_err();
        assert!(matches!(err, RuleError::Syntax { .. }));
    }

    #[test]
    fn inconsistent_rows_rejected() {
        let s = zip_schema();
        let text = "Zip([zip = [900]\\D{2}] -> [city = _]; [state = CA] -> [city = _])";
        let err = parse_rule(text, &s, 3).unwrap_err();
        assert!(matches!(err, RuleError::InconsistentRows { line: 3 }));
    }

    #[test]
    fn commas_inside_patterns_survive() {
        // The Table 3 name format contains a comma: \LU\LL+,\ [...]
        let s = schema();
        let pfd =
            Pfd::constant_normal_form("Name", &s, "name", r"\LU\LL+,\ [Donald]\A*", "gender", "M")
                .unwrap();
        let text = to_rule_string(&pfd, &s);
        let reparsed = parse_rule(&text, &s, 1).unwrap();
        assert_eq!(pfd, reparsed, "{text}");
    }
}
