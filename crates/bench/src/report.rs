//! Figure output: one [`Report`] per figure or CLI command, rendered as
//! the aligned text tables the committed `results/*.txt` files were
//! generated from, or as machine-readable JSON when the process is
//! invoked with `--json`.
//!
//! The text rendering is byte-identical to the historical per-table
//! `println!` sequence, so regenerated figures diff clean against the
//! committed outputs.

use supermem::metrics::TextTable;

/// True when the process was invoked with a `--json` argument.
pub fn json_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--json")
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a list of strings as a JSON array of string literals.
pub fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// One titled table plus its explanatory footnote lines.
struct Section {
    /// Title lines printed above the table.
    titles: Vec<String>,
    table: TextTable,
    /// Commentary lines printed below the table.
    footnotes: Vec<String>,
}

/// A figure's full output: named sections in print order.
///
/// ```
/// use supermem::metrics::TextTable;
/// use supermem_bench::Report;
///
/// let mut t = TextTable::new(vec!["workload".into(), "WT".into()]);
/// t.row(vec!["array".into(), "1.92".into()]);
/// let mut rep = Report::new("demo");
/// rep.section("Demo table", t);
/// assert!(rep.render_text().starts_with("Demo table\n"));
/// assert!(rep.render_json().contains("\"name\":\"demo\""));
/// ```
pub struct Report {
    name: String,
    sections: Vec<Section>,
}

impl Report {
    /// Creates an empty report for the named figure.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Appends a titled table. Embedded `\n` in `title` produces
    /// multiple title lines.
    pub fn section(&mut self, title: &str, table: TextTable) -> &mut Self {
        self.sections.push(Section {
            titles: title.split('\n').map(str::to_owned).collect(),
            table,
            footnotes: Vec::new(),
        });
        self
    }

    /// Appends a commentary line under the most recent section.
    ///
    /// # Panics
    ///
    /// Panics if no section has been added yet.
    pub fn footnote(&mut self, line: &str) -> &mut Self {
        self.sections
            .last_mut()
            .expect("footnote requires a section")
            .footnotes
            .push(line.to_owned());
        self
    }

    /// The historical text output: per section, title line(s), the
    /// rendered table followed by a blank line, then footnote lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            for t in &s.titles {
                out.push_str(t);
                out.push('\n');
            }
            out.push_str(&s.table.render());
            out.push('\n');
            for f in &s.footnotes {
                out.push_str(f);
                out.push('\n');
            }
        }
        out
    }

    /// Machine-readable rendering: the same titles, headers, and cell
    /// strings as the text tables, one JSON document per report.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"name\":\"{}\",", json_escape(&self.name)));
        out.push_str("\"sections\":[");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"title\":\"{}\",",
                json_escape(&s.titles.join("\n"))
            ));
            out.push_str(&format!(
                "\"headers\":{},",
                json_string_array(s.table.headers())
            ));
            out.push_str("\"rows\":[");
            for (j, row) in s.table.rows().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string_array(row));
            }
            out.push_str("],");
            out.push_str(&format!("\"notes\":{}}}", json_string_array(&s.footnotes)));
        }
        out.push_str("]}");
        out
    }

    /// Prints the report: JSON when `--json` was passed, text otherwise.
    pub fn emit(&self) {
        if json_requested() {
            println!("{}", self.render_json());
        } else {
            print!("{}", self.render_text());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> TextTable {
        let mut t = TextTable::new(vec!["workload".into(), "WT".into()]);
        t.row(vec!["array".into(), "1.92".into()]);
        t
    }

    #[test]
    fn text_matches_historical_println_sequence() {
        let table = demo_table();
        let mut rep = Report::new("demo");
        rep.section("Title A\nTitle B", table.clone());
        rep.footnote("note 1");
        // What the binaries used to do by hand:
        let expected = format!("Title A\nTitle B\n{}\nnote 1\n", table.render());
        assert_eq!(rep.render_text(), expected);
    }

    #[test]
    fn json_contains_all_cells_and_escapes() {
        let mut t = TextTable::new(vec!["k\"ey".into()]);
        t.row(vec!["a\\b".into()]);
        let mut rep = Report::new("demo");
        rep.section("T", t);
        let json = rep.render_json();
        assert!(json.contains("\"k\\\"ey\""));
        assert!(json.contains("\"a\\\\b\""));
        assert!(json.starts_with("{\"name\":\"demo\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(json_escape("a\nb\t\u{1}"), "a\\nb\\t\\u0001");
    }
}
