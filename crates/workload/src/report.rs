//! Plain-text table formatting for the experiment harness: the bench
//! targets print the same rows/series the paper's figures plot.

use pdl_flash::WearSummary;
use std::fmt::Write as _;

/// Format microseconds with thousands separators, e.g. `12,345 us`.
pub fn format_us(us: f64) -> String {
    let rounded = us.round() as i64;
    let mut digits = rounded.abs().to_string();
    let mut grouped = String::new();
    while digits.len() > 3 {
        let tail = digits.split_off(digits.len() - 3);
        grouped = if grouped.is_empty() { tail } else { format!("{tail},{grouped}") };
    }
    grouped = if grouped.is_empty() { digits } else { format!("{digits},{grouped}") };
    if rounded < 0 {
        format!("-{grouped}")
    } else {
        grouped
    }
}

/// A simple aligned table: one header row, then data rows.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        debug_assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with right-aligned numeric columns (every column except the
    /// first is right-aligned).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            if i == 0 {
                let _ = write!(line, "{:<width$}", h, width = widths[i]);
            } else {
                let _ = write!(line, "  {:>width$}", h, width = widths[i]);
            }
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let mut line = String::new();
            for i in 0..cols {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(line, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(line, "  {:>width$}", cell, width = widths[i]);
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Render as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Wear-leveling table for a sharded engine: one row per shard plus the
/// aggregate over all chips, so wear numbers stay meaningful when the
/// block population is split across shards.
pub fn wear_table(title: impl Into<String>, per_shard: &[WearSummary]) -> Table {
    let mut t = Table::new(
        title,
        &["shard", "blocks", "min erases", "avg erases", "max erases", "total erases"],
    );
    let row = |label: String, w: &WearSummary| {
        vec![
            label,
            w.num_blocks.to_string(),
            w.min_erases.to_string(),
            format!("{:.1}", w.avg_erases()),
            w.max_erases.to_string(),
            w.total_erases.to_string(),
        ]
    };
    for (i, w) in per_shard.iter().enumerate() {
        t.row(row(format!("{i}"), w));
    }
    if per_shard.len() > 1 {
        let all = WearSummary::merged(per_shard.iter().copied());
        t.row(row("all".to_string(), &all));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wear_table_aggregates_across_shards() {
        let shards = [
            WearSummary {
                min_erases: 2,
                max_erases: 8,
                total_erases: 30,
                num_blocks: 6,
                ..WearSummary::default()
            },
            WearSummary {
                min_erases: 1,
                max_erases: 9,
                total_erases: 34,
                num_blocks: 6,
                ..WearSummary::default()
            },
        ];
        let t = wear_table("wear", &shards);
        let s = t.render();
        // Aggregate row spans both block populations.
        let all = s.lines().last().unwrap();
        assert!(all.starts_with("all"), "{s}");
        assert!(all.contains("12"), "{s}");
        assert!(all.contains("64"), "{s}");
        assert!(all.contains('1') && all.contains('9'), "{s}");
    }

    #[test]
    fn groups_thousands() {
        assert_eq!(format_us(0.4), "0");
        assert_eq!(format_us(999.0), "999");
        assert_eq!(format_us(1_000.0), "1,000");
        assert_eq!(format_us(1_234_567.8), "1,234,568");
        assert_eq!(format_us(-1234.0), "-1,234");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Figure X", &["method", "us/op"]);
        t.row(vec!["OPU".into(), "2,020".into()]);
        t.row(vec!["PDL (256B)".into(), "610".into()]);
        let s = t.render();
        assert!(s.contains("## Figure X"));
        assert!(s.contains("OPU"));
        let lines: Vec<&str> = s.lines().collect();
        // header + rule + 2 rows
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric column: both rows end aligned.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }
}
