//! Report structures: the rows and series a figure regenerates, plus
//! text and CSV rendering.

use crate::json::Json;
use arv_sim_core::TimeSeries;
use std::fmt::Write as _;

/// One row of a table. `None` values are the paper's missing bars
/// (OOM crashes / runs that did not finish).
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (benchmark or configuration name).
    pub label: String,
    /// Cell values; `None` renders as a missing bar (OOM/DNF).
    pub values: Vec<Option<f64>>,
}

impl Row {
    /// A row with possibly missing cells (`None` = OOM/DNF).
    pub fn new(label: impl Into<String>, values: Vec<Option<f64>>) -> Row {
        Row {
            label: label.into(),
            values,
        }
    }

    /// A row where every cell is present.
    pub fn full(label: impl Into<String>, values: &[f64]) -> Row {
        Row {
            label: label.into(),
            values: values.iter().map(|v| Some(*v)).collect(),
        }
    }
}

/// A labelled table (one sub-plot of a figure).
#[derive(Debug, Clone)]
pub struct Table {
    /// The container's name.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// The data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// An empty table with the given column names.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (its width must match the columns).
    pub fn push(&mut self, row: Row) {
        assert_eq!(
            row.values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(row);
    }

    fn render(&self, out: &mut String) {
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([self.name.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(10)).collect();

        let _ = write!(out, "{:<label_w$}", self.name);
        for (c, w) in self.columns.iter().zip(&col_w) {
            let _ = write!(out, "  {c:>w$}");
        }
        out.push('\n');
        let _ = write!(out, "{:-<label_w$}", "");
        for w in &col_w {
            let _ = write!(out, "  {:->w$}", "");
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "{:<label_w$}", row.label);
            for (v, w) in row.values.iter().zip(&col_w) {
                match v {
                    Some(x) => {
                        let _ = write!(out, "  {x:>w$.3}");
                    }
                    None => {
                        let _ = write!(out, "  {:>w$}", "OOM/DNF");
                    }
                }
            }
            out.push('\n');
        }
    }

    fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.label);
            for v in &row.values {
                match v {
                    Some(x) => {
                        let _ = write!(out, ",{x}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A full figure report.
#[derive(Debug, Clone)]
pub struct FigReport {
    /// Figure id, e.g. `"2a"`.
    pub id: String,
    /// Human-readable figure title.
    pub title: String,
    /// The tables (one per sub-plot).
    pub tables: Vec<Table>,
    /// Trace sub-plots (Figures 8(b), 12).
    pub series: Vec<TimeSeries>,
    /// Free-form notes rendered after the tables.
    pub notes: Vec<String>,
}

impl FigReport {
    /// An empty report for figure `id`.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> FigReport {
        FigReport {
            id: id.into(),
            title: title.into(),
            tables: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a free-form note shown under the tables.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render the whole report as aligned text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== Figure {}: {} ===", self.id, self.title);
        for t in &self.tables {
            out.push('\n');
            t.render(&mut out);
        }
        for s in &self.series {
            let _ = writeln!(
                out,
                "\nseries {} ({} samples): {}",
                s.name(),
                s.len(),
                sparkline(s)
            );
            for (t, v) in s.downsample(24).samples() {
                let _ = writeln!(out, "  {:>10.1}s  {v:>12.3}", t.as_secs_f64());
            }
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                let _ = writeln!(out, "note: {n}");
            }
        }
        out
    }

    /// Serialize the whole report as pretty JSON.
    pub fn to_json(&self) -> String {
        let row_json = |r: &Row| {
            Json::Obj(vec![
                ("label".into(), Json::Str(r.label.clone())),
                (
                    "values".into(),
                    Json::Arr(
                        r.values
                            .iter()
                            .map(|v| v.map_or(Json::Null, Json::Num))
                            .collect(),
                    ),
                ),
            ])
        };
        let table_json = |t: &Table| {
            Json::Obj(vec![
                ("name".into(), Json::Str(t.name.clone())),
                (
                    "columns".into(),
                    Json::Arr(t.columns.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
                (
                    "rows".into(),
                    Json::Arr(t.rows.iter().map(row_json).collect()),
                ),
            ])
        };
        let series_json = |s: &TimeSeries| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name().to_string())),
                (
                    "samples".into(),
                    Json::Arr(
                        s.samples()
                            .iter()
                            .map(|(t, v)| Json::Arr(vec![Json::Num(t.0 as f64), Json::Num(*v)]))
                            .collect(),
                    ),
                ),
            ])
        };
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            (
                "tables".into(),
                Json::Arr(self.tables.iter().map(table_json).collect()),
            ),
            (
                "series".into(),
                Json::Arr(self.series.iter().map(series_json).collect()),
            ),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
        .pretty()
    }

    /// Write each table/series as a CSV file under `dir`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for t in &self.tables {
            let file = dir.join(format!("fig{}_{}.csv", self.id, sanitize(&t.name)));
            std::fs::write(file, t.to_csv())?;
        }
        for s in &self.series {
            let mut csv = String::from("time_s,value\n");
            for (t, v) in s.samples() {
                let _ = writeln!(csv, "{},{v}", t.as_secs_f64());
            }
            let file = dir.join(format!("fig{}_{}.csv", self.id, sanitize(s.name())));
            std::fs::write(file, csv)?;
        }
        Ok(())
    }
}

/// Render a series as a Unicode sparkline (min–max normalized).
fn sparkline(series: &TimeSeries) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let s = series.downsample(48);
    let (Some(min), Some(max)) = (s.min_value(), s.max_value()) else {
        return String::new();
    };
    let span = (max - min).max(f64::EPSILON);
    s.samples()
        .iter()
        .map(|(_, v)| {
            let idx = ((v - min) / span * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_sim_core::SimTime;

    fn table() -> Table {
        let mut t = Table::new("exec time", &["vanilla", "adaptive"]);
        t.push(Row::full("h2", &[1.0, 0.7]));
        t.push(Row::new("xalan", vec![Some(1.0), None]));
        t
    }

    #[test]
    fn get_reads_cells() {
        let t = table();
        assert_eq!(t.get("h2", "adaptive"), Some(0.7));
        assert_eq!(t.get("xalan", "adaptive"), None);
        assert_eq!(t.get("h2", "nope"), None);
        assert_eq!(t.get("nope", "vanilla"), None);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(Row::full("r", &[1.0]));
    }

    #[test]
    fn text_rendering_contains_all_cells() {
        let mut rep = FigReport::new("6", "test figure");
        rep.tables.push(table());
        rep.note("a note");
        let text = rep.render_text();
        assert!(text.contains("=== Figure 6"));
        assert!(text.contains("h2"));
        assert!(text.contains("0.700"));
        assert!(text.contains("OOM/DNF"));
        assert!(text.contains("note: a note"));
    }

    #[test]
    fn sparkline_spans_the_range() {
        let mut s = TimeSeries::new("t");
        for i in 0..10u64 {
            s.push(SimTime(i * 10), i as f64);
        }
        let line = sparkline(&s);
        assert_eq!(line.chars().count(), 10);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn sparkline_of_flat_series_is_uniform() {
        let mut s = TimeSeries::new("t");
        for i in 0..5u64 {
            s.push(SimTime(i), 3.0);
        }
        let line = sparkline(&s);
        assert!(line.chars().all(|c| c == '▁'), "{line}");
    }

    #[test]
    fn json_round_trips() {
        let mut rep = FigReport::new("6", "test figure");
        rep.tables.push(table());
        let json = rep.to_json();
        assert!(json.contains("\"id\": \"6\""));
        let back = FigReport::from_json(&json).unwrap();
        assert_eq!(back.tables[0].get("h2", "adaptive"), Some(0.7));
        assert_eq!(back.tables[0].get("xalan", "adaptive"), None);
        assert_eq!(back.title, "test figure");
    }

    #[test]
    fn csv_written_to_disk() {
        let mut rep = FigReport::new("6", "test figure");
        rep.tables.push(table());
        let mut s = TimeSeries::new("trace");
        s.push(SimTime(0), 1.0);
        s.push(SimTime(1_000_000), 2.0);
        rep.series.push(s);
        let dir = std::env::temp_dir().join(format!("arv_report_test_{}", std::process::id()));
        rep.write_csv(&dir).unwrap();
        let table_csv = std::fs::read_to_string(dir.join("fig6_exec_time.csv")).unwrap();
        assert!(table_csv.starts_with("label,vanilla,adaptive"));
        assert!(table_csv.contains("xalan,1,")); // missing cell stays empty
        let series_csv = std::fs::read_to_string(dir.join("fig6_trace.csv")).unwrap();
        assert!(series_csv.contains("1,2"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    impl Table {
        /// Look up a cell by row label and column name.
        pub(crate) fn get(&self, row: &str, column: &str) -> Option<f64> {
            let c = self.columns.iter().position(|x| x == column)?;
            self.rows
                .iter()
                .find(|r| r.label == row)
                .and_then(|r| r.values[c])
        }
    }

    impl FigReport {
        /// The table named `name`; panics if the report filed none.
        pub(crate) fn table(&self, name: &str) -> &Table {
            self.tables.iter().find(|t| t.name == name).expect(name)
        }

        /// Parse a report previously produced by [`FigReport::to_json`].
        fn from_json(input: &str) -> Result<FigReport, String> {
            let root = Json::parse(input)?;
            let str_field = |v: &Json, key: &str| -> Result<String, String> {
                v.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("missing string field {key:?}"))
            };
            let arr_field = |v: &Json, key: &str| -> Result<Vec<Json>, String> {
                v.get(key)
                    .and_then(Json::as_arr)
                    .map(<[Json]>::to_vec)
                    .ok_or_else(|| format!("missing array field {key:?}"))
            };
            let mut report = FigReport::new(str_field(&root, "id")?, str_field(&root, "title")?);
            for t in arr_field(&root, "tables")? {
                let mut table = Table {
                    name: str_field(&t, "name")?,
                    columns: arr_field(&t, "columns")?
                        .iter()
                        .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
                        .collect::<Result<_, _>>()?,
                    rows: Vec::new(),
                };
                for r in arr_field(&t, "rows")? {
                    table.rows.push(Row {
                        label: str_field(&r, "label")?,
                        values: arr_field(&r, "values")?
                            .iter()
                            .map(|v| v.as_f64())
                            .collect(),
                    });
                }
                report.tables.push(table);
            }
            for s in arr_field(&root, "series")? {
                let mut series = TimeSeries::new(str_field(&s, "name")?);
                for sample in arr_field(&s, "samples")? {
                    let pair = sample.as_arr().ok_or("non-array sample")?;
                    let (Some(t), Some(v)) = (
                        pair.first().and_then(Json::as_f64),
                        pair.get(1).and_then(Json::as_f64),
                    ) else {
                        return Err("sample must be a [time, value] pair".into());
                    };
                    series.push(arv_sim_core::SimTime(t as u64), v);
                }
                report.series.push(series);
            }
            for n in arr_field(&root, "notes")? {
                report
                    .notes
                    .push(n.as_str().ok_or("non-string note")?.to_string());
            }
            Ok(report)
        }
    }
}
