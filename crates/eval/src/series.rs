//! Experiment series and table rendering (markdown / CSV).

use std::fmt::Write as _;

/// One named data series: `(x, y)` points, e.g. "3 partitions" over
/// (number of points, seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present.
    fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// A figure-shaped experiment result: one x axis, several series — printed
/// as the rows the paper's plots are drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Table caption (e.g. `Fig. 3: Index Building Time`).
    pub title: String,
    /// X-axis label (e.g. `points`).
    pub x_label: String,
    /// Y-axis unit label (e.g. `seconds`).
    pub y_label: String,
    /// The series (legend entries).
    pub series: Vec<Series>,
}

impl ExperimentTable {
    /// An empty table.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExperimentTable {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn add_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The sorted union of x values across series.
    #[must_use]
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Render as a GitHub-flavoured markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} ({})", self.title, self.y_label);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.name);
        }
        out.push('\n');
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        out.push('\n');
        for x in self.x_values() {
            let _ = write!(out, "| {} |", format_num(x));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, " {} |", format_num(y));
                    }
                    None => {
                        let _ = write!(out, " – |");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`x, series1, series2, …`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.name);
        }
        out.push('\n');
        for x in self.x_values() {
            let _ = write!(out, "{}", format_num(x));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{}", format_num(y));
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Compact numeric formatting: integers print bare, small values keep
/// six significant digits.
fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ExperimentTable {
        let mut t = ExperimentTable::new("Fig. X: Demo", "points", "seconds");
        let mut a = Series::new("balanced");
        a.push(1000.0, 0.5);
        a.push(2000.0, 1.0);
        let mut b = Series::new("chain");
        b.push(1000.0, 2.0);
        t.add_series(a);
        t.add_series(b);
        t
    }

    #[test]
    fn x_values_union_sorted() {
        assert_eq!(table().x_values(), vec![1000.0, 2000.0]);
    }

    #[test]
    fn markdown_renders_all_cells() {
        let md = table().to_markdown();
        assert!(md.contains("### Fig. X: Demo (seconds)"));
        assert!(md.contains("| points | balanced | chain |"));
        assert!(md.contains("| 1000 | 0.500000 | 2 |"));
        assert!(md.contains("| 2000 | 1 | – |"), "{md}");
    }

    #[test]
    fn csv_renders() {
        let csv = table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "points,balanced,chain");
        assert_eq!(lines[1], "1000,0.500000,2");
        assert_eq!(lines[2], "2000,1,");
    }

    #[test]
    fn y_at_lookup() {
        let t = table();
        assert_eq!(t.series[0].y_at(1000.0), Some(0.5));
        assert_eq!(t.series[1].y_at(2000.0), None);
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = ExperimentTable::new("T", "x", "y");
        assert!(t.to_markdown().contains("### T (y)"));
        assert_eq!(t.x_values(), Vec::<f64>::new());
    }
}
