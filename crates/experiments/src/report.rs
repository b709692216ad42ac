//! Report formatting: series tables and ASCII log-log charts, so every
//! regenerated figure prints both the numbers and the paper's visual shape.
//! Also the telemetry renderers: per-rank [`phase_breakdown`] tables and the
//! ASCII [`gantt`] timeline over a merged [`Event`] stream.

use ns_telemetry::{Event, EventKind};
use std::collections::BTreeMap;

/// One curve of a figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legends).
    pub label: String,
    /// `(x, y)` points, x ascending.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self { label: label.into(), points }
    }

    /// y value at a given x, if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| (px - x).abs() < 1e-9).map(|&(_, y)| y)
    }
}

/// A regenerated table or figure.
#[derive(Clone, Debug)]
pub struct Report {
    /// e.g. "Figure 3: Navier-Stokes execution time on LACE".
    pub title: String,
    /// x-axis label.
    pub xlabel: String,
    /// y-axis label.
    pub ylabel: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Free-form notes: paper-vs-measured commentary, substitutions.
    pub notes: Vec<String>,
}

impl Report {
    /// New empty report.
    pub fn new(title: impl Into<String>, xlabel: impl Into<String>, ylabel: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render the numeric table.
    pub fn table(&self) -> String {
        let mut xs: Vec<f64> = self.series.iter().flat_map(|s| s.points.iter().map(|&(x, _)| x)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let mut header = format!("{:>12}", self.xlabel);
        for s in &self.series {
            header.push_str(&format!(" | {:>18}", truncate(&s.label, 18)));
        }
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for &x in &xs {
            let mut row = format!("{:>12}", trim_num(x));
            for s in &self.series {
                match s.at(x) {
                    Some(y) => row.push_str(&format!(" | {:>18}", trim_num(y))),
                    None => row.push_str(&format!(" | {:>18}", "-")),
                }
            }
            out.push_str(&row);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render an ASCII log-log chart (the paper plots everything log-log).
    pub fn loglog_chart(&self, width: usize, height: usize) -> String {
        let pts: Vec<(f64, f64)> =
            self.series.iter().flat_map(|s| s.points.iter().copied()).filter(|&(x, y)| x > 0.0 && y > 0.0).collect();
        if pts.is_empty() {
            return String::from("(no positive data)\n");
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in &pts {
            x0 = x0.min(x.ln());
            x1 = x1.max(x.ln());
            y0 = y0.min(y.ln());
            y1 = y1.max(y.ln());
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![b' '; width]; height];
        let marks = [b'*', b'o', b'+', b'x', b'#', b'@', b'%', b'&'];
        for (si, s) in self.series.iter().enumerate() {
            let m = marks[si % marks.len()];
            for &(x, y) in &s.points {
                if x <= 0.0 || y <= 0.0 {
                    continue;
                }
                let cx = (((x.ln() - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
                let cy = (((y.ln() - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
                grid[height - 1 - cy][cx] = m;
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{} (log-log; y: {})\n", self.title, self.ylabel));
        for row in grid {
            out.push('|');
            out.push_str(std::str::from_utf8(&row).unwrap());
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(width));
        out.push('\n');
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!("  {} {}\n", marks[si % marks.len()] as char, s.label));
        }
        out
    }

    /// Full render: table plus chart.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.table(), self.loglog_chart(60, 18))
    }
}

/// Per-rank phase-breakdown table. Each column is one `(name, label →
/// seconds)` pair — typically `rank 0` … `rank P-1` from
/// `ParallelRun::rank_phase_seconds`, optionally followed by a simulated
/// reference column built from `SimResult::phase_seconds` (both use the
/// same label vocabulary, which is the whole point). Cells show the time
/// and each label's share of its column's total.
pub fn phase_breakdown(title: &str, columns: &[(String, BTreeMap<&str, f64>)]) -> String {
    let mut labels: Vec<&str> = Vec::new();
    for (_, col) in columns {
        for &l in col.keys() {
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
    }
    labels.sort_unstable();
    let totals: Vec<f64> = columns.iter().map(|(_, c)| c.values().sum()).collect();
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let mut header = format!("{:>14}", "phase");
    for (name, _) in columns {
        header.push_str(&format!(" | {:>18}", truncate(name, 18)));
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for label in &labels {
        let mut row = format!("{label:>14}");
        for ((_, col), &total) in columns.iter().zip(&totals) {
            match col.get(label) {
                Some(&v) => {
                    let pct = if total > 0.0 { 100.0 * v / total } else { 0.0 };
                    row.push_str(&format!(" | {:>11} {pct:>4.1}%", fmt_secs(v)));
                }
                None => row.push_str(&format!(" | {:>18}", "-")),
            }
        }
        out.push_str(&row);
        out.push('\n');
    }
    let mut row = format!("{:>14}", "TOTAL");
    for &total in &totals {
        row.push_str(&format!(" | {:>18}", fmt_secs(total)));
    }
    out.push_str(&row);
    out.push('\n');
    out
}

/// ASCII Gantt chart of a merged trace: one row per rank, `width` time
/// buckets across the trace's span. Each cell shows the activity that
/// dominates the slice:
///
/// * `r` — radial-operator phases (`r:*`)
/// * `x` — axial-operator phases (`x:*`)
/// * `#` — other phases (diagnostics, reductions, boundary work)
/// * `s` — message sends, including `comm:send` / `comm:stall` phases
/// * `w` — receive waits, including `comm:recv` phases
/// * space — idle (nothing recorded)
///
/// Lifecycle marks have no duration and are skipped.
pub fn gantt<E: std::borrow::Borrow<Event>>(trace: &[E], nranks: usize, width: usize) -> String {
    if trace.is_empty() || nranks == 0 || width == 0 {
        return String::from("(empty trace)\n");
    }
    let t0 = trace.iter().map(|e| e.borrow().t_us).min().unwrap();
    let t1 = trace.iter().map(|e| e.borrow().t_us + e.borrow().dur_us).max().unwrap().max(t0 + 1);
    let span = (t1 - t0) as f64;
    let bucket = span / width as f64;
    const CHARS: [char; 5] = ['r', 'x', '#', 's', 'w'];
    // coverage[rank][bucket][class] = µs of that class inside the bucket
    let mut cov = vec![vec![[0.0f64; CHARS.len()]; width]; nranks];
    for e in trace {
        let e = e.borrow();
        if e.rank >= nranks {
            continue;
        }
        let class = match e.kind {
            EventKind::Mark => continue,
            EventKind::Send | EventKind::Fault => 3,
            EventKind::Recv => 4,
            EventKind::Phase if e.label.starts_with("r:") => 0,
            EventKind::Phase if e.label.starts_with("x:") => 1,
            EventKind::Phase if e.label == "comm:send" || e.label == "comm:stall" => 3,
            EventKind::Phase if e.label == "comm:recv" => 4,
            EventKind::Phase => 2,
        };
        let s = (e.t_us - t0) as f64;
        // zero-duration events still mark their slice
        let f = s + e.dur_us.max(1) as f64;
        let b0 = ((s / bucket) as usize).min(width - 1);
        let b1 = ((f / bucket).ceil() as usize).clamp(b0 + 1, width);
        for (b, row) in cov[e.rank].iter_mut().enumerate().take(b1).skip(b0) {
            let lo = b as f64 * bucket;
            row[class] += (f.min(lo + bucket) - s.max(lo)).max(0.0);
        }
    }
    let mut out = String::new();
    out.push_str(&format!("timeline: {} µs across {width} buckets ({:.1} µs each)\n", t1 - t0, bucket));
    for (rank, buckets) in cov.iter().enumerate() {
        out.push_str(&format!("rank {rank:>3} |"));
        for classes in buckets {
            let (best, &best_cov) = classes.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
            out.push(if best_cov > 0.0 { CHARS[best] } else { ' ' });
        }
        out.push_str("|\n");
    }
    out.push_str("legend: r radial ops, x axial ops, # other phases, s send, w recv wait\n");
    out
}

/// Human-readable seconds with an adaptive unit.
fn fmt_secs(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v >= 0.1 {
        format!("{v:.3} s")
    } else if v >= 1e-4 {
        format!("{:.3} ms", v * 1e3)
    } else {
        format!("{:.1} µs", v * 1e6)
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Compact numeric formatting.
fn trim_num(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.3e}", v)
    } else if a >= 100.0 {
        format!("{:.0}", v)
    } else if a >= 1.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.4}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("Figure X", "P", "seconds");
        r.series.push(Series::new("a", vec![(1.0, 100.0), (2.0, 50.0), (4.0, 25.0)]));
        r.series.push(Series::new("b", vec![(1.0, 200.0), (4.0, 60.0)]));
        r.notes.push("shape holds".into());
        r
    }

    #[test]
    fn table_contains_all_rows_and_labels() {
        let t = sample().table();
        assert!(t.contains("Figure X"));
        assert!(t.contains("100"));
        assert!(t.contains("note: shape holds"));
        // series b has no x=2 point
        let row2: Vec<&str> = t.lines().filter(|l| l.trim_start().starts_with("2.00")).collect();
        assert_eq!(row2.len(), 1);
        assert!(row2[0].contains('-'));
    }

    #[test]
    fn chart_renders_marks_for_each_series() {
        let c = sample().loglog_chart(40, 10);
        assert!(c.contains('*'));
        assert!(c.contains('o'));
        assert!(c.contains("a\n") || c.contains(" a"));
    }

    #[test]
    fn series_lookup() {
        let r = sample();
        assert_eq!(r.series("a").unwrap().at(2.0), Some(50.0));
        assert!(r.series("missing").is_none());
    }

    #[test]
    fn phase_breakdown_lists_union_of_labels_with_totals() {
        let mut a = BTreeMap::new();
        a.insert("x:flux", 0.2);
        a.insert("comm:recv", 0.05);
        let mut b = BTreeMap::new();
        b.insert("x:flux", 0.3);
        b.insert("r:prims", 0.1);
        let t = phase_breakdown("phases", &[("rank 0".into(), a), ("LACE sim".into(), b)]);
        assert!(t.contains("x:flux"));
        assert!(t.contains("comm:recv"));
        assert!(t.contains("r:prims"));
        assert!(t.contains("TOTAL"));
        // rank 0 has no r:prims entry
        let row: Vec<&str> = t.lines().filter(|l| l.trim_start().starts_with("r:prims")).collect();
        assert_eq!(row.len(), 1);
        assert!(row[0].contains('-'));
        // x:flux is 80% of rank 0's total
        let flux: Vec<&str> = t.lines().filter(|l| l.trim_start().starts_with("x:flux")).collect();
        assert!(flux[0].contains("80.0%"), "{}", flux[0]);
    }

    #[test]
    fn gantt_marks_dominant_activity_per_bucket() {
        let ev = |t_us, dur_us, rank, kind, label: &'static str| Event {
            t_us,
            dur_us,
            rank,
            kind,
            label: label.into(),
            peer: None,
            seq: None,
            span: None,
            bytes: 0,
            flops: 0,
        };
        let trace = vec![
            ev(0, 50, 0, EventKind::Phase, "x:flux"),
            ev(50, 50, 0, EventKind::Recv, "Flux1"),
            ev(0, 100, 1, EventKind::Phase, "r:prims"),
            // a mark inside rank 1's phase does not repaint its bucket
            ev(30, 0, 1, EventKind::Mark, "step"),
        ];
        let g = gantt(&trace, 2, 10);
        assert!(g.contains("rank   0 |xxxxxwwwww|"), "{g}");
        assert!(g.contains("rank   1 |rrrrrrrrrr|"), "{g}");
        assert!(g.contains("legend"));
        assert!(gantt::<Event>(&[], 2, 10).contains("empty trace"));
    }

    #[test]
    fn chart_handles_empty_and_degenerate() {
        let r = Report::new("empty", "x", "y");
        assert!(r.loglog_chart(20, 5).contains("no positive data"));
        let mut one = Report::new("one", "x", "y");
        one.series.push(Series::new("s", vec![(1.0, 1.0)]));
        let _ = one.loglog_chart(20, 5); // must not panic
    }
}
