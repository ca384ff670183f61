//! Minimal SVG bar-chart rendering for experiment tables — regenerates
//! the paper's figures as pictures, not just text (no external plotting
//! dependencies; plain SVG 1.1).

use std::fmt::Write as _;

use crate::table::ExpTable;

/// Chart geometry and styling.
#[derive(Debug, Clone)]
pub struct PlotStyle {
    /// Total image width in px.
    pub width: u32,
    /// Total image height in px.
    pub height: u32,
    /// Y-axis maximum (normalized-IPC plots use 1.1).
    pub y_max: f64,
    /// Bar colors cycled per series.
    pub palette: Vec<&'static str>,
}

impl Default for PlotStyle {
    fn default() -> Self {
        Self {
            width: 1200,
            height: 420,
            y_max: 1.1,
            palette: vec!["#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c", "#dc7ec0"],
        }
    }
}

/// Escapes XML-special characters.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

/// Renders a grouped bar chart from a numeric [`ExpTable`]: the first
/// column holds group labels (benchmarks), the remaining columns are
/// series. Non-numeric cells are skipped.
///
/// Returns `None` if the table has no numeric series.
pub fn grouped_bars(table: &ExpTable, style: &PlotStyle) -> Option<String> {
    if table.headers.len() < 2 || table.rows.is_empty() {
        return None;
    }
    let series_names: Vec<&String> = table.headers[1..].iter().collect();
    let groups: Vec<(&String, Vec<Option<f64>>)> = table
        .rows
        .iter()
        .map(|row| {
            let values = row[1..].iter().map(|cell| cell.trim_end_matches('%').parse::<f64>().ok()).collect();
            (&row[0], values)
        })
        .collect();
    if !groups.iter().any(|(_, vs)| vs.iter().any(Option::is_some)) {
        return None;
    }

    let margin_left = 56.0;
    let margin_right = 16.0;
    let margin_top = 48.0;
    let margin_bottom = 96.0;
    let plot_w = style.width as f64 - margin_left - margin_right;
    let plot_h = style.height as f64 - margin_top - margin_bottom;
    let ngroups = groups.len() as f64;
    let nseries = series_names.len() as f64;
    let group_w = plot_w / ngroups;
    let bar_w = (group_w * 0.8 / nseries).max(1.0);

    let y = |v: f64| margin_top + plot_h * (1.0 - (v / style.y_max).min(1.0));

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">"#,
        w = style.width,
        h = style.height
    );
    let _ = write!(svg, r#"<rect width="{}" height="{}" fill="white"/>"#, style.width, style.height);
    // Title.
    let _ = write!(
        svg,
        r#"<text x="{}" y="20" font-size="14" font-weight="bold">{}</text>"#,
        margin_left,
        esc(&table.title)
    );
    // Y grid + labels.
    let mut tick = 0.0;
    while tick <= style.y_max + 1e-9 {
        let yy = y(tick);
        let _ = write!(
            svg,
            r##"<line x1="{x1}" y1="{yy:.1}" x2="{x2}" y2="{yy:.1}" stroke="#ddd"/><text x="{xl}" y="{yt:.1}" text-anchor="end">{tick:.1}</text>"##,
            x1 = margin_left,
            x2 = style.width as f64 - margin_right,
            xl = margin_left - 6.0,
            yt = yy + 4.0,
        );
        tick += 0.2;
    }
    // Bars.
    for (gi, (label, values)) in groups.iter().enumerate() {
        let gx = margin_left + gi as f64 * group_w + group_w * 0.1;
        for (si, value) in values.iter().enumerate() {
            let Some(v) = value else { continue };
            let color = style.palette[si % style.palette.len()];
            let x = gx + si as f64 * bar_w;
            let top = y(*v);
            let _ = write!(
                svg,
                r#"<rect x="{x:.1}" y="{top:.1}" width="{bw:.1}" height="{bh:.1}" fill="{color}"><title>{group} / {series} = {v:.3}</title></rect>"#,
                bw = bar_w.max(1.0) - 0.5,
                bh = (margin_top + plot_h - top).max(0.0),
                group = esc(label),
                series = esc(series_names[si]),
            );
        }
        // Rotated group label.
        let lx = gx + group_w * 0.4;
        let ly = margin_top + plot_h + 10.0;
        let _ = write!(
            svg,
            r#"<text x="{lx:.1}" y="{ly:.1}" transform="rotate(40 {lx:.1} {ly:.1})">{}</text>"#,
            esc(label)
        );
    }
    // Legend.
    let mut lx = margin_left;
    let ly = 34.0;
    for (si, name) in series_names.iter().enumerate() {
        let color = style.palette[si % style.palette.len()];
        let _ = write!(
            svg,
            r#"<rect x="{lx:.1}" y="{y0:.1}" width="10" height="10" fill="{color}"/><text x="{tx:.1}" y="{ty:.1}">{}</text>"#,
            esc(name),
            y0 = ly - 9.0,
            tx = lx + 14.0,
            ty = ly,
        );
        lx += 14.0 + 7.0 * name.len() as f64 + 18.0;
    }
    svg.push_str("</svg>");
    Some(svg)
}

/// Writes the chart next to the CSV as `dir/<slug>.svg`.
///
/// # Errors
///
/// Propagates filesystem errors; `Ok(false)` means the table had no
/// numeric series to plot.
pub fn write_svg(table: &ExpTable, dir: &std::path::Path, slug: &str) -> std::io::Result<bool> {
    match grouped_bars(table, &PlotStyle::default()) {
        Some(svg) => {
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join(format!("{slug}.svg")), svg)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ExpTable {
        let mut t = ExpTable::new("Fig. X — test", &["benchmark", "a", "b"]);
        t.push_row(vec!["fdtd2d".into(), "0.5".into(), "0.9".into()]);
        t.push_row(vec!["nw".into(), "1.0".into(), "0.2".into()]);
        t
    }

    #[test]
    fn renders_valid_svg() {
        let svg = grouped_bars(&table(), &PlotStyle::default()).expect("plotable");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 1 + 4 + 2, "background + 4 bars + 2 legend keys");
        assert!(svg.contains("fdtd2d"));
        assert!(svg.contains("Fig. X"));
    }

    #[test]
    fn percent_cells_parse() {
        let mut t = ExpTable::new("T", &["b", "v"]);
        t.push_row(vec!["x".into(), "42.5%".into()]);
        let svg = grouped_bars(&t, &PlotStyle { y_max: 100.0, ..PlotStyle::default() }).expect("plotable");
        assert!(svg.contains("= 42.5"));
    }

    #[test]
    fn non_numeric_tables_are_rejected() {
        let mut t = ExpTable::new("T", &["k", "v"]);
        t.push_row(vec!["a".into(), "hello".into()]);
        assert!(grouped_bars(&t, &PlotStyle::default()).is_none());
        let empty = ExpTable::new("T", &["k"]);
        assert!(grouped_bars(&empty, &PlotStyle::default()).is_none());
    }

    #[test]
    fn escapes_markup() {
        let mut t = ExpTable::new("a < b & c", &["k", "v"]);
        t.push_row(vec!["x<y".into(), "0.5".into()]);
        let svg = grouped_bars(&t, &PlotStyle::default()).expect("plotable");
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("x<y"));
    }

    #[test]
    fn write_svg_creates_file() {
        let dir = std::env::temp_dir().join("secmem_plot_test");
        let wrote = write_svg(&table(), &dir, "unit").expect("io ok");
        assert!(wrote);
        let content = std::fs::read_to_string(dir.join("unit.svg")).expect("file exists");
        assert!(content.contains("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
