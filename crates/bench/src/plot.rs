//! Dependency-free SVG line charts for experiment series.
//!
//! `lyra-bench <exp> --json results/` archives every figure's series as
//! JSON; `lyra-bench plot results/<exp>.json` turns them into an SVG so
//! the paper's figures can be regenerated end to end with no external
//! plotting stack.

use crate::ExperimentResult;
use std::fmt::Write as _;

/// Chart geometry.
const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 400.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 24.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;

/// Line colours cycled across series.
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
];

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if v.abs() >= 10.0 || v == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders labelled series as one SVG line chart.
///
/// Each series is a `(label, ys)` pair plotted against its index (the
/// archived JSON stores y-values only; x-axes are ordinal in every
/// figure we export). Series of unequal length are drawn over their own
/// index ranges.
///
/// # Examples
///
/// ```
/// use lyra_bench::plot::render_svg;
/// let svg = render_svg(
///     "demo",
///     &[("a".into(), vec![1.0, 2.0, 3.0]), ("b".into(), vec![3.0, 1.0])],
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// assert!(svg.contains("demo"));
/// ```
pub fn render_svg(title: &str, series: &[(String, Vec<f64>)]) -> String {
    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
    let max_len = series.iter().map(|(_, ys)| ys.len()).max().unwrap_or(0);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, ys) in series {
        for &y in ys {
            if y.is_finite() {
                y_min = y_min.min(y);
                y_max = y_max.max(y);
            }
        }
    }
    if !y_min.is_finite() || !y_max.is_finite() {
        y_min = 0.0;
        y_max = 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }
    // A little vertical padding.
    let pad = (y_max - y_min) * 0.05;
    let (y_lo, y_hi) = (y_min - pad, y_max + pad);

    let x_of = |i: usize| {
        if max_len <= 1 {
            MARGIN_L + plot_w / 2.0
        } else {
            MARGIN_L + plot_w * i as f64 / (max_len - 1) as f64
        }
    };
    let y_of = |v: f64| MARGIN_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo));

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">"#
    );
    let _ = write!(
        svg,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    let _ = write!(
        svg,
        r#"<text x="{}" y="20" text-anchor="middle" font-size="14">{}</text>"#,
        WIDTH / 2.0,
        title
    );

    // Axes.
    let _ = write!(
        svg,
        r#"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{}" stroke="black"/>"#,
        MARGIN_T + plot_h
    );
    let _ = write!(
        svg,
        r#"<line x1="{MARGIN_L}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        MARGIN_T + plot_h,
        MARGIN_L + plot_w,
        MARGIN_T + plot_h
    );
    // Y ticks.
    for k in 0..=4 {
        let v = y_lo + (y_hi - y_lo) * f64::from(k) / 4.0;
        let y = y_of(v);
        let _ = write!(
            svg,
            r#"<line x1="{}" y1="{y}" x2="{MARGIN_L}" y2="{y}" stroke="black"/>"#,
            MARGIN_L - 4.0
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="end">{}</text>"#,
            MARGIN_L - 8.0,
            y + 4.0,
            fmt_tick(v)
        );
        if k > 0 {
            let _ = write!(
                svg,
                r##"<line x1="{MARGIN_L}" y1="{y}" x2="{}" y2="{y}" stroke="#dddddd"/>"##,
                MARGIN_L + plot_w
            );
        }
    }
    // X ticks (at most 10).
    if max_len > 1 {
        let step = (max_len / 10).max(1);
        for i in (0..max_len).step_by(step) {
            let x = x_of(i);
            let _ = write!(
                svg,
                r#"<line x1="{x}" y1="{}" x2="{x}" y2="{}" stroke="black"/>"#,
                MARGIN_T + plot_h,
                MARGIN_T + plot_h + 4.0
            );
            let _ = write!(
                svg,
                r#"<text x="{x}" y="{}" text-anchor="middle">{i}</text>"#,
                MARGIN_T + plot_h + 18.0
            );
        }
    }

    // Series.
    for (si, (label, ys)) in series.iter().enumerate() {
        let color = COLORS[si % COLORS.len()];
        let points: Vec<(f64, f64)> = ys
            .iter()
            .enumerate()
            .filter(|(_, y)| y.is_finite())
            .map(|(i, &y)| (x_of(i), y_of(y)))
            .collect();
        if points.len() > 1 {
            let coords: Vec<String> = points
                .iter()
                .map(|(x, y)| format!("{x:.1},{y:.1}"))
                .collect();
            let _ = write!(
                svg,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                coords.join(" ")
            );
        }
        for (x, y) in &points {
            let _ = write!(
                svg,
                r#"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="{color}"/>"#
            );
        }
        // Legend.
        let ly = MARGIN_T + 16.0 * si as f64;
        let _ = write!(
            svg,
            r#"<rect x="{}" y="{}" width="10" height="10" fill="{color}"/>"#,
            MARGIN_L + 8.0,
            ly
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}">{}</text>"#,
            MARGIN_L + 22.0,
            ly + 9.0,
            label
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders every series of an archived experiment into one SVG.
pub fn plot_experiment(result: &ExperimentResult) -> String {
    render_svg(
        &format!("{} ({})", result.experiment, result.scale),
        &result.series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Vec<(String, Vec<f64>)> {
        vec![
            ("lyra".into(), vec![1.0, 1.5, 2.0, 2.5]),
            ("baseline".into(), vec![1.0, 1.0, 1.0, 1.0]),
        ]
    }

    #[test]
    fn svg_has_expected_structure() {
        let svg = render_svg("t", &demo());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.matches("<circle").count() >= 8);
        assert!(svg.contains("lyra") && svg.contains("baseline"));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert!(render_svg("empty", &[]).contains("</svg>"));
        let flat = vec![("flat".into(), vec![5.0; 3])];
        assert!(render_svg("flat", &flat).contains("polyline"));
        let single = vec![("one".into(), vec![2.0])];
        assert!(render_svg("one", &single).contains("circle"));
        let nan = vec![("nan".into(), vec![f64::NAN, 1.0])];
        assert!(render_svg("nan", &nan).contains("</svg>"));
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(fmt_tick(12_000.0), "12k");
        assert_eq!(fmt_tick(42.0), "42");
        assert_eq!(fmt_tick(0.5), "0.50");
        assert_eq!(fmt_tick(0.0), "0");
    }
}
