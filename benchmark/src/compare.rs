//! `compare A.json B.json`: applies the end-to-end bounds to two result
//! files, one row per (workload, metric) pairing. A is the baseline.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::quartiles;
use std::fmt::Write as _;

/// What one pairing shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread of either side exceeds the bound: the
    /// medians cannot resolve a change of that size.
    Unresolved,
    /// One side did not measure the workload (a 1-core host).
    NotMeasured,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NotMeasured => "not measured",
        }
    }
}

fn samples(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
}

fn failed_share(doc: &Value, workload: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("checks")?
        .get("failed_share")?
        .as_f64()
}

/// Judges B against A on one metric.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::NotMeasured;
    }
    let (a1, a2, a3) = quartiles(a);
    let (b1, b2, b3) = quartiles(b);
    // Positive = B worse, as a share of A's median.
    let worse_by = match m.better {
        Better::Lower => (b2 - a2) / a2.abs(),
        Better::Higher => (a2 - b2) / a2.abs(),
    };
    let bound = if m.exact { 0.0 } else { m.bound };
    let spread = ((a3 - a1) / a2.abs()).max((b3 - b1) / b2.abs());
    if spread > m.bound {
        // Unless every run of one side beats every run of the other.
        let (a_min, a_max) = (min(a), max(a));
        let (b_min, b_max) = (min(b), max(b));
        let (b_all_better, b_all_worse) = match m.better {
            Better::Lower => (b_max < a_min, b_min > a_max),
            Better::Higher => (b_min > a_max, b_max < a_min),
        };
        return if b_all_better {
            Verdict::Better
        } else if b_all_worse && worse_by > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regression
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// Four significant digits for fractions, plain integers for counts:
/// the table holds microsecond set-ups next to 60-million-byte peaks.
fn sig(x: f64) -> String {
    if x == 0.0 || (x.fract() == 0.0 && x.abs() < 1e15) {
        return format!("{x:.0}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The comparison table and whether B regressed anywhere.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for (label, doc) in [("A", a), ("B", b)] {
        if doc.num("schema") != f64::from(crate::bench::SCHEMA) {
            return Err(format!(
                "{label}: not a schema-{} result file",
                crate::bench::SCHEMA
            ));
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("A: no workloads")?;

    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<18} {:<17} {:>12} {:>12} {:>8} {:>6}  {:<28} {:<28} verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B vs A",
        "bound",
        "A q1..q3 (n)",
        "B q1..q3 (n)"
    );
    for (workload, _) in workloads {
        for m in &END_TO_END {
            let sa = samples(a, workload, m.name).unwrap_or_default();
            let sb = samples(b, workload, m.name).unwrap_or_default();
            let verdict = judge(m, &sa, &sb);
            regressed |= verdict == Verdict::Regression;
            let (a1, a2, a3) = quartiles(&sa);
            let (b1, b2, b3) = quartiles(&sb);
            let delta = if a2 == 0.0 {
                0.0
            } else {
                (b2 - a2) / a2 * 100.0
            };
            let _ = writeln!(
                out,
                "{workload:<18} {:<17} {:>12} {:>12} {delta:>+7.2}% {:>5.1}%  {:<28} {:<28} {}",
                m.name,
                sig(a2),
                sig(b2),
                if m.exact { 0.0 } else { m.bound * 100.0 },
                format!("{}..{} ({})", sig(a1), sig(a3), sa.len()),
                format!("{}..{} ({})", sig(b1), sig(b3), sb.len()),
                verdict.as_str(),
            );
        }
        let (fa, fb) = (failed_share(a, workload), failed_share(b, workload));
        if let (Some(fa), Some(fb)) = (fa, fb) {
            let worse = fb > fa;
            regressed |= worse;
            let _ = writeln!(
                out,
                "{workload:<18} {:<17} {:>12} {:>12}  {}",
                "failed_share",
                sig(fa),
                sig(fb),
                if worse { "REGRESSION" } else { "ok" },
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{}",
        if regressed {
            "B regressed against A"
        } else {
            "no regression: every pairing within its bound (or unresolved / not measured, as marked)"
        }
    );
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, obj};

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    /// A timing with a 10 % bound, whatever the table currently says.
    fn wall() -> &'static EndToEnd {
        &EndToEnd {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
            exact: false,
        }
    }

    #[test]
    fn within_bound_is_ok_and_beyond_it_is_a_regression() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge(wall(), &a, &[1.05, 1.06, 1.04, 1.05, 1.05]),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall(), &a, &[1.15, 1.16, 1.14, 1.15, 1.15]),
            Verdict::Regression
        );
        assert_eq!(
            judge(wall(), &a, &[0.80, 0.81, 0.79, 0.80, 0.80]),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            judge(wall(), &noisy, &[1.1, 1.0, 1.2, 0.9, 1.3]),
            Verdict::Unresolved
        );
        // Every B run faster than every A run: resolved despite the spread.
        assert_eq!(
            judge(wall(), &noisy, &[0.5, 0.6, 0.7, 0.5, 0.6]),
            Verdict::Better
        );
        assert_eq!(
            judge(wall(), &noisy, &[2.0, 2.4, 1.9, 2.2, 2.1]),
            Verdict::Regression
        );
    }

    #[test]
    fn deterministic_counts_tolerate_no_worsening_at_all() {
        let states = end_to_end("states_total").unwrap();
        assert_eq!(judge(states, &[40703.0; 3], &[40703.0; 3]), Verdict::Ok);
        assert_eq!(
            judge(states, &[40703.0; 3], &[40704.0; 3]),
            Verdict::Regression
        );
        assert_eq!(judge(states, &[40703.0; 3], &[40000.0; 3]), Verdict::Better);
        let passed = end_to_end("passed_share").unwrap();
        assert_eq!(judge(passed, &[1.0], &[0.98]), Verdict::Regression);
        assert_eq!(judge(passed, &[1.0], &[]), Verdict::NotMeasured);
    }

    fn file(wall: &[f64], failed_share: f64) -> Value {
        let metric = |samples: &[f64]| {
            obj([(
                "samples",
                Value::Arr(samples.iter().map(|&s| num(s)).collect()),
            )])
        };
        obj([
            ("schema", num(1)),
            (
                "workloads",
                obj([(
                    "w",
                    obj([
                        ("end_to_end", obj([("wall_s", metric(wall))])),
                        ("checks", obj([("failed_share", num(failed_share))])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn numbers_print_with_four_significant_digits_or_as_integers() {
        assert_eq!(sig(0.000036294), "0.00003629");
        assert_eq!(sig(4.190049564), "4.190");
        assert_eq!(sig(120.73828125), "120.7");
        assert_eq!(sig(59562176.0), "59562176");
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(1.0), "1");
    }

    #[test]
    fn compare_flags_slower_walls_and_new_failures() {
        let a = file(&[1.0, 1.0, 1.0], 0.0);
        let (table, regressed) = compare(&a, &file(&[1.01, 1.0, 1.02], 0.0)).unwrap();
        assert!(!regressed, "{table}");
        assert!(compare(&a, &file(&[1.3, 1.3, 1.3], 0.0)).unwrap().1);
        assert!(compare(&a, &file(&[1.0, 1.0, 1.0], 0.1)).unwrap().1);
        assert!(compare(&obj([("schema", num(2))]), &a).is_err());
    }
}
