//! `compare <a> <b>`: two result sets side by side, judged by the bounds of
//! the end-to-end metric table. The tool for the repeatability criterion
//! and for every parent-versus-change table.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Worse,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
        }
    }
}

/// Judge `b` against base `a`: beyond `bound` (a share of `a`) in the bad
/// direction is worse, beyond it in the good direction is better.
pub fn judge(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let (gain, loss) = match better {
        Better::Lower => (a - b, b - a),
        Better::Higher => (b - a, a - b),
    };
    let slack = bound * a.abs();
    if loss > slack {
        Verdict::Worse
    } else if gain > slack {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn run_of<'a>(set: &'a Json, workload: &str) -> Option<&'a Json> {
    set.get("runs")?
        .as_arr()?
        .iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

fn metric_of(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed_share(run: &Json) -> Option<f64> {
    Some(run.get("failed")?.as_f64()? / run.get("attempted")?.as_f64()?)
}

/// Render the table for two parsed sets. Returns it with the number of
/// `worse` rows.
pub fn compare_sets(a: &Json, b: &Json) -> Result<(String, usize), String> {
    let mut table = format!(
        "{:<12} {:<18} {:>16} {:>16} {:>9} {:>6} {:>7}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "better"
    );
    let (mut worse, mut rows) = (0, 0);
    let mut row = |workload: &str,
                   name: &str,
                   av: f64,
                   bv: f64,
                   better: Better,
                   bound: f64,
                   verdict: Verdict| {
        let ratio = if av == 0.0 { "-".to_string() } else { format!("{:.4}", bv / av) };
        table.push_str(&format!(
            "{workload:<12} {name:<18} {av:>16.4} {bv:>16.4} {ratio:>9} {bound:>6} {:>7}  {}\n",
            better.as_str(),
            verdict.as_str()
        ));
        rows += 1;
        worse += usize::from(verdict == Verdict::Worse);
    };
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (run_of(a, w.name), run_of(b, w.name)) else { continue };
        for m in &END_TO_END {
            let (Some(av), Some(bv)) = (metric_of(ra, m.name), metric_of(rb, m.name)) else {
                return Err(format!("{}: metric {} is missing from a set", w.name, m.name));
            };
            row(w.name, m.name, av, bv, m.better, m.bound, judge(av, bv, m.better, m.bound));
        }
        // Bound 0, absolute: any rise in the failure share is worse.
        let (Some(av), Some(bv)) = (failed_share(ra), failed_share(rb)) else {
            return Err(format!("{}: attempted/failed are missing from a set", w.name));
        };
        let verdict = match bv.total_cmp(&av) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Ok,
        };
        row(w.name, "failed_op_share", av, bv, Better::Lower, 0.0, verdict);
    }
    if rows == 0 {
        return Err("the two sets share no workload".to_string());
    }
    Ok((table, worse))
}

/// The `compare` subcommand: exit code 0 when nothing is worse.
pub fn main(a_path: &str, b_path: &str) -> Result<i32, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, worse) = compare_sets(&load(a_path)?, &load(b_path)?)?;
    print!("{table}");
    println!("{worse} worse");
    Ok(if worse == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(100.0, 109.9, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 110.1, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, 89.0, Better::Lower, 0.10), Verdict::Better);
        // Higher is better.
        assert_eq!(judge(100.0, 91.0, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, 111.0, Better::Higher, 0.10), Verdict::Better);
        // Equal is ok at any bound.
        assert_eq!(judge(5.0, 5.0, Better::Lower, 0.01), Verdict::Ok);
    }

    fn set(ops_per_s: f64, failed: u64) -> Json {
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .map(|m| {
                (m.name.to_string(), if m.name == "ops_per_s" { ops_per_s } else { 2.0 }, m.unit)
            })
            .collect();
        let run = Json::Obj(vec![
            ("workload".to_string(), Json::Str("tpcc_hot".to_string())),
            ("attempted".to_string(), Json::Num(1000.0)),
            ("failed".to_string(), Json::Num(failed as f64)),
            ("metrics".to_string(), crate::json::metrics_object(&metrics).unwrap()),
        ]);
        Json::Obj(vec![("runs".to_string(), Json::Arr(vec![run]))])
    }

    #[test]
    fn a_set_compares_clean_against_itself_and_flags_regressions() {
        let base = set(4000.0, 0);
        let (table, worse) = compare_sets(&base, &base).unwrap();
        assert_eq!(worse, 0, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 1);

        let (table, worse) = compare_sets(&base, &set(2000.0, 0)).unwrap();
        assert_eq!(worse, 1, "{table}");
        assert!(table.lines().any(|l| l.contains("ops_per_s") && l.ends_with("worse")));

        let (_, worse) = compare_sets(&base, &set(4000.0, 1)).unwrap();
        assert_eq!(worse, 1, "one failed op is worse at a bound of 0");
        let (_, worse) = compare_sets(&base, &set(8000.0, 0)).unwrap();
        assert_eq!(worse, 0, "better is not worse");

        assert!(compare_sets(&base, &Json::Obj(vec![])).is_err());
    }
}
