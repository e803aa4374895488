//! `--compare A.json B.json`: the before/after table of every later
//! change. Per workload and end-to-end metric: both medians, the relative
//! difference with its base, the bound, and a verdict.

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract::{EndToEnd, END_TO_END};
use crate::host;
use crate::json::{self, Json};
use crate::workloads;
use crate::Res;

/// workload -> metric -> one value per untraced, undisturbed run in the
/// file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The runs of `path`, and how many were left out because the noise guard
/// marked them: a disturbed run is neither a baseline nor a regression.
fn load(path: &Path) -> Res<(Runs, usize)> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // Either a result file with "runs", or the record of a single run.
    let runs = match doc.get("runs") {
        Some(runs) => runs.as_arr(),
        None => std::slice::from_ref(&doc),
    };
    let mut out = Runs::new();
    let mut noisy = 0;
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        if run.get("noisy") == Some(&Json::Bool(true)) {
            noisy += 1;
            continue;
        }
        if run.get("comparable") == Some(&Json::Bool(false)) {
            return Err(format!("{}: holds --quick or --self-test runs", path.display()).into());
        }
        let (Some(workload), Some(Json::Obj(metrics))) = (
            run.get("workload").and_then(Json::as_str),
            run.get("metrics"),
        ) else {
            return Err(format!("{}: run without workload or metrics", path.display()).into());
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((out, noisy))
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread wider than the bound: no verdict either way.
    Unresolved,
}

/// `(worsening as a share of the base median, spread, verdict)`.
fn judge(metric: &EndToEnd, base: &[f64], cand: &[f64]) -> (f64, f64, Verdict) {
    let (b, c) = (host::median(base), host::median(cand));
    let change = if b != 0.0 { (c - b) / b.abs() } else { 0.0 };
    let worsening = if metric.better == "lower" {
        change
    } else {
        -change
    };
    let spread = host::iqr_share(base).max(host::iqr_share(cand));
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worsening, spread, verdict)
}

pub fn run(a: &Path, b: &Path) -> Res<u8> {
    let ((base, base_noisy), (cand, cand_noisy)) = (load(a)?, load(b)?);
    println!("base {}   candidate {}", a.display(), b.display());
    if base_noisy + cand_noisy > 0 {
        println!("left out as noisy: {base_noisy} base, {cand_noisy} candidate runs");
    }
    println!(
        "{:<13} {:<14} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "worse by", "spread", "bound"
    );
    let mut worse = 0;
    for workload in workloads::NAMES {
        for metric in &END_TO_END {
            let values = |runs: &Runs| {
                runs.get(workload)
                    .and_then(|m| m.get(metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (bv, cv) = (values(&base), values(&cand));
            if bv.is_empty() || cv.is_empty() {
                println!(
                    "{workload:<13} {:<14} no undisturbed run on one side: unresolved",
                    metric.name
                );
                continue;
            }
            let (worsening, spread, verdict) = judge(metric, &bv, &cv);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<13} {:<14} {:>12.3} {:>12.3} {:>+8.1}% {:>6.1}% {:>6.0}%  {}",
                workload,
                metric.name,
                host::median(&bv),
                host::median(&cv),
                worsening * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "worse-by is relative to the base median ({} base, {} candidate runs per workload); \
         spread is the wider inter-quartile range as a share of its median",
        base.values()
            .flat_map(|m| m.values())
            .map(Vec::len)
            .max()
            .unwrap_or(0),
        cand.values()
            .flat_map(|m| m.values())
            .map(Vec::len)
            .max()
            .unwrap_or(0),
    );
    Ok(u8::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = &END_TO_END[0]; // higher is better, bound 0.25
        let lat = &END_TO_END[1]; // lower is better, bound 0.25
        assert_eq!(judge(rate, &[100.0], &[80.0]).2, Verdict::Ok);
        assert_eq!(judge(rate, &[100.0], &[70.0]).2, Verdict::Worse);
        assert_eq!(judge(rate, &[100.0], &[150.0]).2, Verdict::Ok);
        assert_eq!(judge(lat, &[100.0], &[130.0]).2, Verdict::Worse);
        assert_eq!(judge(lat, &[100.0], &[60.0]).2, Verdict::Ok);
        // Runs that disagree among themselves by more than the bound.
        let wild = [40.0, 100.0, 160.0, 100.0];
        assert_eq!(judge(lat, &wild, &[100.0; 4]).2, Verdict::Unresolved);
    }
}
