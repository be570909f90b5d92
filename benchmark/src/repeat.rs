//! `--workload all` and `--repeat-check`: both re-invoke this binary once
//! per run (one workload per process) and read the result line back.

use crate::cells::WORKLOADS;
use crate::env;
use crate::json::Json;
use crate::metrics::{median, spread, Better, END_TO_END, PER_LAYER};
use crate::run::SCALE_LABEL;
use crate::Cli;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The workloads `--workload <name|all>` names.
fn chosen_workloads(cli: &Cli) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| cli.workload == "all" || cli.workload == *name)
        .collect()
}

/// Metric values by name, as a child's result line reports them.
type Values = BTreeMap<String, f64>;

/// One child run's result line.
struct ChildResult {
    correct: bool,
    values: Values,
}

/// Runs one workload in a child process and parses its last stdout line.
/// The child's own report goes to our stderr so the parent's stdout
/// stays one document.
fn child(cli: &Cli, workload: &str, seed: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last)
        .map_err(|e| format!("{workload} (exit {}): no result line: {e}", output.status))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?;
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        values: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn values_json(values: &Values) -> Json {
    Json::obj(values.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
}

/// Runs every chosen workload once (plus one traced run each with
/// `--trace 1`) and prints one document with all their metrics — the
/// shape `benchmark/BASELINE.json` records.
pub fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    for name in chosen_workloads(cli) {
        let plain = child(cli, name, cli.opts.seed, false)?;
        all_correct &= plain.correct;
        let mut row = vec![("end_to_end", values_json(&plain.values))];
        if cli.opts.traced {
            let traced = child(cli, name, cli.opts.seed, true)?;
            all_correct &= traced.correct;
            row.push(("per_layer", values_json(&traced.values)));
        }
        rows.push((name, Json::obj(row)));
    }
    let doc = Json::obj([
        ("seed", Json::Num(cli.opts.seed as f64)),
        ("scale", Json::str(SCALE_LABEL)),
        ("run_seconds", Json::Num(cli.opts.seconds)),
        (
            "available_parallelism",
            Json::Num(env::available_parallelism() as f64),
        ),
        ("rustc", Json::str(env::rustc_version())),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(rows)),
    ]);
    println!("{}", doc.write(Some(1)));
    Ok(all_correct)
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = env::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs per set of `--repeat-check`: the count the benchmark's acceptance
/// rule takes its quartiles over.
const RUNS: u64 = 10;

/// Two back-to-back sets of [`RUNS`] runs per chosen workload, seeds
/// `seed..seed+RUNS`, judged as the benchmark's acceptance rule judges
/// them: per end-to-end metric the second set's median may not be worse
/// than the first's by more than the bound, and (except for `setup_s`)
/// neither set's inter-quartile spread may exceed it. One traced run per
/// set checks that every exact per-layer metric repeats to the digit.
pub fn repeat_check(cli: &Cli) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    let mut report = Vec::new();
    for name in chosen_workloads(cli) {
        let mut sets: Vec<BTreeMap<&str, Vec<f64>>> = Vec::new();
        let mut exact: Vec<Values> = Vec::new();
        for _set in 0..2 {
            let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for i in 0..RUNS {
                let run = child(cli, name, cli.opts.seed + i, false)?;
                ok &= run.correct;
                for def in END_TO_END {
                    let v = run.values.get(def.name).copied();
                    let v = v.ok_or_else(|| format!("{name}: {} not reported", def.name))?;
                    samples.entry(def.name).or_default().push(v);
                }
            }
            sets.push(samples);
            let traced = child(cli, name, cli.opts.seed, true)?;
            ok &= traced.correct;
            exact.push(traced.values);
        }
        for def in END_TO_END {
            let (a, b) = (&sets[0][def.name], &sets[1][def.name]);
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let worse = worse_by(def.better, median(a), median(b));
            let spreads = (spread(a), spread(b));
            let steady = def.name == "setup_s" || spreads.0.max(spreads.1) <= bound;
            let pass = worse <= bound && steady;
            ok &= pass;
            report.push(format!(
                "{name:<12} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>7.2}% {:>6.0}%  {}",
                def.name,
                median(a),
                median(b),
                100.0 * worse,
                100.0 * spreads.0,
                100.0 * spreads.1,
                100.0 * bound,
                if pass { "ok" } else { "EXCEEDED" }
            ));
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (a, b) = (exact[0].get(def.name), exact[1].get(def.name));
            if a != b || a.is_none() {
                ok = false;
                report.push(format!(
                    "{name:<12} {:<20} exact metric differs between sets: {a:?} vs {b:?}",
                    def.name
                ));
            }
        }
    }
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}",
        "workload", "metric", "median 1", "median 2", "worse by", "spread 1", "spread 2", "bound"
    );
    for line in &report {
        println!("{line}");
    }
    println!(
        "repeat-check: {} ({} runs per set, seeds {}..{}, available_parallelism {})",
        if ok { "PASS" } else { "FAIL" },
        RUNS,
        cli.opts.seed,
        cli.opts.seed + RUNS - 1,
        env::available_parallelism()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_in_benchmark_json() {
        let bounds = bounds().unwrap();
        for def in END_TO_END {
            assert!(bounds.contains_key(def.name), "{} has no bound", def.name);
        }
        assert_eq!(bounds.len(), END_TO_END.len());
    }
}
