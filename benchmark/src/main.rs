//! The repo benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! One invocation runs one named workload in its own process, prints
//! every metric by name with its unit, checks the simulator's outputs,
//! and ends with the one-line JSON result the benchmark contract asks
//! for. `--workload all` and `--repeat-check` re-invoke this binary once
//! per run so set-up time and peak memory stay per workload.

mod cells;
mod env;
mod grid;
mod json;
mod metrics;
mod repeat;
mod run;
mod spans;
mod sweep;
mod timed;

use cells::{Shape, WorkloadDef};
use json::Json;
use metrics::{fastest, median, MetricDef, END_TO_END, PER_LAYER};
use run::{cpu_s, wall_s, Measured, Opts, SCALE_LABEL};
use std::process::ExitCode;

/// `--seconds` when not given; equal to `BENCHMARK.json`'s `run_seconds`
/// (a test compares them).
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "\
usage: etpp-benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1] [--repeat-check]

workloads: cycle_fixed cycle_ppu replay_grid sweep_cold sweep_warm
  --seed N        sweep shard (N mod 127) and cell execution order (default 0)
  --seconds N     measure timed passes for N seconds, at least 3 passes (default 12)
  --trace 1       one more pass through the instrumented replicas; prints the
                  per-layer metrics and writes benchmark/target/trace-<workload>.json
  --repeat-check  two sets of 10 runs per workload, seeds N..N+9: prints both medians,
                  their difference, the spread and the bound of every end-to-end
                  metric; exits 1 when a bound is exceeded";

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: String,
    pub opts: Opts,
    pub repeat_check: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        opts: Opts {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            traced: false,
        },
        repeat_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot use `{v}`");
        match flag.as_str() {
            "--workload" => cli.workload = value()?.to_string(),
            "--seed" => cli.opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                cli.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                cli.opts.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workload != "all" && cells::workload(&cli.workload).is_none() {
        return Err(format!("--workload: unknown workload `{}`", cli.workload));
    }
    Ok(cli)
}

/// The end-to-end metric values of one run, in [`END_TO_END`] order.
fn end_to_end_values(m: &Measured) -> Vec<f64> {
    let pass_cpu_s = fastest(&cpu_s(&m.passes));
    END_TO_END
        .iter()
        .map(|def| match def.name {
            "setup_s" => median(&cpu_s(&m.setups)),
            "pass_wall_s" => fastest(&wall_s(&m.passes)),
            "pass_cpu_s" => pass_cpu_s,
            "sim_accesses_per_cpu_s" => m.accesses_per_pass as f64 / pass_cpu_s,
            "peak_rss_mb" => m.peak_rss_mib,
            other => unreachable!("undeclared end-to-end metric {other}"),
        })
        .collect()
}

fn metrics_json(defs: &[MetricDef], values: &[f64]) -> Json {
    Json::obj(defs.iter().zip(values).map(|(d, v)| {
        (
            d.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]),
        )
    }))
}

/// Runs `def` in this process and prints its result.
fn run_one(def: &WorkloadDef, cli: &Cli) -> Result<bool, String> {
    let opts = &cli.opts;
    println!(
        "# etpp benchmark: workload={} seed={} scale={} seconds={} traced={} \
         available_parallelism={} rustc=\"{}\"",
        def.name,
        opts.seed,
        SCALE_LABEL,
        opts.seconds,
        opts.traced,
        env::available_parallelism(),
        env::rustc_version()
    );
    let scratch = env::Scratch::create("")?;
    let measured = match def.shape {
        Shape::Grid(driver, modes) => {
            grid::run(driver, modes, opts, def.setup_reps, scratch.path())
        }
        Shape::Sweep { warm } => sweep::run(warm, opts, def.setup_reps, scratch.path()),
    }?;
    drop(scratch);

    for (what, times) in [
        ("set-ups", &measured.setups),
        ("timed passes", &measured.passes),
    ] {
        for (clock, v) in [("cpu_s", cpu_s(times)), ("wall_s", wall_s(times))] {
            println!(
                "# {} {what}: {clock} median {:.4} min {:.4} max {:.4}",
                v.len(),
                median(&v),
                fastest(&v),
                v.iter().copied().fold(0.0, f64::max),
            );
        }
    }
    let listed: Vec<String> = measured
        .passes
        .iter()
        .map(|t| format!("{:.6}", t.cpu_s))
        .collect();
    println!("# pass cpu_s: {}", listed.join(" "));
    for message in &measured.check.messages {
        println!("# FAILED: {message}");
    }

    let (defs, values): (&[MetricDef], Vec<f64>) = if opts.traced {
        let values = PER_LAYER
            .iter()
            .map(|d| measured.layer.get(d.name))
            .collect();
        (PER_LAYER, values)
    } else {
        (END_TO_END, end_to_end_values(&measured))
    };
    for (d, v) in defs.iter().zip(&values) {
        println!("{:<40} {:>22} {}", d.name, v, d.unit);
    }
    let metrics = metrics_json(defs, &values);

    if opts.traced {
        let path = env::package_dir().join(format!("target/trace-{}.json", def.name));
        let doc = Json::obj([
            ("workload", Json::str(def.name)),
            ("seed", Json::Num(opts.seed as f64)),
            ("scale", Json::str(SCALE_LABEL)),
            ("per_layer", metrics.clone()),
            ("detail", measured.detail.clone()),
        ]);
        std::fs::write(&path, doc.write(Some(1)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }

    let correct = measured.check.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.check.attempted as f64)),
        (
            "failed",
            Json::Num(measured.check.failed.min(measured.check.attempted) as f64),
        ),
        ("metrics", metrics),
    ]);
    println!("{}", result.write(None));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = env::check_build_profile() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let outcome = if cli.repeat_check {
        repeat::repeat_check(&cli)
    } else if cli.workload == "all" {
        repeat::run_all(&cli)
    } else {
        let def = cells::workload(&cli.workload).expect("parse_args checked the name");
        run_one(def, &cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::WORKLOADS;
    use std::collections::BTreeSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse_args(&args(&[
            "--workload",
            "sweep_warm",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload, "sweep_warm");
        assert_eq!(cli.opts.seed, 17);
        assert_eq!(cli.opts.seconds, 10.0);
        assert!(cli.opts.traced);
        assert!(!cli.repeat_check);
    }

    #[test]
    fn bad_command_lines_are_named_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "cycle_fixed", "--seed", "-1"],
            &["--workload", "cycle_fixed", "--seconds", "nan"],
            &["--workload", "cycle_fixed", "--trace", "2"],
            &["--workload", "cycle_fixed", "--traced"],
            &["--workload", "cycle_fixed", "--bogus"],
            &["--workload"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// The emitted metric set, the workload list and the default run
    /// length are exactly what `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_what_the_harness_emits() {
        let path = env::package_dir().join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: BTreeSet<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from([
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ])
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );

        let declared = |section: &str| -> Vec<(String, String, String)> {
            doc.get(section)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let emitted = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.key().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), emitted(END_TO_END));
        assert_eq!(declared("per_layer"), emitted(PER_LAYER));
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }

        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    }
}
