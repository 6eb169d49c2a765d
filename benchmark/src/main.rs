//! The repo's end-to-end benchmark. One command runs a named workload
//! through `tpcc -> storage -> core -> flash`, checks that the outputs are
//! correct, and prints the end-to-end metrics on both clocks (untraced) or
//! the per-layer metrics (traced). See `benchmark/README.md`.
//!
//! ```text
//! pdl-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out SET.json]
//! pdl-benchmark compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object: the run's result
//! for a single workload, the whole set for `--workload all`.

mod compare;
mod json;
mod metrics;
mod probe;
mod rng;
mod run;
mod stats;
mod store;
mod tpcc;
mod trace;
mod update;
mod writers;

use json::{metrics_object, Json};
use metrics::WORKLOADS;
use run::{Report, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit codes: a failed correctness check, a violated workload guard, a
/// run that could not complete or a bad command line.
const EXIT_INCORRECT: u8 = 1;
const EXIT_GUARD: u8 = 2;
const EXIT_ERROR: u8 = 3;

struct Args {
    workload: String,
    cfg: RunConfig,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        cfg: RunConfig {
            seed: 1,
            seconds: 10,
            trace: false,
            smoke: false,
            perturb_shadow: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().ok_or_else(|| format!("{flag} needs a value")).map(String::as_str);
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.to_string(),
            "--seed" => {
                parsed.cfg.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                parsed.cfg.seconds = s;
            }
            "--trace" => {
                parsed.cfg.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => parsed.cfg.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; one of {names:?} or all", parsed.workload));
    }
    Ok(parsed)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Result<Report, String> {
    match name {
        "update_2pct" => run::run::<update::Update>(cfg),
        "tpcc_cold" => run::run::<tpcc::Tpcc<tpcc::Cold>>(cfg),
        "tpcc_hot" => run::run::<tpcc::Tpcc<tpcc::Hot>>(cfg),
        "writers2" => run::run::<writers::Writers>(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result object of one run: the driver's four keys.
fn result_json(report: &Report) -> Result<Json, String> {
    Ok(Json::Obj(vec![
        ("correct".to_string(), Json::Bool(report.correct())),
        ("attempted".to_string(), Json::Num(report.attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("metrics".to_string(), metrics_object(&report.metrics)?),
    ]))
}

/// A set: the runs of one invocation with what is needed to compare them
/// with another set later. `runs` pairs a workload with its result object.
fn set_json(runs: Vec<(String, Json)>, cfg: &RunConfig) -> Json {
    let runs = runs
        .into_iter()
        .map(|(workload, result)| {
            let Json::Obj(mut pairs) = result else { unreachable!("a result is an object") };
            pairs.insert(0, ("workload".to_string(), Json::Str(workload)));
            Json::Obj(pairs)
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("schema".to_string(), Json::Str("pdl-benchmark-set-v1".to_string())),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds as f64)),
        ("trace".to_string(), Json::Num(f64::from(u8::from(cfg.trace)))),
        ("smoke".to_string(), Json::Bool(cfg.smoke)),
        ("nproc".to_string(), Json::Num(cores as f64)),
        ("rustc".to_string(), Json::Str(env!("PDL_BENCHMARK_RUSTC").to_string())),
        ("runs".to_string(), Json::Arr(runs)),
    ])
}

fn print_report(report: &Report) {
    for line in &report.info {
        println!("# {line}");
    }
    for (name, value, unit) in &report.metrics {
        let better = metrics::better_of(name).map_or("", |b| b.as_str());
        println!("{:<12} {name:<40} {value:>18.4} {unit:<7} ({better} is better)", report.workload);
    }
    println!(
        "{:<12} {:<40} {:>18.6} ratio   ({} failed of {} attempted)",
        report.workload,
        "failed_op_share",
        report.failed_op_share(),
        report.failed,
        report.attempted
    );
    for note in &report.failure_notes {
        println!("# FAILED CHECK: {note}");
    }
    for violation in &report.guard_violations {
        println!("# GUARD VIOLATED: {violation}");
    }
}

/// Run one workload in this process. Returns its result object and the
/// exit code it earns.
fn run_here(name: &str, cfg: &RunConfig) -> Result<(Json, u8), String> {
    let report = run_workload(name, cfg)?;
    print_report(&report);
    // Smoke runs relax the guards: their sizes are not the workloads'.
    let code = if !report.correct() {
        EXIT_INCORRECT
    } else if !cfg.smoke && !report.guard_violations.is_empty() {
        EXIT_GUARD
    } else {
        0
    };
    Ok((result_json(&report)?, code))
}

/// Run one workload in a process of its own, as the driver does, so that
/// `peak_rss_mib` is that workload's and not the largest one's so far.
/// Waits for the child and passes its output through.
fn run_in_child(name: &str, cfg: &RunConfig) -> Result<(Json, u8), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child.args(["--workload", name, "--seed", &cfg.seed.to_string()]);
    child.args([
        "--seconds",
        &cfg.seconds.to_string(),
        "--trace",
        if cfg.trace { "1" } else { "0" },
    ]);
    if cfg.smoke {
        child.arg("--smoke");
    }
    let output = child.output().map_err(|e| format!("run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let code = output.status.code().unwrap_or(i32::from(EXIT_ERROR)) as u8;
    if code == EXIT_ERROR {
        return Err(format!("{name} did not complete"));
    }
    let result = Json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{name}: result line: {e}"))?;
    Ok((result, code))
}

fn benchmark(args: Args) -> Result<u8, String> {
    let all = args.workload == "all";
    let mut runs = Vec::new();
    let mut worst = 0;
    if all {
        for w in &WORKLOADS {
            let (result, code) = run_in_child(w.name, &args.cfg)?;
            runs.push((w.name.to_string(), result));
            worst = worst.max(code);
        }
    } else {
        let (result, code) = run_here(&args.workload, &args.cfg)?;
        runs.push((args.workload.clone(), result));
        worst = code;
    }
    // The result line comes last: the run's own for one workload, the set
    // for all four.
    let last_line = if all { None } else { Some(runs[0].1.encode()) };
    let set = set_json(runs, &args.cfg).encode();
    if let Some(path) = &args.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{set}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# set written to {}", path.display());
    }
    println!("{}", last_line.unwrap_or(set));
    Ok(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare::main(a, b).map(|code| code as u8),
        [cmd, ..] if cmd == "compare" => Err("usage: compare <a.json> <b.json>".to_string()),
        _ => parse_args(&args).and_then(benchmark),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("pdl-benchmark: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool, seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 10,
            trace,
            smoke: true,
            perturb_shadow: false,
            // Tests of one process share no file: each names its own.
            out_dir: std::env::temp_dir().join(format!("pdl-benchmark-test-{seed}")),
        }
    }

    fn digest_of(report: &Report) -> String {
        let line = report.info.iter().find(|l| l.contains("op-stream digest")).expect("digest");
        line.rsplit(' ').next().expect("digest value").to_string()
    }

    #[test]
    fn smoke_size_passes_every_check_on_all_four_workloads() {
        for w in &WORKLOADS {
            let report = run_workload(w.name, &smoke(false, 11)).unwrap();
            assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.failure_notes);
            assert!(report.attempted > 0);
            assert_eq!(report.metrics.len(), metrics::END_TO_END.len());
            for (name, value, _) in &report.metrics {
                assert!(value.is_finite() && *value > 0.0, "{}: {name} = {value}", w.name);
            }
            let line = result_json(&report).unwrap().encode();
            let parsed = Json::parse(&line).unwrap();
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(parsed.as_obj().map(<[_]>::len), Some(4));
        }
    }

    #[test]
    fn traced_smoke_run_emits_every_per_layer_metric() {
        for w in &WORKLOADS {
            let cfg = smoke(true, 12);
            let report = run_workload(w.name, &cfg).unwrap();
            assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.failure_notes);
            let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            // What every workload measures is never 0.
            for name in ["flash.writes_per_op", "core.recover.flash_reads", "bench.driver_self_ns"]
            {
                assert!(report.metric(name).unwrap() > 0.0, "{}: {name}", w.name);
            }
            let path = cfg.out_dir.join(format!("trace-{}-seed12.json", w.name));
            let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert!(!trace.get("traceEvents").and_then(Json::as_arr).unwrap().is_empty());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn same_seed_same_op_stream_and_a_different_seed_a_different_one() {
        for w in &WORKLOADS {
            let a = digest_of(&run_workload(w.name, &smoke(false, 21)).unwrap());
            let b = digest_of(&run_workload(w.name, &smoke(false, 21)).unwrap());
            let c = digest_of(&run_workload(w.name, &smoke(false, 22)).unwrap());
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
        }
    }

    #[test]
    fn simulated_clock_metrics_repeat_exactly_on_one_thread() {
        for name in ["update_2pct", "tpcc_cold", "tpcc_hot"] {
            let a = run_workload(name, &smoke(false, 31)).unwrap();
            let b = run_workload(name, &smoke(false, 31)).unwrap();
            for m in [
                "flash_us_per_op",
                "flash_p99_us",
                "erases_per_kop",
                "space_amp",
                "recover_flash_ms",
            ] {
                assert_eq!(a.metric(m), b.metric(m), "{name}: {m}");
            }
        }
    }

    /// The checker's self-test: a byte flipped in the benchmark's own
    /// shadow before the post-recovery compare must count as a failure.
    #[test]
    fn a_perturbed_expectation_is_never_a_silent_pass() {
        for w in &WORKLOADS {
            let cfg = RunConfig { perturb_shadow: true, ..smoke(false, 41) };
            let report = run_workload(w.name, &cfg).unwrap();
            assert!(report.failed > 0 && report.failed_op_share() > 0.0, "{}", w.name);
            assert!(!report.correct());
            assert!(
                report.failure_notes.iter().any(|n| n.contains("after recovery")),
                "{}",
                w.name
            );
            let line = result_json(&report).unwrap().encode();
            assert_eq!(Json::parse(&line).unwrap().get("correct"), Some(&Json::Bool(false)));
        }
    }

    #[test]
    fn command_line() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload tpcc_hot --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.cfg.seed, a.cfg.seconds), ("tpcc_hot", 7, 3));
        assert!(a.cfg.trace && !a.cfg.smoke);
        assert_eq!(parse_args(&[]).unwrap().workload, "all");
        for bad in ["--workload nope", "--seconds 0", "--seconds 61", "--trace 2", "--seed", "--x"]
        {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
