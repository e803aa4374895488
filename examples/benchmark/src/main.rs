//! The DPFS benchmark: five closed-loop workloads against an in-process
//! 4-iond / 2-metad cluster, end-to-end metrics from an untraced window
//! and an outside-in layer table from a traced one. See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! benchmark [--seed N] [--seconds S] [--repeat R] [--quick] every workload, both ways
//! benchmark --self-test                                     prove the checker checks
//! benchmark --compare A.json B.json                         before/after table
//! ```

mod cluster;
mod compare;
mod contract;
mod driver;
mod host;
mod json;
mod layers;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::Cluster;
use contract::{END_TO_END, PER_LAYER};
use driver::{run_window, Summary};
use layers::{ReplayBudget, Scrape, Values};
use spans::Recorder;
use workloads::Client;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Untimed operations before the first window: connections dialed, server
/// subfiles open, page cache and allocator warm.
const WARMUP_S: f64 = 2.0;
/// Boots + seedings per untraced run; `setup_s` is their median. All
/// before the window: set-ups made after it run a third faster on
/// `small_read`, and the median over both kinds moved more from one set
/// of runs to the next than the median over either (README, "Noise").
const SETUPS: usize = 5;

/// Exit codes beyond success: a check failed; the self-test saw no failure.
const EXIT_FAILED: u8 = 1;
const EXIT_CHECKER_DEAD: u8 = 3;

struct Config {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: u64,
    self_test: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        repeat: 1,
        self_test: false,
        quick: false,
        out: None,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    let number = |flag: &str, v: Option<String>| -> Result<u64, String> {
        v.as_deref()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => cfg.workload = Some(args.next().ok_or("--workload needs a name")?),
            "--seed" => cfg.seed = number("--seed", args.next())?,
            "--seconds" => cfg.seconds = number("--seconds", args.next())?.max(1),
            "--trace" => cfg.trace = number("--trace", args.next())? != 0,
            "--repeat" => cfg.repeat = number("--repeat", args.next())?.max(1),
            "--self-test" => cfg.self_test = true,
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = Some(args.next().ok_or("--out needs a path")?.into()),
            "--compare" => match (args.next(), args.next()) {
                (Some(a), Some(b)) => cfg.compare = Some((a.into(), b.into())),
                _ => return Err("--compare needs two result files".into()),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.quick {
        cfg.seconds = 1;
    }
    Ok(cfg)
}

/// Where run state, traces and results go: `benchmark/` in the build
/// directory this binary was built into (`<target>/release/benchmark` is
/// the binary), so inside the checkout and already ignored by git,
/// whatever the current directory is.
fn bench_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the binary is not inside a build directory")?;
    Ok(target.join("benchmark"))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &cfg.compare {
        compare::run(a, b)
    } else if cfg.workload.is_some() {
        run_one(&cfg)
    } else {
        run_all(&cfg)
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ----------------------------------------------------------------- one run

struct Bed {
    cluster: Cluster,
    clients: Vec<Box<dyn Client>>,
}

/// Boot the cluster and seed the workload, `times` times over; keep the
/// last and return each attempt's duration in seconds.
fn set_up(
    cfg: &Config,
    workload: &str,
    data: &Arc<Vec<u8>>,
    scratch: &Path,
    times: usize,
) -> Res<(Bed, Vec<f64>)> {
    let mut secs = Vec::with_capacity(times);
    let mut bed = None;
    for _ in 0..times {
        if let Some(bed) = bed.take() {
            tear_down(bed);
        }
        let t0 = Instant::now();
        let cluster = Cluster::boot(&scratch.join("cluster"))?;
        let clients = workloads::setup(workload, &cluster, cfg.seed, data, cfg.self_test)?;
        secs.push(t0.elapsed().as_secs_f64());
        bed = Some(Bed { cluster, clients });
    }
    Ok((bed.expect("at least one setup"), secs))
}

/// Quiet-cluster checks of every client: `(made, failed)`.
fn finish(clients: &mut [Box<dyn Client>]) -> (u64, u64) {
    clients
        .iter_mut()
        .map(|c| c.finish())
        .fold((0, 0), |acc, (made, failed)| (acc.0 + made, acc.1 + failed))
}

struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in contract order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The window the noise guard judges.
    window: Summary,
    setup_runs: Vec<f64>,
}

fn run_one(cfg: &Config) -> Res<u8> {
    let workload = cfg.workload.as_deref().expect("run_one needs a workload");
    let dir = bench_dir()?;
    let scratch = dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let outcome = if cfg.trace {
        traced_run(cfg, workload, &dir, &scratch)
    } else {
        untraced_run(cfg, workload, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    let correct = outcome.failed == 0;
    let noisy = outcome.window.noisy();
    println!(
        "{workload}  seed {}  window {} s  trace {}  samples {}{}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        outcome.attempted,
        if cfg.quick {
            "  QUICK: not comparable"
        } else {
            ""
        }
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<34} {value:>14.3} {unit}");
    }
    // Of the same window, recorded but not gated (README, "Noise").
    for (name, value, unit) in [
        ("lat_p95_us", outcome.window.lat_p95_us, "us"),
        ("cpu_ms_per_op", outcome.window.cpu_ms_per_op, "ms"),
        ("host.steal_ratio", outcome.window.steal_ratio, "ratio"),
    ] {
        println!("  ({name:<32} {value:>14.3} {unit})");
    }
    if noisy {
        eprintln!(
            "benchmark: {workload} run is NOISY (steal {:.1} %, slice IQR {:.1} % of median): \
             do not believe it",
            outcome.window.steal_ratio * 100.0,
            outcome.window.slice_iqr * 100.0
        );
    }

    let metrics = json::metrics_object(&outcome.metrics);
    let slices: Vec<String> = outcome
        .window
        .slice_rates
        .iter()
        .map(|r| json::num(*r))
        .collect();
    let setups: Vec<String> = outcome.setup_runs.iter().map(|s| json::num(*s)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"window_s\": {}, \"trace\": {}, \"comparable\": {}, \
         \"claim\": null, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"noisy\": {noisy}, \"host.steal_ratio\": {}, \"lat_p95_us\": {}, \
         \"cpu_ms_per_op\": {}, \"slice_iqr\": {}, \"slice_ops_per_s\": [{}], \
         \"setup_s_runs\": [{}], \"nproc\": {}, \"clients\": {}, \"io_servers\": {}, \
         \"metad_shards\": {}, \"kernel\": {}, \"git_commit\": {}, \"flush_policy\": {}, \
         \"metrics\": {metrics}}}",
        json::string(workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        !cfg.quick && !cfg.self_test,
        outcome.attempted,
        outcome.failed,
        json::num(outcome.window.steal_ratio),
        json::num(outcome.window.lat_p95_us),
        json::num(outcome.window.cpu_ms_per_op),
        json::num(outcome.window.slice_iqr),
        slices.join(", "),
        setups.join(", "),
        host::nproc(),
        workloads::CLIENTS,
        cluster::IO_SERVERS,
        cluster::METAD_SHARDS,
        json::string(&host::kernel()),
        json::string(&host::git_commit()),
        json::string(cluster::FLUSH_POLICY),
    );
    std::fs::write(record_path(&dir, workload, cfg.trace), &record)?;

    // The contract's result line: last on standard output.
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    Ok(match (cfg.self_test, correct) {
        (false, true) => 0,
        (true, true) => {
            eprintln!("benchmark: self-test corrupted the expectations and NOTHING failed");
            EXIT_CHECKER_DEAD
        }
        (_, false) => EXIT_FAILED,
    })
}

/// The full record of the latest run of `workload`, for `run_all`.
fn record_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

fn recorders() -> Vec<Recorder> {
    (0..workloads::CLIENTS).map(Recorder::new).collect()
}

fn warm_up(cfg: &Config, bed: &mut Bed, recs: &mut [Recorder]) {
    let secs = if cfg.quick { WARMUP_S / 4.0 } else { WARMUP_S };
    run_window(&mut bed.clients, recs, secs);
}

fn tear_down(bed: Bed) {
    drop(bed.clients);
    bed.cluster.shutdown();
}

fn untraced_run(cfg: &Config, workload: &str, scratch: &Path) -> Res<Outcome> {
    let setups = if cfg.quick { 1 } else { SETUPS };
    let data = workloads::dataset(workload, cfg.seed)?;
    let (mut bed, setup_runs) = set_up(cfg, workload, &data, scratch, setups)?;
    let mut recs = recorders();
    warm_up(cfg, &mut bed, &mut recs);
    let window = run_window(&mut bed.clients, &mut recs, cfg.seconds as f64).summary();
    let (checks, check_failures) = finish(&mut bed.clients);
    tear_down(bed);

    let values: [f64; END_TO_END.len()] = [
        window.ops_per_s,
        window.lat_p50_us,
        host::median(&setup_runs),
        host::peak_rss_mib(),
    ];
    Ok(Outcome {
        attempted: window.attempted + checks,
        failed: window.failed + check_failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        window,
        setup_runs,
    })
}

fn traced_run(cfg: &Config, workload: &str, dir: &Path, scratch: &Path) -> Res<Outcome> {
    let data = workloads::dataset(workload, cfg.seed)?;
    let (mut bed, setup_runs) = set_up(cfg, workload, &data, scratch, 1)?;
    let mut recs = recorders();
    warm_up(cfg, &mut bed, &mut recs);

    // Half the window untraced as the reference, half traced.
    let half = cfg.seconds as f64 / 2.0;
    let reference = run_window(&mut bed.clients, &mut recs, half).summary();
    let before = Scrape::take(&bed.cluster, &bed.clients);
    recs.iter_mut().for_each(|r| r.set_enabled(true));
    let traced = run_window(&mut bed.clients, &mut recs, half).summary();
    recs.iter_mut().for_each(|r| r.set_enabled(false));
    let after = Scrape::take(&bed.cluster, &bed.clients);
    let (checks, check_failures) = finish(&mut bed.clients);

    let attempted = reference.attempted + traced.attempted + checks;
    let failed = reference.failed + traced.failed + check_failures;
    let mut values = Values::new();
    layers::window_metrics(&before, &after, traced.attempted.max(1) as f64, &mut values);
    layers::span_metrics(&recs, &mut values);
    values.insert(
        "trace.overhead_ratio",
        if reference.ops_per_s > 0.0 {
            1.0 - traced.ops_per_s / reference.ops_per_s
        } else {
            0.0
        },
    );
    let rates: Vec<f64> = reference
        .slice_rates
        .iter()
        .chain(&traced.slice_rates)
        .copied()
        .collect();
    values.insert("meta.db.decay_ratio", driver::decay_ratio(&rates));
    values.insert("client.fail_ratio", failed as f64 / attempted.max(1) as f64);
    values.insert("host.steal_ratio", traced.steal_ratio);
    values.insert("client.cpu_ms_per_op", traced.cpu_ms_per_op);

    let budget = ReplayBudget {
        calls: if cfg.quick { 20 } else { 200 },
        cap: Duration::from_millis(250),
    };
    let mut replay_rec = Recorder::new(workloads::CLIENTS);
    let probe = bed.clients[0].probe()?;
    layers::replay(
        &bed.cluster,
        bed.clients[0].fs(),
        &probe,
        scratch,
        budget,
        &mut replay_rec,
        &mut values,
    )?;
    drop(probe);
    tear_down(bed);

    let get = |values: &Values, name: &str| values.get(name).copied().unwrap_or(0.0);
    // What the file layer spends outside mapping, planning and waiting
    // for its RPCs: request building, fan-out, scatter. Approximate: a
    // median minus medians minus a mean.
    let file_us = get(&values, "core.file.read_us").max(get(&values, "core.file.write_us"));
    if file_us > 0.0 {
        let residual = file_us
            - get(&values, "core.layout.map_us")
            - get(&values, "core.plan.plan_us")
            - get(&values, "core.transport.rpc_us");
        values.insert("core.file.residual_us", residual);
    }
    let get = |name: &str| get(&values, name);

    let mut all: Vec<&Recorder> = recs.iter().collect();
    all.push(&replay_rec);
    let trace_path = dir.join(format!("trace-{workload}.jsonl"));
    let spans = spans::write_jsonl(&trace_path, &all)?;
    println!("{spans} spans written to {}", trace_path.display());

    // Attribution: the layers on the blocking path beside the median op.
    let fs_us: f64 = ["open", "create", "stat", "rename", "unlink"]
        .iter()
        .map(|op| get(&format!("core.fs.{op}_us")))
        .sum();
    let p50 = get("client.lat_p50_us");
    println!(
        "attribution: lat_p50 {p50:.0} us = core.fs.* {fs_us:.0} + core.file.* {file_us:.0} \
         (map {:.0} + plan {:.0} + rpc {:.0} + residual {:.0}) + unattributed {:.0}",
        get("core.layout.map_us"),
        get("core.plan.plan_us"),
        get("core.transport.rpc_us"),
        get("core.file.residual_us"),
        p50 - fs_us - file_us
    );

    Ok(Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, get(name), unit))
            .collect(),
        window: traced,
        setup_runs,
    })
}

// -------------------------------------------------------------- every run

/// Run each workload in a fresh process of this binary — clean CPU and
/// peak-RSS accounting, no state carried over — untraced then traced, and
/// gather the records into one result file.
fn run_all(cfg: &Config) -> Res<u8> {
    let exe = std::env::current_exe()?;
    let dir = bench_dir()?;
    std::fs::create_dir_all(&dir)?;
    let started = Instant::now();
    let mut records = Vec::new();
    let mut worst = 0u8;
    let mut as_designed = true;
    for workload in workloads::NAMES {
        for repeat in 0..cfg.repeat {
            for trace in [false, true] {
                if cfg.self_test && trace {
                    continue;
                }
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &(cfg.seed + repeat).to_string()])
                    .args(["--seconds", &cfg.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if cfg.quick || cfg.self_test {
                    child.arg("--quick");
                }
                if cfg.self_test {
                    child.arg("--self-test");
                }
                let code = child.status()?.code().map_or(EXIT_FAILED, |c| c as u8);
                if cfg.self_test {
                    as_designed &= code == EXIT_FAILED;
                    continue;
                }
                worst = worst.max(code);
                if let Ok(record) = std::fs::read_to_string(record_path(&dir, workload, trace)) {
                    records.push(record);
                }
            }
        }
    }
    if cfg.self_test {
        return Ok(if as_designed {
            eprintln!(
                "benchmark: self-test failed as designed on every workload: the checker checks"
            );
            EXIT_FAILED
        } else {
            eprintln!(
                "benchmark: self-test: some workload did NOT report its corrupted expectations"
            );
            EXIT_CHECKER_DEAD
        });
    }
    let out = cfg.out.clone().unwrap_or_else(|| dir.join("result.json"));
    std::fs::write(
        &out,
        format!(
            "{{\"benchmark\": \"dpfs\", \"claim\": null, \"wall_s\": {}, \"runs\": [\n{}\n]}}\n",
            json::num(started.elapsed().as_secs_f64()),
            records.join(",\n")
        ),
    )?;
    println!(
        "{} runs in {:.0} s; results in {}",
        records.len(),
        started.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(worst)
}
