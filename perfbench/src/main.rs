//! `semtree-perfbench`: the repository's benchmark (see `README.md`
//! beside this package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! semtree-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! semtree-perfbench --compare <dir A> <dir B>
//! ```
//!
//! One process per workload, pinned to one CPU. The last line of
//! standard output is the result object; the line before it is the
//! environment record.

mod compare;
mod env;
mod error;
mod estimators;
mod inputs;
mod json;
mod layers;
mod metrics;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use error::{BenchError, Result};
use inputs::{doc_inputs, tree_inputs, Sizes};
use json::Json;
use metrics::{result_line, Values, END_TO_END, PER_LAYER, UNLISTED_WORKLOADS, WORKLOADS};
use trace::Tracer;
use workloads::{doc::DocIndex, knn::KnnTree, run_steady, serve::ServedTree, Outcome, RunOptions};

/// Flag the pinning parent appends so the child does not re-pin.
const PINNED_CHILD: &str = "--pinned-child";

/// Where the benchmark keeps everything it writes: WAL directories and
/// trace files. Inside the package, so inside the checkout.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    pinned_child: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        pinned_child: false,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it, flag)?,
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| BenchError::Usage("--seed wants a whole number".into()))?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| BenchError::Usage("--seconds wants a positive number".into()))?;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(BenchError::Usage("--trace wants 0 or 1".into())),
                };
            }
            "--smoke" => args.smoke = true,
            PINNED_CHILD => args.pinned_child = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, b));
            }
            other => return Err(BenchError::Usage(format!("unknown argument {other}"))),
        }
    }
    if args.compare.is_none()
        && args.workload != "all"
        && !WORKLOADS
            .iter()
            .chain(UNLISTED_WORKLOADS)
            .any(|w| *w == args.workload)
    {
        return Err(BenchError::Usage(format!(
            "--workload wants one of {}, {} or all",
            WORKLOADS.join(", "),
            UNLISTED_WORKLOADS.join(", ")
        )));
    }
    Ok(args)
}

/// Replace this process with itself under `taskset -c <cpu>`, adding
/// [`PINNED_CHILD`]. Only returns if the exec failed.
fn exec_pinned(argv: &[String], cpu: usize) -> std::io::Error {
    use std::os::unix::process::CommandExt as _;
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return e,
    };
    Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(argv)
        .arg(PINNED_CHILD)
        .exec()
}

/// Run this binary once per workload, one after the other, with the
/// caller's other arguments; the worst exit code wins.
fn run_all(argv: &[String]) -> Result<u8> {
    let exe = std::env::current_exe()?;
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" {
            it.next();
        } else {
            rest.push(arg.clone());
        }
    }
    let mut worst = 0;
    for name in WORKLOADS.iter().chain(UNLISTED_WORKLOADS) {
        let status = Command::new(&exe)
            .args(&rest)
            .args(["--workload", name])
            .status()?;
        worst = worst.max(
            status
                .code()
                .and_then(|c| u8::try_from(c).ok())
                .unwrap_or(1),
        );
    }
    Ok(worst)
}

fn run_workload(args: &Args) -> Result<bool> {
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let opts = RunOptions {
        sizes,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let work = work_dir();
    std::fs::create_dir_all(&work)?;
    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    let started = std::time::Instant::now();
    let outcome: Outcome = match args.workload.as_str() {
        "doc_retrieval" => {
            let inputs = doc_inputs(sizes.documents, &sizes, args.seed);
            run_steady::<DocIndex>(&inputs, &opts, &mut tracer)?
        }
        "knn_local" => {
            let inputs = tree_inputs(sizes.tree_points, &sizes, args.seed, Some(&work));
            run_steady::<KnnTree<1>>(&inputs, &opts, &mut tracer)?
        }
        "knn_partitioned" => {
            let inputs = tree_inputs(sizes.tree_points, &sizes, args.seed, Some(&work));
            run_steady::<KnnTree<4>>(&inputs, &opts, &mut tracer)?
        }
        "serve_knn" => {
            let inputs = tree_inputs(sizes.tree_points, &sizes, args.seed, Some(&work));
            run_steady::<ServedTree>(&inputs, &opts, &mut tracer)?
        }
        "ingest_durable" => {
            let data = inputs::shuffled_points(sizes.ingest_points, args.seed, Some(&work));
            workloads::ingest::run(&data, &opts, &work, &mut tracer)?
        }
        other => return Err(BenchError::Usage(format!("unknown workload {other}"))),
    };

    let mut tally = outcome.tally;
    let (defs, values): (_, Values) = if let Some(facts) = outcome.trace {
        let mut values = vec![
            ("trace.overhead_ratio", facts.overhead_ratio),
            ("trace.op_self_us", facts.op_self_us),
            ("trace.op_layer_us", facts.op_layer_us),
        ];
        let probes = layers::run(&opts, &work, &mut tracer)?;
        values.extend(probes.values);
        tally.absorb(probes.tally);
        values.push(("trace.spans", tracer.spans().len() as f64));
        tracer.write_jsonl(&work.join(format!("trace-{}.jsonl", args.workload)))?;
        (PER_LAYER, values)
    } else {
        let e = outcome.end_to_end;
        let values = vec![
            ("setup_s", e.setup_s),
            ("ops_per_s", e.ops_per_s),
            ("p50_us", e.p50_us),
            ("p99_us", e.p99_us),
            ("rss_bytes_per_point", e.rss_bytes_per_point),
        ];
        (END_TO_END, values)
    };
    let line = result_line(tally.attempted, tally.failed, defs, &values)?;

    let mut record = env::record(&work);
    record.extend([
        ("workload".to_string(), Json::str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        (
            "wall_s".to_string(),
            Json::Num(started.elapsed().as_secs_f64()),
        ),
        (
            "failed_ratio".to_string(),
            Json::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
    ]);
    record.extend(outcome.facts);
    println!("{}", Json::obj([("env", Json::Obj(record))]).render());
    println!("{}", line.render());
    Ok(tally.failed == 0 && tally.attempted > 0)
}

fn real_main() -> Result<u8> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.workload == "all" {
        return run_all(&argv);
    }
    if !args.pinned_child {
        match env::allowed_cpus().as_deref() {
            Some([_single]) => {}
            Some([first, ..]) => {
                let e = exec_pinned(&argv, *first);
                eprintln!("warning: cannot pin with taskset ({e}); running unpinned");
            }
            _ => eprintln!("warning: cannot read the CPU mask; running unpinned"),
        }
    }
    if env::pinned_cpu().is_none() {
        eprintln!("warning: pinned: false; cross-CPU wake-ups will dominate the actor hops");
    }
    Ok(u8::from(!run_workload(&args)?))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("semtree-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
