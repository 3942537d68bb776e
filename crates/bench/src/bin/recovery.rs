//! Crash-recovery benchmark over the columnar storage engine.
//!
//! Builds a durable distributed tree on the embedded reqgen corpus
//! (the real FastMap pipeline, not uniform noise), lets snapshots and
//! compaction happen organically, SIGKILLs the writer mid-flight, and
//! measures what a cold restart sees: bytes on disk, recovery
//! wall-time, recovered structure, and how much smaller the stored
//! snapshots are than the same store images encoded row-wise (the
//! stored-vs-decoded ratio `inspect_wal` reports).
//!
//! ```text
//! cargo run --release -p semtree-bench --bin recovery -- \
//!     --points 3000 --json BENCH_PR7.json
//! ```
//!
//! The process re-execs itself (`--child DIR N SEED`) as the
//! victim writer so the kill is a real `SIGKILL` across a process
//! boundary, exactly like the fault-injection tests.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use semtree_bench::{dist_insert, occurrence_points, BUCKET, DIMS};
use semtree_cluster::CostModel;
use semtree_dist::{build_local_durable, inspect_wal, DistConfig, WalInspection, WalOptions};

/// Data partitions the workload spreads over (1 root + 3 data).
const PARTITIONS: usize = 4;

/// Everything that can sink a bench run, surfaced as `exit(1)` with a
/// message instead of a panic (the driver parses stderr, not
/// backtraces).
#[derive(Debug)]
enum BenchError {
    /// Process/filesystem plumbing failed.
    Io(std::io::Error),
    /// Bad command-line arguments.
    Usage(String),
    /// The durable tree could not be built or recovered.
    Build(String),
    /// The victim-writer handshake or an output file broke protocol.
    Protocol(String),
    /// A measured result violated a published performance floor.
    Bound(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "io: {e}"),
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Build(msg) => write!(f, "build: {msg}"),
            BenchError::Protocol(msg) => write!(f, "protocol: {msg}"),
            BenchError::Bound(msg) => write!(f, "bound violated: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

fn config() -> DistConfig {
    DistConfig::new(DIMS)
        .with_bucket_size(BUCKET)
        .with_max_partitions(PARTITIONS * 2)
}

fn wal_options() -> WalOptions {
    // Small segments and a tight cadence so sealing, snapshots and
    // compaction all fire many times within the run.
    WalOptions::default()
        .with_segment_bytes(64 * 1024)
        .with_snapshot_every(512)
}

/// The victim writer: build the durable tree, insert the whole corpus,
/// report readiness, then idle until the parent kills the process.
fn run_child(dir: &Path, documents: usize, seed: u64) -> Result<(), BenchError> {
    let pts = occurrence_points(documents, seed);
    let sample: Vec<Vec<f64>> = pts.iter().take(1024).cloned().collect();
    let tree = build_local_durable(
        config(),
        CostModel::zero(),
        PARTITIONS,
        &sample,
        dir,
        wal_options(),
    )
    .map_err(|e| BenchError::Build(format!("durable tree: {e}")))?;
    for (i, p) in pts.iter().enumerate() {
        dist_insert(&tree, p, i as u64);
    }
    println!("ready: {} points", tree.len());
    // No shutdown, no flush beyond the WAL's own: the parent SIGKILLs
    // this process while the tree is live.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// One measured crash-and-recover cycle.
struct RunResult {
    points: usize,
    segment_disk_bytes: u64,
    snapshot_disk_bytes: u64,
    recovery_ms: f64,
    /// Row-wise bytes of every snapshotted store image over the bytes
    /// actually stored.
    snapshot_ratio: f64,
}

fn measure(inspection: &WalInspection, recovery_ms: f64) -> RunResult {
    let points = inspection
        .partitions
        .iter()
        .map(|(_, p)| p.points)
        .sum::<usize>();
    // Aggregate decoded/stored over every snapshot in the directory.
    let (stored, decoded) = inspection
        .compression
        .iter()
        .fold((0usize, 0usize), |(s, d), c| {
            (s + c.stored_bytes, d + c.decoded_bytes)
        });
    let snapshot_ratio = if stored == 0 {
        1.0
    } else {
        decoded as f64 / stored as f64
    };
    RunResult {
        points,
        segment_disk_bytes: inspection.report.segment_disk_bytes,
        snapshot_disk_bytes: inspection.report.snapshot_disk_bytes,
        recovery_ms,
        snapshot_ratio,
    }
}

/// Spawn the victim writer, wait until the corpus is fully inserted,
/// SIGKILL it, then time a cold recovery of the directory.
fn crash_and_recover(dir: &Path, documents: usize, seed: u64) -> Result<RunResult, BenchError> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(dir)
        .arg(documents.to_string())
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| BenchError::Protocol("child stdout not captured".to_string()))?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .ok_or_else(|| BenchError::Protocol("child exited before reporting ready".to_string()))??;
    if !ready.starts_with("ready:") {
        return Err(BenchError::Protocol(format!(
            "unexpected child line: {ready}"
        )));
    }
    child.kill()?;
    let _ = child.wait();

    let started = Instant::now();
    let inspection = inspect_wal(dir)
        .map_err(|e| BenchError::Build(format!("recover killed directory: {e}")))?;
    let recovery_ms = started.elapsed().as_secs_f64() * 1000.0;
    Ok(measure(&inspection, recovery_ms))
}

/// Append one record to a JSON array file, creating it if needed.
fn append_json_record(path: &str, record: &str) -> Result<(), BenchError> {
    let fresh = format!("[\n  {record}\n]\n");
    let content = match std::fs::read_to_string(path) {
        Err(_) => fresh,
        Ok(text) if text.trim().is_empty() => fresh,
        Ok(text) => {
            let head = text
                .trim_end()
                .strip_suffix(']')
                .ok_or_else(|| BenchError::Protocol(format!("{path} is not a JSON array")))?
                .trim_end()
                .to_string();
            if head.ends_with('[') {
                format!("{head}\n  {record}\n]\n")
            } else {
                format!("{head},\n  {record}\n]\n")
            }
        }
    };
    std::fs::write(path, content)?;
    Ok(())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "semtree-recovery-bench-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    if let Err(e) = run() {
        eprintln!("recovery bench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        let [dir, points, seed] = &args[1..] else {
            return Err(BenchError::Usage(
                "--child needs DIR POINTS SEED".to_string(),
            ));
        };
        let points: usize = points
            .parse()
            .map_err(|_| BenchError::Usage(format!("bad point count: {points}")))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| BenchError::Usage(format!("bad seed: {seed}")))?;
        return run_child(&PathBuf::from(dir), points, seed);
    }

    let mut documents = 200usize;
    let mut seed = 42u64;
    let mut json: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--docs" => {
                documents = iter
                    .next()
                    .ok_or_else(|| BenchError::Usage("--docs needs a count".to_string()))?
                    .parse()
                    .map_err(|_| BenchError::Usage("bad document count".to_string()))?;
            }
            "--seed" => {
                seed = iter
                    .next()
                    .ok_or_else(|| BenchError::Usage("--seed needs a value".to_string()))?
                    .parse()
                    .map_err(|_| BenchError::Usage("bad seed".to_string()))?;
            }
            "--json" => json = iter.next().cloned(),
            other => {
                return Err(BenchError::Usage(format!(
                    "unknown option '{other}' (--docs, --seed, --json)"
                )))
            }
        }
    }

    println!(
        "corpus: {documents} reqgen documents (seed {seed}), embedded occurrence stream, \
         {PARTITIONS} partitions"
    );
    let dir = scratch("run");
    let run = crash_and_recover(&dir, documents, seed)?;
    std::fs::remove_dir_all(&dir).ok();

    if run.points == 0 {
        return Err(BenchError::Bound("recovery lost the corpus".to_string()));
    }
    println!(
        "{} points, {} segment bytes + {} snapshot bytes on disk, \
         snapshot stored-vs-decoded ratio {:.2}x, recovery {:.1} ms",
        run.points,
        run.segment_disk_bytes,
        run.snapshot_disk_bytes,
        run.snapshot_ratio,
        run.recovery_ms
    );

    if let Some(path) = json {
        let record = format!(
            "{{\"name\": \"recovery-columnar\", \"documents\": {documents}, \
             \"points\": {}, \"partitions\": {PARTITIONS}, \
             \"segment_disk_bytes\": {}, \"snapshot_disk_bytes\": {}, \
             \"snapshot_ratio\": {:.2}, \"recovery_ms\": {:.1}}}",
            run.points,
            run.segment_disk_bytes,
            run.snapshot_disk_bytes,
            run.snapshot_ratio,
            run.recovery_ms
        );
        append_json_record(&path, &record)?;
        println!("appended to {path}");
    }

    if run.snapshot_ratio < 5.0 {
        return Err(BenchError::Bound(format!(
            "stored snapshots must be >= 5x smaller than their row-wise images \
             (got {:.2}x)",
            run.snapshot_ratio
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-process (no SIGKILL) version of the measurement: the corpus
    /// recovered cold — the 5x stored-vs-decoded floor the CI
    /// recovery-bench job enforces end-to-end.
    #[test]
    fn columnar_directory_is_5x_smaller_and_recovers_the_same_corpus() {
        let pts = occurrence_points(150, 7);
        let sample: Vec<Vec<f64>> = pts.iter().take(256).cloned().collect();
        let dir = scratch("test");
        let tree = build_local_durable(
            config(),
            CostModel::zero(),
            PARTITIONS,
            &sample,
            &dir,
            wal_options(),
        )
        .expect("build");
        for (i, p) in pts.iter().enumerate() {
            dist_insert(&tree, p, i as u64);
        }
        tree.shutdown();
        let started = Instant::now();
        let inspection = inspect_wal(&dir).expect("inspect");
        let ms = started.elapsed().as_secs_f64() * 1000.0;
        let run = measure(&inspection, ms);
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(run.points, pts.len());
        assert!(run.snapshot_ratio >= 5.0, "{:.2}", run.snapshot_ratio);
        assert!(run.snapshot_disk_bytes > 0 && run.segment_disk_bytes > 0);
    }
}
