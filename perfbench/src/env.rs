//! The environment record every run prints: which machine, which
//! build, whether the process really is pinned, which filesystem the
//! WAL directories live on.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Parse a kernel CPU list such as `0-1,4`.
#[must_use]
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
#[must_use]
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(list)
}

/// The one CPU the process is pinned to, if it is pinned.
#[must_use]
pub fn pinned_cpu() -> Option<usize> {
    match allowed_cpus()?.as_slice() {
        [only] => Some(*only),
        _ => None,
    }
}

/// The commit of the enclosing checkout, read from `.git` directly (a
/// benchmark checkout is often not a repository; then `unknown`).
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let head = std::fs::read_to_string(root.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `path`, from a `/proc/mounts`
/// style table (longest mount-point prefix wins).
#[must_use]
pub fn fs_type_in(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount_point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The record's fields, in print order.
#[must_use]
pub fn record(work_dir: &Path) -> Vec<(String, Json)> {
    let absolute = work_dir
        .canonicalize()
        .unwrap_or_else(|_| work_dir.to_path_buf());
    let wal_fs = std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| fs_type_in(&m, &absolute))
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let pinned = pinned_cpu();
    vec![
        ("schema".to_string(), Json::Num(1.0)),
        ("git_commit".to_string(), Json::str(git_commit())),
        ("rustc".to_string(), Json::str(rustc_version())),
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("pinned".to_string(), Json::Bool(pinned.is_some())),
        (
            "pinned_cpu".to_string(),
            pinned.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("wal_fs".to_string(), Json::str(wal_fs)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("0-2,5\n"), Some(vec![0, 1, 2, 5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let mounts =
            "overlay / overlay rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n/dev/vdb /root ext4 rw 0 0\n";
        let fs = |p: &str| fs_type_in(mounts, Path::new(p));
        assert_eq!(fs("/root/repo/perfbench/.work").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/shm/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/tmp/x").as_deref(), Some("overlay"));
        assert_eq!(fs_type_in("", Path::new("/x")), None);
    }

    #[test]
    fn record_names_the_machine() {
        let rec = record(Path::new("."));
        for key in [
            "git_commit",
            "rustc",
            "nproc",
            "pinned",
            "pinned_cpu",
            "wal_fs",
        ] {
            assert!(rec.iter().any(|(k, _)| k == key), "{key}");
        }
    }
}
