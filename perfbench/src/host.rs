//! Host facts recorded with every result, peak memory, and the
//! per-run state directories.

use std::path::{Path, PathBuf};
use std::process::Command;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `none` outside a git
    /// checkout.
    pub git_rev: String,
    /// Filesystem type of the state directory (checkpoint fsyncs land
    /// there).
    pub state_fs: String,
    /// CPU time counters (`/proc/stat`) when the facts were collected.
    cpu_at_start: Option<CpuTimes>,
}

impl HostFacts {
    /// Collects the facts; `state_root` must exist.
    #[must_use]
    pub fn collect(state_root: &Path) -> HostFacts {
        HostFacts {
            nproc: nproc(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
            } else {
                "none".into()
            },
            state_fs: filesystem_of(state_root),
            cpu_at_start: CpuTimes::read(),
        }
    }

    /// One JSON object. `cpu_steal_share` is the share of CPU time the
    /// hypervisor gave to others since the facts were collected (`null`
    /// where `/proc/stat` is unreadable): on a shared virtual machine it
    /// is what explains a slow run.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64, seeds: (u64, u64)) -> String {
        let steal = match (self.cpu_at_start, CpuTimes::read()) {
            (Some(a), Some(b)) if b.total > a.total => {
                format!("{:.4}", (b.steal - a.steal) as f64 / (b.total - a.total) as f64)
            }
            _ => "null".into(),
        };
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"default_seed\":{},\"held_out_seed\":{},\
             \"nproc\":{},\"profile\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"state_fs\":\"{}\",\
             \"cpu_steal_share\":{steal}}}",
            seeds.0, seeds.1, self.nproc, self.profile, self.rustc, self.git_rev, self.state_fs
        )
    }
}

/// Machine-wide CPU time counters, in clock ticks.
#[derive(Debug, Clone, Copy)]
struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// The aggregate `cpu` line of `/proc/stat`.
    fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already inside user and nice.
        let steal = *fields.get(7)?;
        Some(CpuTimes { total: fields.iter().take(8).sum(), steal })
    }
}

/// Usable hardware threads.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First line of a command's standard output; the child is waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Some(text.lines().next()?.trim().replace('"', "'"))
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
#[must_use]
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Hands the allocator's cached free memory back to the kernel, then
/// restarts the peak-resident-set count from the current resident set,
/// so the next [`peak_rss_mb`] covers the memory live in what follows
/// rather than what earlier work left cached in the allocator. Returns
/// false where the kernel cannot restart the count; the peak then
/// covers the whole process.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, only returns
        // free memory to the kernel, and may be called from any thread
        // at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fresh, uniquely named state directories under one root, each removed
/// when its [`StateDir`] is dropped.
#[derive(Debug)]
pub struct StateDirs {
    root: PathBuf,
    prefix: String,
    next: u32,
}

impl StateDirs {
    /// Directories named `<root>/<workload>-<pid>-<seed>-<n>`.
    ///
    /// # Errors
    ///
    /// I/O failure creating `root`.
    pub fn new(root: &Path, workload: &str, seed: u64) -> std::io::Result<StateDirs> {
        std::fs::create_dir_all(root)?;
        Ok(StateDirs {
            root: root.to_path_buf(),
            prefix: format!("{workload}-{}-{seed}", std::process::id()),
            next: 0,
        })
    }

    /// Creates the next directory; fails rather than reuse one that
    /// already exists.
    ///
    /// # Errors
    ///
    /// I/O failure, or the name is taken.
    pub fn fresh(&mut self) -> std::io::Result<StateDir> {
        let path = self.root.join(format!("{}-{}", self.prefix, self.next));
        self.next += 1;
        std::fs::create_dir(&path)?;
        Ok(StateDir(path))
    }
}

/// A state directory that is deleted on drop.
#[derive(Debug)]
pub struct StateDir(PathBuf);

impl StateDir {
    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// The directory as the `String` that `FleetConfig::store_dir` takes.
    #[must_use]
    pub fn as_string(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
