//! What the harness needs from its surroundings: the build-settings
//! guard, the result header, the scratch directory and the process's
//! peak memory.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark package's directory (absolute; fixed at build time —
/// the harness is always built inside the checkout it measures).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut inside = false;
    let mut table = BTreeMap::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((k, v)) = line.split_once('=') {
                table.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
    }
    table
}

/// Refuses to measure a differently optimised simulator than `repro`
/// users get: `benchmark/` is its own workspace, so the root manifest's
/// `[profile.release]` does not apply to it and must be mirrored.
///
/// # Errors
/// `build-profile-mismatch` naming both tables, or `root-manifest-missing`
/// when the harness is not inside a checkout of the repo.
pub fn check_build_profile() -> Result<(), String> {
    let root = package_dir().join("../Cargo.toml");
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let theirs = release_profile(&read(&root).map_err(|e| format!("root-manifest-missing: {e}"))?);
    let ours = release_profile(&read(&package_dir().join("Cargo.toml"))?);
    if theirs == ours {
        Ok(())
    } else {
        Err(format!(
            "build-profile-mismatch: root [profile.release] is {theirs:?} but \
             benchmark/Cargo.toml has {ours:?}; copy the root stanza"
        ))
    }
}

/// `rustc -V` of the toolchain on `PATH` (`"unknown"` if it cannot run).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Threads the host offers (reported with every result).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
/// `peak-rss-unavailable` when `/proc/self/status` does not provide it.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak-rss-unavailable: /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "peak-rss-unavailable: no VmHWM in /proc/self/status".to_string())
}

/// CPU seconds this process has consumed so far: user + system, every
/// thread, including threads that have exited.
///
/// Three of the four bounded time metrics are stated in this clock: the
/// reference VM's hypervisor at times steals half of each vCPU for
/// minutes on end (`steal` in `/proc/stat`), which moved wall medians by
/// 80 % to 250 % between runs, while the kernel keeps stolen time out of
/// task run time (`CONFIG_PARAVIRT_TIME_ACCOUNTING`). It does not count
/// time blocked (`fsync`, locks, disk reads); `pass_wall_s` does.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusively ours for the call; on
    // 64-bit Linux (the `cfg` above) that struct is two 64-bit signed
    // fields, as `Timespec` declares. std links the C library that
    // provides the symbol.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "etpp-benchmark runs on 64-bit Linux only: its bounded metrics need \
     clock_gettime(CLOCK_PROCESS_CPUTIME_ID) and /proc/self/status (VmHWM)"
);

/// Wall and process-CPU seconds of one measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Measures an interval on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

/// A per-process directory under `benchmark/target/scratch/` for traces,
/// result caches and journals: on the checkout's own disk, never the
/// repo's `target/traces` or `target/sweep-cache`. Emptied when created
/// and removed when dropped.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// `tag` keeps concurrent users inside one process (the harness's
    /// own tests) apart; the benchmark run itself passes `""`.
    ///
    /// # Errors
    /// The I/O error, with the path, if the directory cannot be made.
    pub fn create(tag: &str) -> Result<Scratch, String> {
        let dir = package_dir()
            .join("target/scratch")
            .join(format!("{}{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parser_reads_only_the_release_table() {
        let manifest = "\
[package]
name = \"x\"
lto = \"fat\"

[profile.release]
debug = true
# a comment line
lto = \"thin\"   # trailing comment

[profile.dev]
opt-level = 1
";
        let t = release_profile(manifest);
        assert_eq!(t.len(), 2);
        assert_eq!(t["debug"], "true");
        assert_eq!(t["lto"], "\"thin\"");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn benchmark_profile_mirrors_the_root_manifest() {
        check_build_profile().expect("benchmark/Cargo.toml must copy the root [profile.release]");
    }

    #[test]
    fn cpu_clock_is_monotonic_and_advances_with_work() {
        // The clock is process-wide and other tests run beside this one,
        // so only lower bounds are safe to assert.
        let before = process_cpu_s();
        let sw = Stopwatch::start();
        let mut x = 1u64;
        while sw.elapsed().wall_s < 0.02 {
            for i in 0..10_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        let worked = sw.elapsed();
        assert!(worked.wall_s >= 0.02);
        assert!(worked.cpu_s > 0.0, "a busy thread accrues CPU time");
        assert!(process_cpu_s() >= before + worked.cpu_s);
    }

    #[test]
    fn scratch_is_per_process_and_removed_on_drop() {
        let s = Scratch::create("-env-test").unwrap();
        let dir = s.path().to_path_buf();
        assert!(dir.ends_with(format!("{}-env-test", std::process::id())));
        fs::write(dir.join("f"), b"12345").unwrap();
        fs::create_dir(dir.join("d")).unwrap();
        fs::write(dir.join("d/g"), b"123").unwrap();
        assert_eq!(dir_bytes(&dir), 8);
        drop(s);
        assert!(!dir.exists());
    }
}
