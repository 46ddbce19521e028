//! What the host can tell the benchmark: on-CPU time of the load
//! thread, steal time, peak memory, and who and where it ran.

use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::process::Command;
use std::time::Instant;

use un_nffg::Json;

use crate::stats;

/// On-CPU time of the calling thread, from field 1 of
/// `/proc/thread-self/schedstat` (ns the scheduler ran this thread).
/// The kernel advances it at ticks and context switches, so single
/// reads are tick-granular: sum deltas over a run, never per round.
/// Unlike wall time it excludes time stolen by a neighbour VM.
pub struct CpuClock(Option<File>);

impl CpuClock {
    /// Open once: the handle resolves to the opening thread, which is
    /// the only one that reads it.
    pub fn open() -> Self {
        CpuClock(File::open("/proc/thread-self/schedstat").ok())
    }

    /// ns on CPU so far; 0 where the file does not exist.
    pub fn now_ns(&self) -> u64 {
        let mut buf = [0u8; 64];
        let Some(n) = self.0.as_ref().and_then(|f| f.read_at(&mut buf, 0).ok()) else {
            return 0;
        };
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }
}

/// Steal jiffies summed over all CPUs (`/proc/stat`, `cpu` line, 8th value).
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken. `git_commit` is `unknown` outside a
/// git checkout (the driver's copies are not repositories).
pub fn host_record() -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj()
        .set("nproc", nproc())
        .set("rustc", command_line("rustc", &["--version"]))
        .set("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .set("kernel", kernel)
}

/// Items per second the reference kernel does on this host class when
/// nothing disturbs it, rounded: host speed 1.0.
const REFERENCE_ITEMS_PER_S: f64 = 1.4e7;

/// The reference kernel: what the packet path does to the host, in
/// plain `std` code that shares nothing with the repository. Clone
/// small buffers, hash them into a map, drop them. Returns the items done.
fn reference_kernel() -> usize {
    let src = vec![7u8; 160];
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(256);
    let mut map: HashMap<u64, usize> = HashMap::new();
    for pass in 0..4u64 {
        bufs.extend((0..=255u8).map(|i| {
            let mut b = src.clone();
            b[0] = i;
            b
        }));
        for (i, b) in bufs.iter().enumerate() {
            map.insert(pass << 32 | (i as u64) << 8 | u64::from(b[0]), i);
        }
        bufs.clear();
    }
    std::hint::black_box(map.len())
}

/// The speed the host runs at right now, relative to the reference.
///
/// On a shared VM identical runs differ by tens of percent, because
/// what the host gives this process — clock, cache, memory bandwidth,
/// the cost of a page fault — drifts over seconds with what its
/// neighbours do. The reference kernel is run after every round;
/// dividing the round's rate by the kernel's rate takes most of the
/// drift out, and a kernel rate that jumps about within one run marks
/// the run as noisy. The kernel allocates on purpose: the drift reaches
/// this program through memory, which an arithmetic loop in registers
/// never sees (one was tried: it left 25–40 % spread where this leaves
/// 5–8 %).
#[derive(Default)]
pub struct Calibration {
    speeds: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self::default()
    }

    /// One sample, ≈ 300 µs: host speed as the median of three kernel
    /// runs (1.0 = reference).
    pub fn sample(&mut self) -> f64 {
        let once = || {
            let start = Instant::now();
            let items = reference_kernel();
            items as f64 / start.elapsed().as_secs_f64().max(1e-9) / REFERENCE_ITEMS_PER_S
        };
        let speed = stats::median(&mut [once(), once(), once()]);
        self.speeds.push(speed);
        speed
    }

    /// Noise record of a run: host speed and its spread, steal share
    /// of wall time, and the `noisy` verdict (steal above 5 % of wall or
    /// host-speed CV above 10 %). Reported, never used to drop rounds.
    pub fn noise_record(&self, steal_delta_jiffies: u64, wall_s: f64) -> Json {
        let cv = stats::cv(&self.speeds);
        // USER_HZ is 100 on every Linux ABI this runs on.
        let steal_share = steal_delta_jiffies as f64 / 100.0 / wall_s.max(1e-9);
        Json::obj()
            .set("host_speed", stats::median(&mut self.speeds.clone()))
            .set("host_speed_cv", cv)
            .set("calibration_samples", self.speeds.len())
            .set("steal_jiffies", steal_delta_jiffies)
            .set("steal_share_of_wall", steal_share)
            .set("noisy", steal_share > 0.05 || cv > 0.10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let clock = CpuClock::open();
        let before = clock.now_ns();
        let start = Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        if clock.0.is_some() {
            assert!(clock.now_ns() > before);
        }
    }

    #[test]
    fn noise_verdict_follows_steal_and_spread() {
        let mut c = Calibration::new();
        c.speeds = vec![1.0, 1.01, 0.99];
        let quiet = c.noise_record(0, 10.0);
        assert_eq!(quiet.get("noisy"), Some(&Json::Bool(false)));
        let stolen = c.noise_record(200, 10.0);
        assert_eq!(stolen.get("noisy"), Some(&Json::Bool(true)));
        c.speeds = vec![1.0, 0.5, 1.5];
        assert_eq!(
            c.noise_record(0, 10.0).get("noisy"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn reference_kernel_reports_a_plausible_host_speed() {
        let speed = Calibration::new().sample();
        assert!(speed > 0.01 && speed < 100.0, "{speed}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
