//! Host facts that make live-runtime numbers readable: core count, how
//! well two threads actually scale, the runtime's calibrated spin
//! reserve, the CPU model, and process memory/CPU counters.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the host offers the benchmark.
#[derive(Debug, Clone)]
pub struct HostProbe {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Throughput of two threads burning the same CPU loop, over one
    /// thread's (2.0 = perfect scaling, 1.0 = no second core).
    pub two_thread_scaling: f64,
    /// `brb_rt::timing::spin_reserve()`: how much of each service wait
    /// the live workers spin instead of sleep.
    pub spin_reserve_us: f64,
    /// `model name` from `/proc/cpuinfo` (or `unknown`).
    pub cpu_model: String,
}

fn burn(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    x
}

/// Probes the host (about a quarter of a second). The spin reserve is
/// read first, so its one-time calibration runs on a quiet process.
pub fn probe() -> HostProbe {
    const ITERS: u64 = 40_000_000;
    let spin_reserve_us = brb_rt::timing::spin_reserve().as_secs_f64() * 1e6;
    burn(ITERS / 10);
    let t = Instant::now();
    black_box(burn(ITERS));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| burn(ITERS));
        let b = s.spawn(|| burn(ITERS));
        black_box(a.join().expect("burn thread"));
        black_box(b.join().expect("burn thread"));
    });
    let two = t.elapsed().as_secs_f64();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    HostProbe {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        two_thread_scaling: 2.0 * one / two,
        spin_reserve_us,
        cpu_model,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time this process has used (all threads, live or
/// exited), from `/proc/self/stat` at the kernel's tick resolution.
pub fn process_cpu() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and
            // stime are fields 14 and 15 (1-based) of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    // USER_HZ is 100 on every Linux configuration in practice.
    Duration::from_millis(ticks * 10)
}
