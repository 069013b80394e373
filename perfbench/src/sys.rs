//! Process counters read from procfs, order statistics, and seed streams.

use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on every
/// mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread,
/// exited ones included).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS, so that [`peak_rss_mb`]
/// afterwards covers only what follows. Returns whether the kernel
/// accepted the reset; if not, the peak covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Usable CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Seconds a fixed chain of dependent random reads over 64 MiB takes.
/// It runs no code of the suite: a reading that moves between runs shows
/// that the host's memory system got faster or slower, which moves the
/// golem3 workloads the most.
pub fn host_probe_s() -> f64 {
    const WORDS: usize = 1 << 23;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let table: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let t = Instant::now();
    let mut i = 0usize;
    for _ in 0..4_000_000 {
        i = (table[i] as usize ^ i.wrapping_add(1)) & (WORDS - 1);
    }
    std::hint::black_box(i);
    since(t)
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; `0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of job `index` of the stream `salt`, derived from the workload
/// seed. Kept below 2^53 so that it survives any JSON consumer.
pub fn job_seed(seed: u64, salt: u64, index: u64) -> u64 {
    mix(mix(seed ^ salt).wrapping_add(index)) >> 11
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = mix(seed ^ 0x005e_ed0f_0de2);
    for i in (1..items.len()).rev() {
        state = mix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}
