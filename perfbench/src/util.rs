//! Small helpers shared by the workloads: a seeded generator, sample
//! statistics, a minimal JSON writer, and process/host records.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone and not on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Seeded payload: random bytes, or (when `zero_runs`) runs of zeros
/// broken by short random stretches, which the store's zero-RLE packs.
pub fn payload(rng: &mut Rng, len: usize, zero_runs: bool) -> Vec<u8> {
    let mut out = vec![0u8; len];
    if !zero_runs {
        rng.fill(&mut out);
        return out;
    }
    let mut at = 0;
    while at < len {
        at += 64 + rng.below(449);
        let noisy = (16 + rng.below(49)).min(len.saturating_sub(at));
        if noisy > 0 {
            rng.fill(&mut out[at..at + noisy]);
        }
        at += noisy;
    }
    out
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Nearest-rank percentile of `values` (`q` in `[0, 100]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over targets (units or objects) of each target's mean latency.
/// The schedules read every target equally often, spread over the whole
/// run; averaging per target first keeps the statistic a smooth function
/// of how long the host ran fast, where the median of single operations
/// jumps between the host's fast and slow modes (see README, Noise).
pub fn median_of_target_means(samples: &[(usize, f64)]) -> f64 {
    let mut per_target: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for &(target, ms) in samples {
        let e = per_target.entry(target).or_default();
        e.0 += ms;
        e.1 += 1;
    }
    let means: Vec<f64> = per_target
        .values()
        .map(|(sum, n)| sum / *n as f64)
        .collect();
    median(&means)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest whole percentile that leaves at least ten samples above
/// it, capped at p99: the tail a run of `n` samples can resolve.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    let q = ((n - 10) as f64 / n as f64 * 100.0).floor();
    q.clamp(50.0, 99.0)
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU-only reference loop; its wall time tracks host speed.
/// Recorded as a diagnostic only — never used to scale or filter.
pub fn host_probe_ms() -> f64 {
    let (acc, d) = timed(|| {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(i | 1));
        }
        acc
    });
    std::hint::black_box(acc);
    ms(d)
}

/// Filesystem type of the mount holding `path` (from mountinfo).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A JSON object under construction (keys in insertion order).
#[derive(Debug, Default, Clone)]
pub struct Json(String);

impl Json {
    pub fn new() -> Json {
        Json::default()
    }

    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{}\":", escape(key));
    }

    pub fn num(mut self, key: &str, value: f64) -> Json {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.0, "{value}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Json {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Json {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Json {
        self.key(key);
        let _ = write!(self.0, "\"{}\"", escape(value));
        self
    }

    pub fn obj(mut self, key: &str, value: Json) -> Json {
        self.key(key);
        self.0.push_str(&value.finish());
        self
    }

    pub fn finish(self) -> String {
        if self.0.is_empty() {
            "{}".into()
        } else {
            self.0 + "}"
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
