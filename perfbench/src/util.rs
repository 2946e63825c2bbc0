//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, host timers and the process's peak resident memory.

use std::time::Instant;

/// SplitMix64: a tiny, dependency-free generator. Every input the
/// benchmark feeds the program is drawn from one of these, seeded from the
/// command's `--seed`, so the same seed always yields the same inputs.
#[derive(Clone, Debug)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    /// An independent stream for one purpose, keyed by `label`.
    pub fn fork(&self, label: u64) -> Self {
        let mut r = SeedRng(self.0 ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First differing byte between `got` and `want`, if any.
pub fn first_mismatch(got: &[u8], want: &[u8]) -> Option<usize> {
    if got.len() < want.len() {
        return Some(got.len());
    }
    got.iter().zip(want).position(|(g, w)| g != w)
}

/// The elementwise wrapping i32 sum of `inputs` (the engine's `Sum` on
/// `I32`).
pub fn i32_sum(inputs: &[Vec<u8>]) -> Vec<u8> {
    let mut acc = vec![0i32; inputs[0].len() / 4];
    for input in inputs {
        for (a, c) in acc.iter_mut().zip(input.chunks_exact(4)) {
            *a = a.wrapping_add(i32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
    }
    acc.iter().flat_map(|v| v.to_le_bytes()).collect()
}
