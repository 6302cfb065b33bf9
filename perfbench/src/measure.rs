//! Measurement helpers shared by the workloads: medians, timing loops,
//! peak memory, a seeded input generator and the result line.

use std::time::{Duration, Instant};

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `round` once, then again until `budget` has elapsed, so a run is
/// always a whole number of identical rounds.
pub fn rounds_for(budget: Duration, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        round();
        if start.elapsed() >= budget {
            return;
        }
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds the reference loop is scaled to: timings are reported as if
/// the reference loop took exactly this long.
pub const REFERENCE_S: f64 = 0.001;

/// A fixed loop of the benchmark's own, timed next to every measured
/// section to scale that section to a reference machine speed.
///
/// On a shared 2-vCPU VM the same round ran up to 2× slower from one
/// second to the next, and a run's median drifted by ±15–30 % between runs
/// minutes apart. The reference loop slows with the host, so
/// `section × REFERENCE_S / reference` repeats where the raw time does
/// not. The loop allocates nothing and runs once untimed before each timed
/// pass, so the program's heap and cache state barely reach it.
pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    next: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        const N: usize = 1 << 15;
        let mut rng = Rng::new(0x7265_6665_7265_6e63);
        let keys: Vec<u64> = (0..N).map(|_| rng.next()).collect();
        // One cycle through all slots, for a dependent pointer chase.
        let mut order: Vec<u32> = (0..N as u32).collect();
        for i in (1..N).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut next = vec![0u32; N];
        for w in 0..N {
            next[order[w] as usize] = order[(w + 1) % N];
        }
        Reference {
            sorted: keys.clone(),
            keys,
            next,
        }
    }

    fn pass(&mut self) -> u64 {
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut at = 0u32;
        for _ in 0..self.next.len() * 2 {
            at = self.next[at as usize];
        }
        self.sorted[self.sorted.len() / 2] ^ u64::from(at)
    }

    /// Seconds one pass takes now: the median of three timed passes after
    /// an untimed one.
    pub fn sample(&mut self) -> f64 {
        std::hint::black_box(self.pass());
        let passes: Vec<f64> = (0..3)
            .map(|_| {
                let (v, t) = timed(|| self.pass());
                std::hint::black_box(v);
                t
            })
            .collect();
        median(&passes)
    }

    /// A section's seconds scaled to the reference speed, given the
    /// reference sample taken next to it.
    pub fn scale_time(seconds: f64, reference: f64) -> f64 {
        seconds * REFERENCE_S / reference
    }

    /// A section's rate scaled to the reference speed.
    pub fn scale_rate(per_s: f64, reference: f64) -> f64 {
        per_s * reference / REFERENCE_S
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so the program under
/// test receives generated inputs and never the seed's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run reports: operations attempted and failed, the property
/// violations it found, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records a violated property; the run then reports `correct: false`.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Folds another pass's counts and violations into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.metrics.extend(other.metrics);
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let correct = self.violations.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
