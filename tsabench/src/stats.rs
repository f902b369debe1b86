//! Seeded order, percentiles, process memory and machine speed.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the seed fully determines program order and edit
/// choice, with no dependency outside the standard library.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `0..n` in a seeded random order (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let q = |k: f64| {
                let m = (n + 1) as f64 * k / 4.0;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            let mid = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            (q(1.0), mid, q(3.0))
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Median duration of [`calibration_ms`] on the reference host (a
/// 2-vCPU 2.1 GHz Xeon VM) while it was otherwise idle.
pub const REFERENCE_CALIBRATION_MS: f64 = 0.45;

/// The calibration kernel's buffers, allocated once per thread so that
/// the kernel never calls the allocator and the program's heap state
/// cannot change its speed.
struct Buffers {
    keys: Vec<u64>,
    table: Vec<u64>,
    text: String,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers {
        keys: vec![0; 20_000],
        table: vec![0; 8_192],
        text: String::with_capacity(64 * 1024),
    });
}

/// Times a fixed piece of work that uses none of the program's code:
/// sorting, hashing and number formatting, about 0.5 ms on the
/// reference host. On a shared host the CPU's speed changed by up to
/// 1.8x over minutes, and the program's CPU-bound ops slowed by the same
/// factor as this work, so dividing by it removes that drift. The work
/// runs twice and only the second run is timed, so what the program
/// left in the caches does not change the reading.
pub fn calibration_ms() -> f64 {
    BUFFERS.with(|cell| {
        let s = &mut *cell.borrow_mut();
        kernel(s);
        let t0 = Instant::now();
        kernel(s);
        t0.elapsed().as_secs_f64() * 1e3
    })
}

fn kernel(s: &mut Buffers) {
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    for k in &mut s.keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    s.keys.sort_unstable();
    let mask = s.table.len() - 1;
    s.table.fill(0);
    for &k in s.keys.iter().take(5_000) {
        let mut i = (k >> 20) as usize & mask;
        while s.table[i] != 0 && s.table[i] != k {
            i = (i + 1) & mask;
        }
        s.table[i] = k;
    }
    s.text.clear();
    for k in s.keys.iter().take(2_500) {
        let _ = write!(s.text, "{k};");
    }
    black_box((&s.keys, &s.table, &s.text));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn permutation_is_seeded() {
        let a = Rng::new(7).permutation(21);
        assert_eq!(a, Rng::new(7).permutation(21));
        assert_ne!(a, Rng::new(8).permutation(21));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..21).collect::<Vec<_>>());
    }
}
