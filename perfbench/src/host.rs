//! Host-speed reference: a fixed piece of work timed next to the measured
//! sections, so a time can be stated at the host's nominal speed. The
//! host this benchmark shares runs up to 2.8× slower for seconds to tens
//! of minutes at a time, and every part of the program slows with it.
//! Over one run, the median time of the reference moves with the median
//! time of a section; their ratio, times [`NOMINAL_MS`], is the section's
//! time at nominal speed.
//!
//! Kinds of work do not slow alike: in one busy spell, dependent loads
//! through a large table ran 1.8× slower, a sort 1.7×, hash-map updates
//! 3.0× and a small floating-point dynamic program 1.5×. So the reference
//! is a [`Mix`] of these kinds of work, chosen per workload.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Entries of the pointer-chasing table (16 MB, larger than the cache
/// share one tenant gets).
const CHASE_LEN: usize = 1 << 22;
/// Values each sort orders (4 MB).
const SORT_LEN: usize = 500_000;
/// Keys each hash round counts, in a fresh map of about 2 MB.
const HASH_KEYS: usize = 100_000;
/// Length of the two series of a dynamic-programming table.
const DP_LEN: usize = 64;

/// How much of each kind of work one reference run does. Every workload's
/// mix is sized so that, on the host this benchmark was written on, its
/// scaled times come out close to the times measured there in quiet
/// spells; the mix then takes about [`NOMINAL_MS`].
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Dependent loads through the chase table.
    pub chase_steps: usize,
    /// Sorts of a copy of the values.
    pub sorts: usize,
    /// Rounds of counting keys in a fresh hash map.
    pub hash_rounds: usize,
    /// 64×64 tables of a DTW-like dynamic program.
    pub dp_tables: usize,
    /// Run the mix on every available core at once, for work spread over
    /// the worker pool: such a section waits for its slowest worker, and
    /// one core of a shared host can be slowed while the other is not.
    pub parallel: bool,
}

/// All four kinds of work, about equally: the mix for work that is not
/// dominated by one kind, such as set-up and the server's requests and
/// epochs.
pub const BALANCED: Mix = Mix {
    chase_steps: 75_000,
    sorts: 1,
    hash_rounds: 3,
    dp_tables: 480,
    parallel: false,
};

/// A reference run's time, in ms, on the host this benchmark was written
/// on (2 vCPUs of a shared machine) at its fast speed.
pub const NOMINAL_MS: f64 = 34.0;

/// The reference kernel: a mix over inputs built once per process.
pub struct Reference {
    mix: Mix,
    inputs: &'static Inputs,
}

/// One random cycle through the chase table (Sattolo's shuffle) and the
/// values to sort and hash. Fixed seed: the reference is the same work in
/// every run.
struct Inputs {
    chase: Vec<u32>,
    values: Vec<u64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    fn get() -> &'static Self {
        static INPUTS: OnceLock<Inputs> = OnceLock::new();
        INPUTS.get_or_init(|| {
            let mut state = 0x5eed_f00d_4057_u64;
            let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
            for i in (1..CHASE_LEN).rev() {
                let j = (splitmix(&mut state) % i as u64) as usize;
                chase.swap(i, j);
            }
            let values = (0..SORT_LEN).map(|_| splitmix(&mut state)).collect();
            Self { chase, values }
        })
    }
}

impl Reference {
    pub fn new(mix: Mix) -> Self {
        Self {
            mix,
            inputs: Inputs::get(),
        }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn time_ms(&self) -> f64 {
        let t = Instant::now();
        if self.mix.parallel {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            std::thread::scope(|scope| {
                for _ in 1..cores {
                    scope.spawn(|| self.work());
                }
                self.work();
            });
        } else {
            self.work();
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    fn work(&self) {
        let mut at = 0u32;
        for _ in 0..self.mix.chase_steps {
            at = self.inputs.chase[at as usize];
        }
        black_box(at);

        for _ in 0..self.mix.sorts {
            let mut sorted = self.inputs.values.clone();
            sorted.sort_unstable();
            black_box(sorted[SORT_LEN / 2]);
        }

        for round in 0..self.mix.hash_rounds {
            let mut map = HashMap::with_capacity(HASH_KEYS);
            for &v in &self.inputs.values[round % 4 * HASH_KEYS..][..HASH_KEYS] {
                *map.entry(v >> 44).or_insert(0u32) += 1;
            }
            black_box(map.len());
        }

        let a: Vec<f64> = self.inputs.values[..DP_LEN]
            .iter()
            .map(|&v| (v >> 40) as f64)
            .collect();
        let mut prev = [0.0; DP_LEN + 1];
        let mut cur = [0.0; DP_LEN + 1];
        let mut total = 0.0;
        for _ in 0..self.mix.dp_tables {
            prev.fill(f64::INFINITY);
            prev[0] = 0.0;
            for i in 0..DP_LEN {
                cur[0] = f64::INFINITY;
                for j in 0..DP_LEN {
                    let d = (a[i] - a[DP_LEN - 1 - j]).abs();
                    cur[j + 1] = d + prev[j].min(prev[j + 1]).min(cur[j]);
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            total += black_box(prev[DP_LEN]);
        }
        black_box(total);
    }
}

/// The reference runs of one benchmark run, spread over it.
pub struct Speed {
    reference: Reference,
    samples_ms: Vec<f64>,
}

impl Speed {
    pub fn new(mix: Mix) -> Self {
        Self {
            reference: Reference::new(mix),
            samples_ms: Vec::new(),
        }
    }

    /// Runs the reference `n` times and keeps the times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let ms = self.reference.time_ms();
            self.samples_ms.push(ms);
        }
    }

    /// Factor that turns a time measured in this run into a normalised
    /// one: [`NOMINAL_MS`] over the median reference time. The host's
    /// speed drifts over minutes, and within one run the median reference
    /// time moves with the median section time; single samples do not,
    /// because the speed also swings within a second.
    /// `what` names the times it scales, on stderr.
    pub fn scale(&self, what: &str) -> f64 {
        let k = scale_of(&self.samples_ms);
        eprintln!(
            "perfbench: {what}: host reference {:.3} ms (median of {}), factor {k:.4}",
            NOMINAL_MS / k,
            self.samples_ms.len(),
        );
        k
    }
}

/// [`NOMINAL_MS`] over the median of reference times.
pub fn scale_of(samples_ms: &[f64]) -> f64 {
    NOMINAL_MS / crate::median_of(samples_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_median() {
        assert_eq!(scale_of(&[NOMINAL_MS]), 1.0);
        // A host running at half speed doubles the reference time; times
        // measured on it are halved back.
        assert_eq!(scale_of(&[90.0, 2.0 * NOMINAL_MS, 1.0]), 0.5);
    }

    #[test]
    fn the_chase_table_is_one_cycle() {
        let chase = &Inputs::get().chase;
        let mut at = 0u32;
        for step in 1..=CHASE_LEN {
            at = chase[at as usize];
            assert_eq!(at == 0, step == CHASE_LEN, "cycle closed at step {step}");
        }
        assert!(Reference::new(BALANCED).time_ms() > 0.0);
    }
}
