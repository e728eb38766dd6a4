//! A small seeded generator (SplitMix64): the benchmark's inputs are a
//! pure function of `--seed`.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An antithetic pair of quantiles `[u, 1 - u]`: sizes drawn at them
    /// sum to about the same total for every seed.
    pub fn pair(&mut self) -> [f64; 2] {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        [u, 1.0 - u]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `lo..=hi` at quantile `u` in [0, 1).
pub fn at(u: f64, lo: i128, hi: i128) -> i128 {
    lo + ((u * (hi - lo + 1) as f64) as i128).min(hi - lo)
}
