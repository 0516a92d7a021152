//! Seeded input generation. Everything a workload feeds the program — keys,
//! payloads, arrival times, fault seeds — derives from `--seed` through the
//! functions here, so one seed always produces the same inputs.

/// SplitMix64 finaliser: a stateless hash the `Fn` payload generators can call
/// with (seed, coordinates) and no mutable state.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash two coordinates under a seed.
pub fn mix2(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F)) ^ b)
}

/// A sequential SplitMix64 stream, for inputs drawn in order (arrival gaps).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in (0, 1]: never 0, so `ln` is always finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential variate with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.next_unit().ln()
    }
}

/// `n` distinct keys derived from `seed`.
pub fn keys(seed: u64, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    let mut i = 0u64;
    while keys.len() < n {
        let k = mix2(seed, 0x6B65_7973, i);
        i += 1;
        // Key 0 with offset 0 reads as an empty bucket in `table.probe`.
        if k != 0 && !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// The `ints`-integer payload written under `key`. A function of the key
/// alone, so the table's final contents do not depend on delivery order.
pub fn payload_for_key(seed: u64, key: u64, ints: usize) -> Vec<u8> {
    (0..ints as u64)
        .flat_map(|j| (mix2(seed, key, j) as u32).to_le_bytes())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(keys(7, 64), keys(7, 64));
        assert_ne!(keys(7, 64), keys(8, 64));
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert_eq!(a.exp(500.0).to_bits(), b.exp(500.0).to_bits());
        assert_eq!(payload_for_key(1, 9, 8).len(), 32);
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut rng = Rng::new(11);
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exp(400.0)).sum::<f64>() / n as f64;
        assert!((mean - 400.0).abs() < 4.0, "mean {mean}");
    }
}
