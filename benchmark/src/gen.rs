//! The benchmark's own input generators: a seeded PRNG, the key and value
//! encodings, and a zipfian rank chooser.
//!
//! They are kept here, and not imported from `bolt_ycsb` or `bolt_common`,
//! so that a refactor of those crates cannot change what is measured.

/// Bytes in every key: `user` + 16 decimal digits.
pub const KEY_LEN: usize = 20;
/// Bytes in every value.
pub const VALUE_LEN: usize = 256;

/// Keys live in `[0, 10^16)`, printed as 16 digits.
const KEY_SPACE: u64 = 10_000_000_000_000_000;
/// The smallest power of two that covers the key space.
const KEY_BITS: u32 = 54;

/// SplitMix64: small, fast, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // The multiply-shift bias is below 2^-40 for every bound used here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bijection on `[0, 2^54)`: xor-shifts and odd multiplications are
/// each invertible modulo a power of two.
fn permute54(mut x: u64) -> u64 {
    const MASK: u64 = (1 << KEY_BITS) - 1;
    x = (x ^ (x >> 27)).wrapping_mul(0x3c79_ac49_2ba7_b653) & MASK;
    x = (x ^ (x >> 33)).wrapping_mul(0x1c69_b3f7_4ac4_ae35) & MASK;
    x ^ (x >> 27)
}

/// The key of `rank` under `seed`. Ranks map to keys through a permutation
/// of the key space (cycle-walking [`permute54`] until it lands inside), so
/// distinct ranks give distinct keys, insertion in rank order is random in
/// key order, and a rank that was never inserted names an absent key.
pub fn key_of(seed: u64, rank: u64) -> [u8; KEY_LEN] {
    let start = (rank % KEY_SPACE + mix64(seed) % KEY_SPACE) % KEY_SPACE;
    let mut n = permute54(start);
    while n >= KEY_SPACE {
        n = permute54(n);
    }
    let mut key = *b"user0000000000000000";
    for slot in key[4..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    key
}

/// The value stored under `key` at `version`: every byte is a function of
/// both, so a read that returns a stale, torn or foreign value is caught.
pub fn value_of(key: &[u8], version: u32) -> [u8; VALUE_LEN] {
    let mut value = [0u8; VALUE_LEN];
    let base = value_base(key, version);
    for (i, word) in value.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix64(base.wrapping_add(i as u64)).to_le_bytes());
    }
    value
}

/// `true` when `value` is exactly `value_of(key, version)`.
pub fn value_matches(key: &[u8], version: u32, value: &[u8]) -> bool {
    if value.len() != VALUE_LEN {
        return false;
    }
    let base = value_base(key, version);
    value
        .chunks_exact(8)
        .enumerate()
        .all(|(i, word)| word == mix64(base.wrapping_add(i as u64)).to_le_bytes())
}

fn value_base(key: &[u8], version: u32) -> u64 {
    // FNV-1a over the key, then the version folded in.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h ^ (u64::from(version) << 32))
}

/// Zipfian ranks in `[0, n)` with rank 0 the most popular (Gray et al.,
/// "Quickly generating billion-record synthetic databases", as in YCSB).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zeta_n);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta,
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// FNV-1a accumulator used to fingerprint an operation stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_sorted_randomly_and_well_formed() {
        let keys: Vec<_> = (0..10_000).map(|r| key_of(7, r)).collect();
        for key in &keys {
            assert!(key.starts_with(b"user"));
            assert!(key[4..].iter().all(u8::is_ascii_digit));
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
        // Rank order is random in key order: a successor is as often
        // larger as smaller, and as often larger twice in a row as chance.
        let ascending = keys.windows(2).filter(|w| w[0] < w[1]).count();
        assert!((4_700..5_300).contains(&ascending), "{ascending}");
        let twice = keys
            .windows(3)
            .filter(|w| w[0] < w[1] && w[1] < w[2])
            .count();
        assert!((1_400..1_950).contains(&twice), "{twice}");
        assert_ne!(key_of(1, 5), key_of(2, 5));
    }

    #[test]
    fn values_depend_on_key_and_version() {
        let key = key_of(1, 42);
        let v0 = value_of(&key, 0);
        assert!(value_matches(&key, 0, &v0));
        assert!(!value_matches(&key, 1, &v0));
        assert!(!value_matches(&key_of(1, 43), 0, &v0));
        assert!(!value_matches(&key, 0, &v0[..VALUE_LEN - 1]));
        let mut torn = v0;
        torn[VALUE_LEN - 1] ^= 1;
        assert!(!value_matches(&key, 0, &torn));
    }

    #[test]
    fn zipfian_top_one_percent_mass_is_in_band() {
        // The top 1 % of ranks carries zeta(n / 100) / zeta(n) of the mass:
        // 0.57 for theta 0.99 and n = 40 000.
        let n = 40_000;
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-0.99)).sum::<f64>();
        let expected = zeta(n / 100) / zeta(n);
        assert!((0.55..0.60).contains(&expected), "{expected}");
        let zipf = Zipfian::new(n, 0.99);
        let mut rng = Rng::new(3);
        let draws = 200_000;
        let top = (0..draws).filter(|_| zipf.next(&mut rng) < n / 100).count();
        let share = top as f64 / draws as f64;
        assert!((share - expected).abs() < 0.02, "{share} vs {expected}");
        assert!((0..1000).all(|_| zipf.next(&mut rng) < n));
    }

    #[test]
    fn rng_is_seeded_and_below_respects_its_bound() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        assert!((0..1000).all(|_| a.below(17) < 17));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&a.unit())));
    }
}
