//! Seeded inputs and the expected-contents model every read is checked
//! against.
//!
//! File contents are never stored by the benchmark: each 4 KiB block of a
//! file is a pure function of `(file id, block index, version)`, so the model
//! only keeps one version stamp per block and regenerates the expected bytes
//! when it verifies a read.

/// Size of one modelled block and of every small I/O the workloads issue.
pub const BLK: usize = 4096;

/// SplitMix64: small, fast and good enough for workload choices.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(θ) over ranks `0..n`, sampled by inverting a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Draws operation kinds without replacement from a seeded shuffle of a
/// fixed deck, so every run issues the mix exactly (up to one deck) and the
/// mix itself does not vary from seed to seed.
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding each `(card, count)` `count` times.
    pub fn new(counts: &[(T, usize)]) -> Self {
        let cards = counts
            .iter()
            .flat_map(|&(card, n)| std::iter::repeat_n(card, n))
            .collect();
        Deck { cards, next: 0 }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// The bytes block `blk` of file `file` holds at `version`.
pub fn block_bytes(file: u64, blk: usize, version: u32, out: &mut [u8]) {
    let base = mix(file ^ ((blk as u64) << 40) ^ ((version as u64) << 20) ^ 0x5fe6_2003);
    for (i, word) in out.chunks_mut(8).enumerate() {
        let v = base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        word.copy_from_slice(&v.to_le_bytes()[..word.len()]);
    }
}

/// The model of one file: a version stamp per [`BLK`]-sized block.
#[derive(Clone)]
pub struct FileModel {
    pub id: u64,
    pub versions: Vec<u32>,
}

impl FileModel {
    pub fn new(id: u64, len: usize) -> Self {
        FileModel {
            id,
            versions: vec![0; len / BLK],
        }
    }

    /// Expected bytes of blocks `first..first + count`.
    pub fn expected(&self, first: usize, count: usize) -> Vec<u8> {
        let mut out = vec![0u8; count * BLK];
        for (i, chunk) in out.chunks_mut(BLK).enumerate() {
            block_bytes(self.id, first + i, self.versions[first + i], chunk);
        }
        out
    }

    /// Bump the version of blocks `first..first + count` and return their new
    /// contents, to be written.
    pub fn bump(&mut self, first: usize, count: usize) -> Vec<u8> {
        for v in &mut self.versions[first..first + count] {
            *v += 1;
        }
        self.expected(first, count)
    }

    /// Whether `data` is what blocks `first..` should hold.
    pub fn matches(&self, first: usize, data: &[u8]) -> bool {
        if !data.len().is_multiple_of(BLK) || first + data.len() / BLK > self.versions.len() {
            return false;
        }
        let mut want = [0u8; BLK];
        data.chunks(BLK).enumerate().all(|(i, got)| {
            block_bytes(self.id, first + i, self.versions[first + i], &mut want);
            got == want
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_round_trip_and_version_sensitivity() {
        let mut m = FileModel::new(7, 4 * BLK);
        let v0 = m.expected(0, 4);
        assert!(m.matches(0, &v0));
        let new = m.bump(1, 2);
        assert!(m.matches(1, &new));
        assert!(!m.matches(0, &v0));
        assert!(m.matches(0, &v0[..BLK]));
        assert!(!m.matches(3, &v0[..2 * BLK]));
    }

    #[test]
    fn deck_deals_the_exact_mix() {
        let mut deck = Deck::new(&[('r', 7), ('w', 3)]);
        let mut rng = Rng::new(3, 4);
        let drawn: Vec<char> = (0..100).map(|_| deck.draw(&mut rng)).collect();
        assert_eq!(drawn.iter().filter(|&&c| c == 'w').count(), 30);
        assert_ne!(drawn[..10], drawn[10..20]);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(64, 0.9);
        let mut rng = Rng::new(1, 2);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[63]);
    }
}
