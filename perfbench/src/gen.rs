//! Seeded workload generation. Every operation a run performs is a pure
//! function of `(workload, seed, index)`, so the same seed replays the same
//! sequence and the system under test receives only these generated inputs.

use msccl_topology::Protocol;

/// SplitMix64: small, fast, and good enough to spread seeds apart.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
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

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf popularity of ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect()
}

/// One collective shape the daemon can be asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub algorithm: &'static str,
    /// `Some` for flat algorithms; `None` for `nodes × gpus` ones.
    pub ranks: Option<usize>,
    pub nodes: usize,
    pub gpus: usize,
}

impl Shape {
    const fn flat(algorithm: &'static str, ranks: usize) -> Self {
        Self {
            algorithm,
            ranks: Some(ranks),
            nodes: 0,
            gpus: 0,
        }
    }

    const fn grid(algorithm: &'static str, nodes: usize, gpus: usize) -> Self {
        Self {
            algorithm,
            ranks: None,
            nodes,
            gpus,
        }
    }

    pub fn spec(&self) -> msccl_algos::AlgoSpec {
        let mut spec = msccl_algos::AlgoSpec {
            ranks: self.ranks,
            ..msccl_algos::AlgoSpec::default()
        };
        if self.ranks.is_none() {
            spec.nodes = self.nodes;
            spec.gpus = self.gpus;
        }
        spec
    }

    pub fn num_ranks(&self) -> usize {
        self.ranks.unwrap_or(self.nodes * self.gpus)
    }
}

/// A daemon cache key as the benchmark sees it: shape, log2 size class
/// and protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub shape: Shape,
    pub size_class: u32,
    pub protocol: Protocol,
}

/// One generated `/collective` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOp {
    /// Index into the workload's key population.
    pub key: usize,
    pub elems: usize,
    pub seed: u64,
}

/// Inference-size shapes for `serve_hot`: 5 shapes × 3 size classes = 15
/// keys, all resident after warm-up.
const HOT_SHAPES: [Shape; 5] = [
    Shape::flat("ring-allreduce", 4),
    Shape::flat("ring-allreduce", 8),
    Shape::flat("allpairs-allreduce", 4),
    Shape::flat("recursive-doubling-allgather", 8),
    Shape::grid("two-step-alltoall", 2, 4),
];
const HOT_CLASSES: [u32; 3] = [7, 8, 10];

/// Catalog shapes at 16 and 32 ranks for `serve_churn` (power-of-two rank
/// counts, because recursive doubling and Rabenseifner require them).
const CHURN_FLAT: [&str; 10] = [
    "ring-allreduce",
    "allpairs-allreduce",
    "recursive-doubling-allgather",
    "tree-allreduce",
    "double-tree-allreduce",
    "rabenseifner-allreduce",
    "broadcast",
    "reduce",
    "gather",
    "scatter",
];
const CHURN_GRID: [&str; 4] = [
    "hierarchical-allreduce",
    "two-step-alltoall",
    "one-step-alltoall",
    "alltonext",
];
const CHURN_CLASSES: [u32; 4] = [3, 4, 5, 6];
/// Zipf exponent of key popularity; with 336 keys against the daemon's
/// default 64-entry cache it makes about half the requests of a cold block
/// miss (46%).
pub const CHURN_ZIPF_S: f64 = 1.0;
/// Fixed seed of the popularity order, so every run seed sees the same
/// popular keys and only the draws differ.
const CHURN_ORDER_SEED: u64 = 0x5eed_0fc0_ffee;

pub fn hot_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for shape in HOT_SHAPES {
        for size_class in HOT_CLASSES {
            keys.push(Key {
                shape,
                size_class,
                protocol: Protocol::Simple,
            });
        }
    }
    keys
}

/// The churn population in popularity order (most popular first).
pub fn churn_keys() -> Vec<Key> {
    let mut shapes = Vec::new();
    for ranks in [16, 32] {
        shapes.extend(CHURN_FLAT.iter().map(|a| Shape::flat(a, ranks)));
        shapes.extend(CHURN_GRID.iter().map(|a| Shape::grid(a, ranks / 8, 8)));
    }
    let mut keys = Vec::new();
    for shape in shapes {
        for size_class in CHURN_CLASSES {
            for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
                keys.push(Key {
                    shape,
                    size_class,
                    protocol,
                });
            }
        }
    }
    Rng::new(CHURN_ORDER_SEED).shuffle(&mut keys);
    keys
}

/// Elements per chunk inside a size class: the upper quarter of the class
/// `(2^(c-1), 2^c]`, so every draw maps back to class `c`.
fn elems_in_class(rng: &mut Rng, class: u32) -> usize {
    let hi = 1usize << class;
    let lo = hi - hi / 4 + 1;
    lo + rng.below(hi - lo + 1)
}

/// Requests per block of the `serve_hot` stream.
pub const HOT_BLOCK: usize = 1024;
/// Requests per block of the `serve_churn` stream: a block is one replay
/// round of `serve_churn`, so it is kept short enough to replay several
/// times in a run. It holds 191 of the 336 keys, about 3x the cache.
pub const CHURN_BLOCK: usize = 512;

/// How many times each key appears in a block of `block` requests: the
/// largest-remainder apportionment of `weights`.
pub fn apportion(weights: &[f64], block: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * block as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = block - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// Fixed seed of the request order within each block. The order decides
/// which requests hit the daemon's cache, so fixing it gives every run
/// seed the same cache behaviour; the run seed draws sizes and data seeds.
const BLOCK_ORDER_SEED: u64 = 0x0b10_c0de_5eed;

/// A deterministic, unbounded request stream over `keys`. The stream is
/// cut into blocks of equal length; every block holds each key in
/// proportion to its popularity in a fixed shuffled order (see
/// [`BLOCK_ORDER_SEED`]), so runs with different seeds see the same keys
/// in the same order and only the sizes and data seeds differ.
pub struct ServeStream {
    keys: Vec<Key>,
    /// One block's keys before shuffling.
    multiset: Vec<usize>,
    block_len: usize,
    seed: u64,
    blocks: std::sync::Mutex<Vec<std::sync::Arc<Vec<usize>>>>,
}

impl ServeStream {
    fn new(keys: Vec<Key>, weights: &[f64], block_len: usize, seed: u64) -> Self {
        let multiset = apportion(weights, block_len)
            .into_iter()
            .enumerate()
            .flat_map(|(k, n)| std::iter::repeat_n(k, n))
            .collect();
        Self {
            keys,
            multiset,
            block_len,
            seed,
            blocks: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The 15 hot keys, equally popular.
    pub fn hot(seed: u64) -> Self {
        let keys = hot_keys();
        let weights = vec![1.0; keys.len()];
        Self::new(keys, &weights, HOT_BLOCK, seed)
    }

    /// The churn population with Zipf popularity.
    pub fn churn(seed: u64) -> Self {
        let keys = churn_keys();
        let weights = zipf_weights(keys.len(), CHURN_ZIPF_S);
        Self::new(keys, &weights, CHURN_BLOCK, seed)
    }

    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Requests per block; every block holds the same mix of keys.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    fn block(&self, b: usize) -> std::sync::Arc<Vec<usize>> {
        let mut blocks = self.blocks.lock().expect("block cache lock");
        while blocks.len() <= b {
            let mut order = self.multiset.clone();
            Rng::new(BLOCK_ORDER_SEED ^ (blocks.len() as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
                .shuffle(&mut order);
            blocks.push(std::sync::Arc::new(order));
        }
        std::sync::Arc::clone(&blocks[b])
    }

    /// Operation `i` of the stream; independent of which client asks or
    /// when.
    pub fn op(&self, i: u64) -> ServeOp {
        let key = self.block(i as usize / self.block_len)[i as usize % self.block_len];
        let mut rng = Rng::new(self.seed.wrapping_mul(0x100_0000_01b3) ^ i);
        let elems = elems_in_class(&mut rng, self.keys[key].size_class);
        ServeOp {
            key,
            elems,
            seed: 1 + (rng.next_u64() >> 16),
        }
    }
}

/// Catalog programs simulated by `sim_sweep`, with the `ndv4` node count
/// each is modelled on (8 GPUs per node).
pub fn sim_shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for nodes in [2, 4] {
        shapes.extend(CHURN_FLAT.iter().map(|a| Shape::flat(a, nodes * 8)));
        shapes.extend(CHURN_GRID.iter().map(|a| Shape::grid(a, nodes, 8)));
    }
    shapes
}

/// One simulation: program index into [`sim_shapes`] and buffer bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOp {
    pub program: usize,
    pub bytes: u64,
}

/// Buffer sizes per program in a `sim_sweep` pass: 1 KiB to 1 GiB in
/// steps of 16×. Few enough that a pass takes about 1.5 s, so every
/// position repeats many times in a run.
pub const SIM_SIZES: usize = 6;

/// One pass of `sim_sweep`: every program at each of the [`SIM_SIZES`]
/// sizes, each jittered upward by under 1/8, in a seeded order.
pub fn sim_pass(seed: u64, programs: usize) -> Vec<SimOp> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    for program in 0..programs {
        for k in 0..SIM_SIZES {
            let base = 1u64 << (10 + 4 * k);
            let jitter = (rng.unit() * (base / 8) as f64) as u64;
            ops.push(SimOp {
                program,
                bytes: base + jitter,
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        for (a, b) in [
            (ServeStream::hot(7), ServeStream::hot(7)),
            (ServeStream::churn(7), ServeStream::churn(7)),
        ] {
            // Ask in different orders: op `i` must not depend on history.
            let a: Vec<ServeOp> = (0..3000).map(|i| a.op(i)).collect();
            let mut b: Vec<ServeOp> = (0..3000).rev().map(|i| b.op(i)).collect();
            b.reverse();
            assert_eq!(a, b);
        }
        assert_eq!(sim_pass(7, 28), sim_pass(7, 28));
    }

    #[test]
    fn different_seed_different_sequence() {
        let a: Vec<ServeOp> = (0..500).map(|i| ServeStream::churn(1).op(i)).collect();
        let b: Vec<ServeOp> = (0..500).map(|i| ServeStream::churn(2).op(i)).collect();
        assert_ne!(a, b);
        let a: Vec<ServeOp> = (0..500).map(|i| ServeStream::hot(1).op(i)).collect();
        let b: Vec<ServeOp> = (0..500).map(|i| ServeStream::hot(2).op(i)).collect();
        assert_ne!(a, b);
        assert_ne!(sim_pass(1, 28), sim_pass(2, 28));
    }

    #[test]
    fn generated_sizes_stay_in_their_class() {
        let stream = ServeStream::churn(3);
        for i in 0..2000 {
            let op = stream.op(i);
            let class = stream.keys()[op.key].size_class;
            assert_eq!(msccl_service::size_class(op.elems), class);
        }
        let hot = ServeStream::hot(3);
        for i in 0..2000 {
            let op = hot.op(i);
            assert!((64..=1024).contains(&op.elems));
            assert_eq!(
                msccl_service::size_class(op.elems),
                hot.keys()[op.key].size_class
            );
        }
    }

    #[test]
    fn populations_have_the_intended_sizes() {
        assert_eq!(hot_keys().len(), 15);
        // Several times the daemon's default cache capacity.
        assert!(churn_keys().len() >= 4 * 64);
        assert_eq!(sim_pass(1, sim_shapes().len()).len(), 28 * SIM_SIZES);
    }

    #[test]
    fn zipf_weights_follow_the_power_law() {
        let w = zipf_weights(100, 1.0);
        assert_eq!(w[0], 1.0);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!((w[99] - 0.01).abs() < 1e-12);
        assert!(zipf_weights(4, 0.0).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn apportion_fills_the_block_by_largest_remainder() {
        // Quotas 5.714, 2.857, 1.429 of 10: floors 5, 2, 1; the two largest
        // remainders (0.857, 0.714) get the two spare slots.
        assert_eq!(apportion(&[4.0, 2.0, 1.0], 10), vec![6, 3, 1]);
        assert_eq!(apportion(&[1.0; 15], 1024).iter().sum::<usize>(), 1024);
        let counts = apportion(&zipf_weights(336, CHURN_ZIPF_S), CHURN_BLOCK);
        assert_eq!(counts.iter().sum::<usize>(), CHURN_BLOCK);
        assert!(
            counts.windows(2).all(|p| p[0] >= p[1]),
            "popularity order kept"
        );
        // A churn block still asks for more keys than twice the daemon's
        // 64-entry cache holds.
        assert!(counts.iter().filter(|&&c| c >= 1).count() > 2 * 64);
    }

    #[test]
    fn every_block_holds_the_same_mix() {
        let stream = ServeStream::churn(9);
        let len = stream.block_len();
        let expected = apportion(&zipf_weights(stream.keys().len(), CHURN_ZIPF_S), len);
        for block in 0..3u64 {
            let mut counts = vec![0usize; stream.keys().len()];
            for i in 0..len as u64 {
                counts[stream.op(block * len as u64 + i).key] += 1;
            }
            assert_eq!(counts, expected);
        }
    }
}
