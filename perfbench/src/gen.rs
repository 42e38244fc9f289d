//! Seeded input generation and the benchmark's own ground truth.
//!
//! Every input the program receives is made here from the workload seed:
//! edge lists, request schedules and mutation scripts. Nothing calls the
//! program's generators, so a change to them cannot change the inputs, and
//! the truth each answer is checked against comes from this module's
//! union-find, not from the program.

use std::collections::HashMap;

/// SplitMix64: a small, fast, fully specified generator, so the same seed
/// gives the same inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// An undirected simple graph as the benchmark sends it: vertex count plus
/// an edge list with `u < v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeList {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

impl EdgeList {
    /// The wire form: a `# n m` header (so isolated vertices survive) and
    /// one `u v` line per edge.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(16 + self.edges.len() * 13);
        out.push_str(&format!("# {} {}\n", self.n, self.edges.len()));
        for &(u, v) in &self.edges {
            out.push_str(&u.to_string());
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// The number of connected components, by the benchmark's union-find.
    pub fn components(&self) -> usize {
        count_components(self.n, self.edges.iter().copied())
    }

    pub fn to_graph(&self) -> ccdp::Graph {
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        ccdp::Graph::from_edges(self.n, &edges)
    }
}

/// Connected components of `0..n` under `edges`, by union-find with path
/// halving and union by size.
pub fn count_components(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> usize {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut size = vec![1u32; n];
    let mut sets = n;
    let find = |parent: &mut Vec<u32>, mut x: u32| {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    };
    for (u, v) in edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            let (big, small) = if size[a as usize] >= size[b as usize] {
                (a, b)
            } else {
                (b, a)
            };
            parent[small as usize] = big;
            size[big as usize] += size[small as usize];
            sets -= 1;
        }
    }
    sets
}

/// Erdős–Rényi G(n, p) by geometric skipping over the pairs `w < v`
/// (Batagelj–Brandes), O(n + m).
pub fn erdos_renyi(n: usize, p: f64, rng: &mut Rng) -> EdgeList {
    let mut edges = Vec::new();
    if n >= 2 && p > 0.0 {
        let log_q = (1.0 - p.min(1.0 - 1e-12)).ln();
        let (mut v, mut w) = (1usize, -1i64);
        while v < n {
            let skip = ((1.0 - rng.unit()).ln() / log_q).floor();
            w += 1 + skip as i64;
            while w >= v as i64 && v < n {
                w -= v as i64;
                v += 1;
            }
            if v < n {
                edges.push((w as u32, v as u32));
            }
        }
    }
    EdgeList { n, edges }
}

pub fn star(n: usize) -> EdgeList {
    EdgeList {
        n,
        edges: (1..n as u32).map(|v| (0, v)).collect(),
    }
}

pub fn path(n: usize) -> EdgeList {
    EdgeList {
        n,
        edges: (1..n as u32).map(|v| (v - 1, v)).collect(),
    }
}

/// Disjoint stars of `arms` leaves each over `0..n`; leftover vertices stay
/// isolated.
pub fn star_forest(n: usize, arms: usize) -> EdgeList {
    let mut edges = Vec::new();
    let mut center = 0;
    while center + arms < n {
        for leaf in 1..=arms {
            edges.push((center as u32, (center + leaf) as u32));
        }
        center += arms + 1;
    }
    EdgeList { n, edges }
}

/// The `fleet_wire` catalog: 32 small graphs, 30–300 vertices, cycling
/// through Erdős–Rényi (average degree 0.5–1.5), stars, paths and planted
/// star forests.
pub fn fleet_graphs(seed: u64) -> Vec<EdgeList> {
    let mut rng = Rng::derive(seed, 1);
    (0..32)
        .map(|i| {
            let n = 30 + rng.below(271);
            match i % 4 {
                0 => {
                    let degree = 0.5 + rng.unit();
                    erdos_renyi(n, degree / n as f64, &mut rng)
                }
                1 => star(n),
                2 => path(n),
                _ => star_forest(n, 2 + rng.below(8)),
            }
        })
        .collect()
}

/// Near-critical graphs on 10^5 vertices at average degree 1.05, as
/// [`erdos_renyi_blocks`] of 400 vertices. A single G(10^5, 1.05/n) holds
/// one near-critical giant whose cold solve time varies several-fold from
/// seed to seed (37–431 ms over twelve seeds on a 2-core x86-64 VM), and
/// blocks of a few thousand vertices still leave the time to their
/// heavy-tailed largest components. With 250 blocks the work is a sum of
/// many comparable general-LP solves, and the LP still dominates.
pub const NEAR_CRITICAL_BLOCKS: usize = 250;

/// The `large_wire` catalog: four near-critical 10^5-vertex graphs.
pub fn large_graphs(seed: u64) -> Vec<EdgeList> {
    let mut rng = Rng::derive(seed, 2);
    (0..4)
        .map(|_| erdos_renyi_blocks(100_000, NEAR_CRITICAL_BLOCKS, 1.05, &mut rng))
        .collect()
}

/// One scheduled request: which tenant asks about which graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ask {
    pub tenant: usize,
    pub graph: usize,
}

/// A request schedule of `len` asks. Tenant `tenants - 1` is the `burst`
/// tenant when `burst_share_16ths > 0`: it gets that many sixteenths of
/// the asks, the other tenants share the rest evenly.
pub fn schedule(
    seed: u64,
    len: usize,
    tenants: usize,
    burst_share_16ths: usize,
    graphs: usize,
) -> Vec<Ask> {
    let mut rng = Rng::derive(seed, 3);
    let funded = if burst_share_16ths > 0 {
        tenants - 1
    } else {
        tenants
    };
    (0..len)
        .map(|_| {
            let tenant = if rng.below(16) < burst_share_16ths {
                tenants - 1
            } else {
                rng.below(funded)
            };
            Ask {
                tenant,
                graph: rng.below(graphs),
            }
        })
        .collect()
}

/// One scripted stream mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edit {
    pub insert: bool,
    pub u: u32,
    pub v: u32,
}

/// `blocks` disjoint G(n/blocks, c/(n/blocks)) graphs side by side over
/// `0..n`: average degree `c`, with every block near-critical when `c` is
/// near 1.
pub fn erdos_renyi_blocks(n: usize, blocks: usize, c: f64, rng: &mut Rng) -> EdgeList {
    let size = n / blocks;
    let mut edges = Vec::new();
    for b in 0..blocks {
        let offset = (b * size) as u32;
        let block = erdos_renyi(size, c / size as f64, rng);
        edges.extend(block.edges.iter().map(|&(u, v)| (u + offset, v + offset)));
    }
    EdgeList { n, edges }
}

/// The `stream_cold` script: `len` edits against `initial`. A delete (with
/// probability `delete_fraction`, while edges remain) removes a present
/// edge chosen uniformly; an insert adds an absent edge between two
/// distinct uniform vertices of one block of `block` consecutive vertices
/// (`block = n` for the whole graph).
pub fn mutation_script(
    initial: &EdgeList,
    block: usize,
    len: usize,
    delete_fraction: f64,
    rng: &mut Rng,
) -> Vec<Edit> {
    let mut mirror = Mirror::new(initial);
    let n = initial.n;
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        let edit = if !mirror.edges.is_empty() && rng.unit() < delete_fraction {
            let (u, v) = mirror.edges[rng.below(mirror.edges.len())];
            Edit {
                insert: false,
                u,
                v,
            }
        } else {
            let u = rng.below(n);
            let start = u / block * block;
            let v = (start + rng.below(block.min(n - start))) as u32;
            let u = u as u32;
            if u == v || mirror.contains(u, v) {
                continue;
            }
            Edit { insert: true, u, v }
        };
        mirror.apply(edit);
        script.push(edit);
    }
    script
}

/// The benchmark's own copy of an evolving edge set, for scripting
/// deletes and recounting components at every release.
#[derive(Clone, Debug)]
pub struct Mirror {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
}

impl Mirror {
    pub fn new(initial: &EdgeList) -> Self {
        let index = initial
            .edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (key(u, v), i))
            .collect();
        Mirror {
            n: initial.n,
            edges: initial.edges.clone(),
            index,
        }
    }

    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.index.contains_key(&key(u, v))
    }

    pub fn apply(&mut self, edit: Edit) {
        let k = key(edit.u, edit.v);
        if edit.insert {
            if !self.index.contains_key(&k) {
                self.index.insert(k, self.edges.len());
                self.edges.push(k);
            }
        } else if let Some(i) = self.index.remove(&k) {
            self.edges.swap_remove(i);
            if i < self.edges.len() {
                self.index.insert(self.edges[i], i);
            }
        }
    }

    pub fn components(&self) -> usize {
        count_components(self.n, self.edges.iter().copied())
    }
}

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> (Vec<String>, Vec<Ask>, Vec<Edit>) {
        let texts = fleet_graphs(seed)
            .iter()
            .chain(large_graphs(seed).iter().take(1))
            .map(EdgeList::to_text)
            .collect();
        let asks = schedule(seed, 512, 4, 2, 32);
        let initial = erdos_renyi(2_000, 1.05 / 2_000.0, &mut Rng::derive(seed, 4));
        let script = mutation_script(&initial, 500, 256, 0.5, &mut Rng::derive(seed, 5));
        (texts, asks, script)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(fingerprint(17), fingerprint(17));
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let (a_texts, a_asks, a_script) = fingerprint(17);
        let (b_texts, b_asks, b_script) = fingerprint(18);
        assert_ne!(a_texts, b_texts);
        assert_ne!(a_asks, b_asks);
        assert_ne!(a_script, b_script);
    }

    #[test]
    fn erdos_renyi_has_the_expected_density_and_no_duplicates() {
        let n = 100_000;
        let g = erdos_renyi(n, 1.05 / n as f64, &mut Rng::derive(3, 0));
        let expected = 1.05 * (n - 1) as f64 / 2.0;
        let m = g.edges.len() as f64;
        assert!((m - expected).abs() < 5.0 * expected.sqrt(), "m = {m}");
        let mut seen = std::collections::HashSet::new();
        assert!(g.edges.iter().all(|&(u, v)| u < v && seen.insert((u, v))));
    }

    #[test]
    fn union_find_counts_components() {
        assert_eq!(star(10).components(), 1);
        assert_eq!(path(7).components(), 1);
        // 3 stars of 4 vertices plus 2 isolated vertices.
        assert_eq!(star_forest(14, 3).components(), 5);
        assert_eq!(
            EdgeList {
                n: 5,
                edges: vec![]
            }
            .components(),
            5
        );
    }

    #[test]
    fn script_deletes_present_edges_and_inserts_absent_ones() {
        let initial = erdos_renyi(500, 2.0 / 500.0, &mut Rng::derive(9, 0));
        let script = mutation_script(&initial, 100, 300, 0.5, &mut Rng::derive(10, 0));
        let mut mirror = Mirror::new(&initial);
        for edit in script {
            assert_eq!(mirror.contains(edit.u, edit.v), !edit.insert);
            assert!(
                !edit.insert || edit.u / 100 == edit.v / 100,
                "{edit:?} leaves its block"
            );
            mirror.apply(edit);
        }
        let truth = EdgeList {
            n: 500,
            edges: mirror.edges.clone(),
        };
        assert_eq!(
            mirror.components(),
            truth.to_graph().num_connected_components()
        );
    }
}
