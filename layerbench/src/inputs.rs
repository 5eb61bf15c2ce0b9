//! Workload inputs, generated from the run's `--seed` alone.
//!
//! The program under test only ever sees what these functions produce:
//! graphs from the repository's own generators (seeded here), job
//! seeds, and the update stream's edge batches. The same seed gives
//! byte-identical inputs.

use std::collections::HashMap;

use st_graph::{gen, CsrGraph, EdgeBatch, VertexId};

/// bulk_random: the paper's irregular low-diameter family at average
/// degree 8 (m = 4n).
pub const BULK_RANDOM_N: usize = 1 << 18;
/// Edges of the bulk random graph.
pub const BULK_RANDOM_M: usize = 4 * BULK_RANDOM_N;
/// small_jobs: ROADMAP item 2's gate graph.
pub const SMALL_N: usize = 512;
/// Edges of each small graph.
pub const SMALL_M: usize = 768;
/// Small graphs in the small_jobs catalog.
pub const SMALL_GRAPHS: usize = 8;
/// update_stream: a sparse random graph (m = 1.5n, the paper's Fig. 3
/// density) with one giant component.
pub const UPDATE_N: usize = 1 << 16;
/// Edges of the update graph; the stream keeps this count constant.
pub const UPDATE_M: usize = UPDATE_N * 3 / 2;
/// Edges per update batch: half deletions, half insertions.
pub const BATCH_EDGES: usize = 64;
/// The update client reads the latest forest after this many batches.
pub const READ_EVERY: u64 = 4;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// An independent seed for input stream `stream` of run seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The algorithm seed of client `client`'s `j`-th job: distinct for
/// every (client, j) of a run, so no job can hit the result cache.
pub fn job_seed(seed: u64, client: usize, j: u64) -> u64 {
    assert!(j < 1 << 48, "job index out of range");
    derive(seed, 0xB0B) ^ ((client as u64) << 48 | j)
}

/// bulk_random's graph.
pub fn bulk_random(seed: u64) -> CsrGraph {
    gen::random_gnm(BULK_RANDOM_N, BULK_RANDOM_M, derive(seed, 1))
}

/// small_jobs' catalog.
pub fn small_catalog(seed: u64) -> Vec<CsrGraph> {
    (0..SMALL_GRAPHS as u64)
        .map(|i| gen::random_gnm(SMALL_N, SMALL_M, derive(seed, 100 + i)))
        .collect()
}

/// update_stream's starting graph.
pub fn update_graph(seed: u64) -> CsrGraph {
    gen::random_gnm(UPDATE_N, UPDATE_M, derive(seed, 3))
}

fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// A stationary stream of edge batches over one graph.
///
/// The stream mirrors the graph's edge set, so every batch deletes
/// `BATCH_EDGES / 2` edges drawn uniformly from *all* current edges
/// (tree edges included) and inserts as many edges that are absent.
/// The edge count never drifts, so a faster update path cannot grow
/// the graph within a run and make later reads look slower.
#[derive(Clone, Debug)]
pub struct UpdateStream {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    index: HashMap<(VertexId, VertexId), usize>,
    rng: Rng,
}

impl UpdateStream {
    /// A stream over `g`'s edges.
    pub fn new(g: &CsrGraph, seed: u64) -> Self {
        let mut s = Self {
            n: g.num_vertices(),
            edges: Vec::with_capacity(g.num_edges()),
            index: HashMap::with_capacity(g.num_edges()),
            rng: Rng::new(derive(seed, 4)),
        };
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                if u < v {
                    s.add((u, v));
                }
            }
        }
        s
    }

    fn add(&mut self, e: (VertexId, VertexId)) {
        self.index.insert(e, self.edges.len());
        self.edges.push(e);
    }

    fn remove_at(&mut self, i: usize) -> (VertexId, VertexId) {
        let e = self.edges.swap_remove(i);
        self.index.remove(&e);
        if let Some(&moved) = self.edges.get(i) {
            self.index.insert(moved, i);
        }
        e
    }

    /// The next batch: `BATCH_EDGES / 2` deletions of current edges,
    /// then as many insertions of absent, non-loop edges. No edge is
    /// both deleted and inserted by one batch.
    pub fn next_batch(&mut self) -> EdgeBatch {
        let half = BATCH_EDGES / 2;
        let mut batch = EdgeBatch::new();
        for _ in 0..half {
            let i = self.rng.below(self.edges.len());
            let (u, v) = self.remove_at(i);
            batch = batch.delete(u, v);
        }
        let mut added = 0;
        while added < half {
            let u = self.rng.below(self.n) as VertexId;
            let v = self.rng.below(self.n) as VertexId;
            let e = key(u, v);
            if u == v || self.index.contains_key(&e) || batch.deletes.contains(&e) {
                continue;
            }
            self.add(e);
            batch = batch.insert(e.0, e.1);
            added += 1;
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::{GraphView, Neighbors};
    use std::sync::Arc;

    impl UpdateStream {
        fn num_edges(&self) -> usize {
            self.edges.len()
        }
    }

    fn same_graph(a: &CsrGraph, b: &CsrGraph) -> bool {
        a.raw_offsets() == b.raw_offsets() && a.raw_targets() == b.raw_targets()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert!(same_graph(&bulk_random(7), &bulk_random(7)));
        for (a, b) in small_catalog(7).iter().zip(&small_catalog(7)) {
            assert!(same_graph(a, b));
        }
        let g = update_graph(7);
        assert!(same_graph(&g, &update_graph(7)));
        let (mut s1, mut s2) = (UpdateStream::new(&g, 7), UpdateStream::new(&g, 7));
        for _ in 0..50 {
            assert_eq!(s1.next_batch(), s2.next_batch());
        }
        assert_eq!(job_seed(7, 1, 5), job_seed(7, 1, 5));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert!(!same_graph(&update_graph(1), &update_graph(2)));
        assert!(!same_graph(&small_catalog(1)[0], &small_catalog(2)[0]));
        assert_ne!(
            small_catalog(1)[0].raw_targets(),
            small_catalog(1)[1].raw_targets()
        );
        let g = update_graph(1);
        assert_ne!(
            UpdateStream::new(&g, 1).next_batch(),
            UpdateStream::new(&g, 2).next_batch()
        );
    }

    #[test]
    fn job_seeds_are_distinct_within_a_run() {
        let mut seen = std::collections::HashSet::new();
        for client in 0..2 {
            for j in 0..10_000 {
                assert!(seen.insert(job_seed(3, client, j)));
            }
        }
    }

    #[test]
    fn update_stream_is_stationary_and_hits_tree_edges() {
        let g = Arc::new(update_graph(11));
        let m0 = g.num_edges();
        let mut s = UpdateStream::new(&g, 11);
        assert_eq!(s.num_edges(), m0);
        // Tree edges of a forest of the starting graph.
        let parents = st_core::seq::bfs_forest(&g).parents;
        let is_tree =
            |(u, v): (VertexId, VertexId)| parents[u as usize] == v || parents[v as usize] == u;
        let mut view = GraphView::Flat(Arc::clone(&g));
        let mut tree_deletes = 0;
        for i in 0..2_000 {
            let b = s.next_batch();
            assert_eq!(b.deletes.len(), BATCH_EDGES / 2);
            assert_eq!(b.inserts.len(), BATCH_EDGES / 2);
            if i < 20 {
                tree_deletes += b.deletes.iter().filter(|&&e| is_tree(e)).count();
                let (next, outcome) = view.apply(&b).expect("batch names valid vertices");
                assert_eq!(
                    outcome.edges_removed,
                    BATCH_EDGES / 2,
                    "every delete names a live edge"
                );
                assert_eq!(outcome.edges_added, BATCH_EDGES / 2, "every insert is new");
                view = next;
            }
            let drift = (s.num_edges() as f64 - m0 as f64).abs() / m0 as f64;
            assert!(
                drift <= 0.02,
                "edge count drifted {drift:.3} after {i} batches"
            );
        }
        assert_eq!(view.num_edges(), m0);
        assert!(tree_deletes > 0, "deletes must reach tree edges");
    }
}
