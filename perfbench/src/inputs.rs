//! Seeded inputs: the workload graphs (written to a file the program then
//! loads), the small-pattern query mix, and balanced update batches.

use crate::util::Rng;
use graphpi_graph::{generators, io, CsrGraph, GraphBuilder};
use graphpi_pattern::{prefab, Pattern};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// A seeded stand-in graph from `graphpi_graph::generators`.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    pub name: &'static str,
    pub vertices: usize,
    /// `power_law`'s edges per new vertex, or `erdos_renyi`'s edge count.
    edges: usize,
    power_law: bool,
}

/// `mine`: P6 execution and P5 planning dominate a pass, and GraphZero's
/// sequential reference count of P2 stays under ten seconds.
pub const MINE_GRAPH: GraphSpec = GraphSpec {
    name: "mine:power_law(1000,5)",
    vertices: 1000,
    edges: 5,
    power_law: true,
};

/// `serve`: matching takes a few microseconds, so per-query fixed costs
/// (codec, TCP, admission, pool submit) dominate. Uniform rather than
/// power-law: on a 100-vertex power-law graph the hubs, and with them the
/// matching cost, changed so much from seed to seed that the read tail
/// moved by a quarter between seeds.
pub const SERVE_GRAPH: GraphSpec = GraphSpec {
    name: "serve:erdos_renyi(100,200)",
    vertices: 100,
    edges: 200,
    power_law: false,
};

/// `mutate`: a commit's engine rebuild (CSR clone plus triangle count) is
/// real work, and reads stay small.
pub const MUTATE_GRAPH: GraphSpec = GraphSpec {
    name: "mutate:power_law(400,3)",
    vertices: 400,
    edges: 3,
    power_law: true,
};

impl GraphSpec {
    fn generate(&self, seed: u64) -> CsrGraph {
        if self.power_law {
            generators::power_law(self.vertices, self.edges, seed)
        } else {
            generators::erdos_renyi(self.vertices, self.edges, seed)
        }
    }

    /// Generates the graph and writes it in the binary format the server
    /// and CLI load; returns the file's path.
    pub fn write(&self, seed: u64, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("graph-{}.bin", self.vertices));
        io::save_binary(&self.generate(seed), &path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }
}

pub fn load(path: &Path) -> Result<CsrGraph, String> {
    io::load_binary(path).map_err(|e| format!("load {}: {e}", path.display()))
}

/// The serving mix: six small patterns, each asked once per round.
pub fn mix() -> Vec<(&'static str, Pattern)> {
    vec![
        ("triangle", prefab::triangle()),
        ("rectangle", prefab::rectangle()),
        ("house", prefab::house()),
        ("clique4", prefab::clique(4)),
        ("cycle5", prefab::cycle_pattern(5)),
        ("path4", prefab::path_pattern(4)),
    ]
}

/// `rounds` seeded shuffles of the mix indices, one after another: each
/// round asks every pattern once, in an order that depends on the seed.
/// Each connection walks the sequence from its own offset.
pub fn mix_sequence(seed: u64, rounds: usize) -> Vec<usize> {
    let patterns = mix().len();
    let mut rng = Rng::new(seed ^ 0x5E_12FE);
    let mut sequence = Vec::with_capacity(rounds * patterns);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..patterns).collect();
        for i in (1..patterns).rev() {
            round.swap(i, rng.below(i + 1));
        }
        sequence.extend(round);
    }
    sequence
}

/// Edge pairs of one update batch.
pub type Edges = Vec<(u32, u32)>;

/// The benchmark's own copy of the graph's edge set, from which it draws
/// balanced update batches and builds the expected final graph.
pub struct EdgeMirror {
    vertices: usize,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    rng: Rng,
}

impl EdgeMirror {
    pub fn new(graph: &CsrGraph, seed: u64) -> EdgeMirror {
        let edges: Vec<(u32, u32)> = graph.edges().filter(|&(u, v)| u < v).collect();
        EdgeMirror {
            vertices: graph.num_vertices(),
            present: edges.iter().copied().collect(),
            edges,
            rng: Rng::new(seed ^ 0xBA7C4),
        }
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Applies `k / 2` double-edge swaps: edges `(a, b)` and `(c, d)` become
    /// `(a, d)` and `(c, b)`, so every vertex keeps its degree. With `grow`
    /// set, the batch also inserts one absent edge, or deletes one present
    /// edge; otherwise it deletes exactly as many edges as it inserts.
    /// Every edge of the batch changes the graph (no no-ops, no edge both
    /// inserted and deleted), and the mirror is updated to match.
    pub fn next_batch(&mut self, k: usize, grow: Option<bool>) -> (Edges, Edges) {
        let mut deletes: Edges = Vec::with_capacity(k);
        let mut inserts: Edges = Vec::with_capacity(k);
        let norm = |u: u32, v: u32| (u.min(v), u.max(v));
        while deletes.len() + 2 <= k && self.edges.len() >= 2 {
            let (i, j) = (
                self.rng.below(self.edges.len()),
                self.rng.below(self.edges.len()),
            );
            let (a, b) = self.edges[i];
            let (c, d) = match self.edges[j] {
                (c, d) if self.rng.below(2) == 0 => (d, c),
                e => e,
            };
            let (new1, new2) = (norm(a, d), norm(c, b));
            let distinct = i != j && a != c && a != d && b != c && b != d;
            if !distinct
                || self.present.contains(&new1)
                || self.present.contains(&new2)
                || deletes.contains(&new1)
                || deletes.contains(&new2)
                || inserts.contains(&self.edges[i])
                || inserts.contains(&self.edges[j])
            {
                continue;
            }
            for index in [i.max(j), i.min(j)] {
                let gone = self.edges.swap_remove(index);
                self.present.remove(&gone);
                deletes.push(gone);
            }
            for e in [new1, new2] {
                self.present.insert(e);
                self.edges.push(e);
                inserts.push(e);
            }
        }
        match grow {
            Some(true) => loop {
                let (a, b) = (self.rng.below(self.vertices), self.rng.below(self.vertices));
                let e = norm(a as u32, b as u32);
                if a != b && !self.present.contains(&e) && !deletes.contains(&e) {
                    self.present.insert(e);
                    self.edges.push(e);
                    inserts.push(e);
                    break;
                }
            },
            Some(false) => loop {
                let i = self.rng.below(self.edges.len());
                if !inserts.contains(&self.edges[i]) {
                    let gone = self.edges.swap_remove(i);
                    self.present.remove(&gone);
                    deletes.push(gone);
                    break;
                }
            },
            None => {}
        }
        (inserts, deletes)
    }

    /// The graph the mirror describes.
    pub fn graph(&self) -> CsrGraph {
        let mut builder = GraphBuilder::new().num_vertices(self.vertices);
        for &(u, v) in &self.edges {
            builder.push_edge(u, v);
        }
        builder.build()
    }
}
