use crate::netlist::Circuit;
use gcnrl_linalg::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The component graph of a circuit, in the form consumed by the GCN agent.
///
/// Vertices are sizable components; an undirected edge connects two components
/// whenever they share a non-supply net (a signal wire).  The paper's Eq. 4
/// propagation rule uses the symmetrically normalised adjacency with self
/// loops, `D̃^-1/2 (A + I) D̃^-1/2`, which [`TopologyGraph::normalized_adjacency`]
/// precomputes once per circuit.
///
/// # Examples
///
/// ```
/// use gcnrl_circuit::benchmarks;
///
/// let circuit = benchmarks::two_stage_tia();
/// let graph = circuit.topology_graph();
/// let a_hat = graph.normalized_adjacency();
/// assert_eq!(a_hat.rows(), graph.num_vertices());
/// // Normalised adjacency is symmetric.
/// for i in 0..a_hat.rows() {
///     for j in 0..a_hat.cols() {
///         assert!((a_hat[(i, j)] - a_hat[(j, i)]).abs() < 1e-12);
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyGraph {
    num_vertices: usize,
    /// Adjacency list; `edges[i]` holds the neighbours of vertex `i` (no self loops).
    edges: Vec<Vec<usize>>,
}

impl TopologyGraph {
    /// Builds the graph from a circuit netlist.
    ///
    /// Two components are adjacent when they share at least one net that is
    /// not marked as a supply rail.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_components();
        let supply: HashSet<usize> = circuit
            .nets()
            .iter()
            .filter(|net| net.is_supply)
            .map(|net| net.id.index())
            .collect();

        let mut edges = vec![Vec::new(); n];
        let comps = circuit.components();
        for i in 0..n {
            let nets_i: HashSet<usize> = comps[i]
                .terminals
                .iter()
                .map(|t| t.index())
                .filter(|t| !supply.contains(t))
                .collect();
            for (j, comp_j) in comps.iter().enumerate().skip(i + 1) {
                let shares = comp_j.terminals.iter().any(|t| nets_i.contains(&t.index()));
                if shares {
                    edges[i].push(j);
                    edges[j].push(i);
                }
            }
        }
        TopologyGraph {
            num_vertices: n,
            edges,
        }
    }

    /// Builds a graph directly from an edge list (useful in tests and for
    /// synthetic graphs).
    ///
    /// Self loops and duplicate edges are ignored.
    pub fn from_edges(num_vertices: usize, edge_list: &[(usize, usize)]) -> Self {
        let mut edges = vec![Vec::new(); num_vertices];
        let mut seen = HashSet::new();
        for &(a, b) in edge_list {
            if a == b || a >= num_vertices || b >= num_vertices {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                edges[a].push(b);
                edges[b].push(a);
            }
        }
        TopologyGraph {
            num_vertices,
            edges,
        }
    }

    /// Number of vertices (components).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Degree (number of neighbours) of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    pub fn degree(&self, v: usize) -> usize {
        self.edges[v].len()
    }

    /// The raw adjacency matrix `A` (no self loops), as a dense matrix.
    pub fn adjacency(&self) -> Matrix {
        let mut a = Matrix::zeros(self.num_vertices, self.num_vertices);
        for (i, nbrs) in self.edges.iter().enumerate() {
            for &j in nbrs {
                a[(i, j)] = 1.0;
            }
        }
        a
    }

    /// The symmetrically normalised adjacency with self loops,
    /// `D̃^-1/2 (A + I) D̃^-1/2` from Kipf & Welling, used by every GCN layer.
    pub fn normalized_adjacency(&self) -> Matrix {
        let n = self.num_vertices;
        let mut a_tilde = self.adjacency();
        for i in 0..n {
            a_tilde[(i, i)] += 1.0;
        }
        let deg: Vec<f64> = (0..n).map(|i| a_tilde.row(i).iter().sum::<f64>()).collect();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if a_tilde[(i, j)] != 0.0 {
                    out[(i, j)] = a_tilde[(i, j)] / (deg[i] * deg[j]).sqrt();
                }
            }
        }
        out
    }

    /// Number of hops needed for one vertex to reach the farthest vertex
    /// reachable from it (graph eccentricity), maximised over vertices:
    /// the graph diameter of the largest connected component.
    ///
    /// The paper stacks seven GCN layers "to make sure the last layer has a
    /// global receptive field"; this helper lets callers verify that the
    /// chosen depth is at least the diameter.
    pub fn diameter(&self) -> usize {
        let mut diameter = 0;
        for start in 0..self.num_vertices {
            let dist = self.bfs_distances(start);
            let ecc = dist.iter().copied().flatten().max().unwrap_or(0);
            diameter = diameter.max(ecc);
        }
        diameter
    }

    /// Returns `true` if every vertex can reach every other vertex.
    pub fn is_connected(&self) -> bool {
        if self.num_vertices == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|d| d.is_some())
    }

    fn bfs_distances(&self, start: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.num_vertices];
        let mut queue = std::collections::VecDeque::new();
        dist[start] = Some(0);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let d = dist[v].expect("queued vertices have distances");
            for &w in &self.edges[v] {
                if dist[w].is_none() {
                    dist[w] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::CircuitBuilder;

    #[test]
    fn shared_signal_net_creates_edge_but_supply_does_not() {
        let mut b = CircuitBuilder::new("t");
        b.supply("vdd");
        b.net("x");
        b.net("y");
        b.resistor("R1", "vdd", "x").unwrap();
        b.resistor("R2", "vdd", "y").unwrap();
        b.resistor("R3", "x", "y").unwrap();
        let c = b.build().unwrap();
        let g = c.topology_graph();
        // R1-R2 only share vdd (supply) -> no edge; R3 shares x with R1 and y with R2.
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn from_edges_ignores_self_loops_and_duplicates() {
        let g = TopologyGraph::from_edges(3, &[(0, 1), (1, 0), (2, 2), (1, 2)]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn normalized_adjacency_rows_of_isolated_vertex() {
        let g = TopologyGraph::from_edges(2, &[]);
        let a = g.normalized_adjacency();
        // Isolated vertex with self loop: degree 1, entry 1.0.
        assert!((a[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((a[(0, 1)]).abs() < 1e-12);
    }

    #[test]
    fn normalized_adjacency_is_symmetric_and_bounded() {
        let g = TopologyGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let a = g.normalized_adjacency();
        for i in 0..4 {
            for j in 0..4 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
                assert!(a[(i, j)] >= 0.0 && a[(i, j)] <= 1.0);
            }
        }
    }

    #[test]
    fn diameter_of_path_graph() {
        let g = TopologyGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.diameter(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = TopologyGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn adjacency_matches_edge_list() {
        let g = TopologyGraph::from_edges(3, &[(0, 2)]);
        let a = g.adjacency();
        assert_eq!(a[(0, 2)], 1.0);
        assert_eq!(a[(2, 0)], 1.0);
        assert_eq!(a[(0, 1)], 0.0);
        assert_eq!(a[(0, 0)], 0.0);
    }
}
