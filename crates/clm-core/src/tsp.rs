//! TSP solver for pipeline order optimisation (§4.2.3, Appendix A.1).
//!
//! CLM schedules the micro-batches of a batch so that consecutive
//! micro-batches share as many Gaussians as possible.  Each micro-batch is a
//! node; the distance between two micro-batches is the size of the symmetric
//! difference of their visibility sets `|S_i ⊕ S_j|`; the best order is the
//! shortest Hamiltonian *path*.  Because the distance is a metric (it
//! satisfies the triangle inequality — see the property test in
//! `gs-core::visibility`), stochastic local search with the classic 2-opt /
//! 3-opt (Or-opt) moves converges to (near-)optimal tours very quickly for
//! the small instance sizes a training batch produces.
//!
//! The paper bounds the search by a 1 ms wall-clock budget.  Here it runs
//! to convergence (a local optimum of both moves) or to a sweep cap, never
//! against a clock: the order fixes caching, finalisation and the gradient
//! accumulation order, so it must be a function of the batch alone, not of
//! how fast the host is.

use gs_core::visibility::VisibilitySet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the stochastic local search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TspConfig {
    /// Hard cap on improvement sweeps; the search otherwise stops at the
    /// first sweep that improves nothing.
    pub max_sweeps: usize,
    /// RNG seed for the initial-tour start node and restart perturbations.
    pub seed: u64,
}

impl Default for TspConfig {
    fn default() -> Self {
        TspConfig {
            max_sweeps: 64,
            seed: 0,
        }
    }
}

/// A symmetric distance matrix between micro-batches.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u64>,
}

impl DistanceMatrix {
    /// Builds the `|S_i ⊕ S_j|` matrix from per-view visibility sets.
    pub fn from_visibility(sets: &[VisibilitySet]) -> Self {
        let n = sets.len();
        let mut data = vec![0u64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = sets[i].symmetric_difference_len(&sets[j]) as u64;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix { n, data }
    }

    /// Builds a matrix from an explicit row-major slice (for tests).
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn from_raw(n: usize, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), n * n, "distance matrix must be n×n");
        DistanceMatrix { n, data }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between nodes `i` and `j`.
    pub fn dist(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.n + j]
    }

    /// Total length of a Hamiltonian path visiting `tour` in order.
    pub fn path_length(&self, tour: &[usize]) -> u64 {
        tour.windows(2).map(|w| self.dist(w[0], w[1])).sum()
    }
}

/// Result of a TSP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct TspSolution {
    /// Visit order (a permutation of `0..n`).
    pub tour: Vec<usize>,
    /// Total path length under the distance matrix.
    pub length: u64,
    /// Length of the greedy nearest-neighbour tour the search started from.
    pub initial_length: u64,
    /// Number of improvement sweeps performed.
    pub sweeps: usize,
}

/// Solves the Hamiltonian-path problem with nearest-neighbour construction
/// followed by 2-opt and Or-opt stochastic local search, swept until a
/// sweep improves nothing or `max_sweeps` is reached.  Deterministic: the
/// tour is a function of the matrix and the seed alone.
///
/// Returns the identity tour for 0- and 1-node instances.
pub fn solve(matrix: &DistanceMatrix, config: &TspConfig) -> TspSolution {
    let n = matrix.len();
    if n <= 1 {
        return TspSolution {
            tour: (0..n).collect(),
            length: 0,
            initial_length: 0,
            sweeps: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = rng.gen_range(0..n);
    let mut tour = nearest_neighbor_tour(matrix, start);
    let initial_length = matrix.path_length(&tour);

    let mut sweeps = 0;
    while sweeps < config.max_sweeps {
        sweeps += 1;
        let improved_2opt = two_opt_sweep(matrix, &mut tour);
        let improved_oropt = or_opt_sweep(matrix, &mut tour);
        if !(improved_2opt || improved_oropt) {
            break;
        }
    }
    TspSolution {
        length: matrix.path_length(&tour),
        tour,
        initial_length,
        sweeps,
    }
}

/// Greedy construction: start somewhere, repeatedly hop to the nearest
/// unvisited node.
pub fn nearest_neighbor_tour(matrix: &DistanceMatrix, start: usize) -> Vec<usize> {
    let n = matrix.len();
    assert!(start < n, "start node {start} out of range");
    let mut visited = vec![false; n];
    let mut tour = Vec::with_capacity(n);
    let mut current = start;
    visited[current] = true;
    tour.push(current);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&j| !visited[j])
            .min_by_key(|&j| matrix.dist(current, j))
            .expect("unvisited node must exist");
        visited[next] = true;
        tour.push(next);
        current = next;
    }
    tour
}

/// One full 2-opt sweep over the path; returns whether any improving move
/// was applied.  For a path (rather than a cycle) reversing the segment
/// `[i, j]` only changes the two boundary edges.
fn two_opt_sweep(matrix: &DistanceMatrix, tour: &mut [usize]) -> bool {
    let n = tour.len();
    let mut improved = false;
    for i in 0..n - 1 {
        for j in (i + 1)..n {
            // Edges removed: (i-1, i) and (j, j+1); edges added: (i-1, j) and (i, j+1).
            let before_left = if i == 0 {
                0
            } else {
                matrix.dist(tour[i - 1], tour[i])
            };
            let after_left = if i == 0 {
                0
            } else {
                matrix.dist(tour[i - 1], tour[j])
            };
            let before_right = if j + 1 == n {
                0
            } else {
                matrix.dist(tour[j], tour[j + 1])
            };
            let after_right = if j + 1 == n {
                0
            } else {
                matrix.dist(tour[i], tour[j + 1])
            };
            if after_left + after_right < before_left + before_right {
                tour[i..=j].reverse();
                improved = true;
            }
        }
    }
    improved
}

/// One Or-opt sweep (a restricted 3-opt): move a segment of 1–3 nodes to a
/// different position.  Returns whether any improving move was applied.
fn or_opt_sweep(matrix: &DistanceMatrix, tour: &mut Vec<usize>) -> bool {
    let n = tour.len();
    let mut improved = false;
    for seg_len in 1..=3usize.min(n.saturating_sub(1)) {
        let mut i = 0;
        while i + seg_len <= tour.len() {
            let current_len = matrix.path_length(tour);
            let segment: Vec<usize> = tour[i..i + seg_len].to_vec();
            let mut rest: Vec<usize> = Vec::with_capacity(tour.len() - seg_len);
            rest.extend_from_slice(&tour[..i]);
            rest.extend_from_slice(&tour[i + seg_len..]);
            let mut best: Option<(usize, u64)> = None;
            for pos in 0..=rest.len() {
                if pos == i {
                    continue;
                }
                let mut candidate = rest.clone();
                candidate.splice(pos..pos, segment.iter().copied());
                let len = matrix.path_length(&candidate);
                if len < current_len && best.map(|(_, b)| len < b).unwrap_or(true) {
                    best = Some((pos, len));
                }
            }
            if let Some((pos, _)) = best {
                let mut candidate = rest;
                candidate.splice(pos..pos, segment.iter().copied());
                *tour = candidate;
                improved = true;
            }
            i += 1;
        }
    }
    improved
}

/// Exact solver by exhaustive permutation search; only feasible for tiny
/// instances (n ≤ 9).  Used to validate the heuristic in tests and in the
/// `bench_tsp` ablation.
///
/// # Panics
/// Panics if `matrix.len() > 9`.
pub fn solve_exact(matrix: &DistanceMatrix) -> TspSolution {
    let n = matrix.len();
    assert!(n <= 9, "exhaustive TSP only supported for n <= 9, got {n}");
    if n <= 1 {
        return TspSolution {
            tour: (0..n).collect(),
            length: 0,
            initial_length: 0,
            sweeps: 0,
        };
    }
    let mut best_tour: Vec<usize> = (0..n).collect();
    let mut best_len = matrix.path_length(&best_tour);
    let mut perm: Vec<usize> = (0..n).collect();
    permute(&mut perm, 0, &mut |p| {
        let len = matrix.path_length(p);
        if len < best_len {
            best_len = len;
            best_tour = p.to_vec();
        }
    });
    TspSolution {
        tour: best_tour,
        initial_length: best_len,
        length: best_len,
        sweeps: 0,
    }
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line_matrix(n: usize) -> DistanceMatrix {
        // Nodes on a line: d(i, j) = |i - j| * 10.
        let mut data = vec![0u64; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = (i as i64 - j as i64).unsigned_abs() * 10;
            }
        }
        DistanceMatrix::from_raw(n, data)
    }

    #[test]
    fn trivial_instances() {
        let empty = DistanceMatrix::from_visibility(&[]);
        assert!(solve(&empty, &TspConfig::default()).tour.is_empty());
        let single = line_matrix(1);
        assert_eq!(solve(&single, &TspConfig::default()).tour, vec![0]);
    }

    #[test]
    fn solver_finds_optimal_line_order() {
        // The optimal Hamiltonian path on a line visits nodes monotonically;
        // its length is (n-1) * 10.
        let matrix = line_matrix(8);
        let sol = solve(&matrix, &TspConfig::default());
        assert_eq!(sol.length, 70, "tour {:?}", sol.tour);
        assert!(sol.length <= sol.initial_length);
        let mut sorted = sol.tour.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..8).collect::<Vec<_>>(),
            "tour must be a permutation"
        );
    }

    #[test]
    fn heuristic_matches_exact_on_small_random_instances() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 7;
            // Random points on a line => metric instance.
            let coords: Vec<i64> = (0..n)
                .map(|_| rand::Rng::gen_range(&mut rng, 0..100))
                .collect();
            let mut data = vec![0u64; n * n];
            for i in 0..n {
                for j in 0..n {
                    data[i * n + j] = (coords[i] - coords[j]).unsigned_abs();
                }
            }
            let matrix = DistanceMatrix::from_raw(n, data);
            let exact = solve_exact(&matrix);
            let heuristic = solve(
                &matrix,
                &TspConfig {
                    seed,
                    ..Default::default()
                },
            );
            assert_eq!(
                heuristic.length, exact.length,
                "seed {seed}: heuristic {} vs exact {}",
                heuristic.length, exact.length
            );
        }
    }

    /// `n` seeded points on a 1000 × 1000 grid under the L1 metric.
    fn grid_matrix(n: usize, seed: u64) -> DistanceMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_range(0..1000), rng.gen_range(0..1000)))
            .collect();
        let data = points
            .iter()
            .flat_map(|a| {
                points
                    .iter()
                    .map(move |b| a.0.abs_diff(b.0) + a.1.abs_diff(b.1))
            })
            .collect();
        DistanceMatrix::from_raw(n, data)
    }

    #[test]
    fn search_stops_at_a_local_optimum_not_a_clock() {
        // Table 3's batch sizes (16 and 64 views): the search runs until a
        // sweep improves nothing, however slow the host, so one more sweep
        // of either move finds no improvement and the tour is a function
        // of the matrix and the seed alone.
        let config = TspConfig::default();
        for n in [16, 64] {
            let matrix = grid_matrix(n, n as u64);
            let sol = solve(&matrix, &config);
            assert!(
                (2..config.max_sweeps).contains(&sol.sweeps),
                "{n} nodes: {} sweeps",
                sol.sweeps
            );
            let mut tour = sol.tour.clone();
            assert!(!two_opt_sweep(&matrix, &mut tour), "{n} nodes: 2-opt");
            assert!(!or_opt_sweep(&matrix, &mut tour), "{n} nodes: Or-opt");
            assert_eq!(solve(&matrix, &config), sol, "{n} nodes: deterministic");
        }
    }

    #[test]
    fn visibility_matrix_is_symmetric_with_zero_diagonal() {
        let sets = vec![
            VisibilitySet::from_unsorted(vec![1, 2, 3]),
            VisibilitySet::from_unsorted(vec![2, 3, 4]),
            VisibilitySet::from_unsorted(vec![10, 11]),
        ];
        let m = DistanceMatrix::from_visibility(&sets);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m.dist(i, i), 0);
            for j in 0..3 {
                assert_eq!(m.dist(i, j), m.dist(j, i));
            }
        }
        assert_eq!(m.dist(0, 1), 2);
        assert_eq!(m.dist(0, 2), 5);
    }

    #[test]
    fn tsp_order_groups_overlapping_views() {
        // Two spatial clusters of views; the optimal order keeps clusters
        // contiguous instead of ping-ponging between them.
        let cluster_a: Vec<VisibilitySet> = (0..3)
            .map(|i| VisibilitySet::from_unsorted((i..i + 20).collect()))
            .collect();
        let cluster_b: Vec<VisibilitySet> = (0..3)
            .map(|i| VisibilitySet::from_unsorted((1000 + i..1020 + i).collect()))
            .collect();
        // Interleave them badly.
        let sets = vec![
            cluster_a[0].clone(),
            cluster_b[0].clone(),
            cluster_a[1].clone(),
            cluster_b[1].clone(),
            cluster_a[2].clone(),
            cluster_b[2].clone(),
        ];
        let matrix = DistanceMatrix::from_visibility(&sets);
        let sol = solve(&matrix, &TspConfig::default());
        let interleaved_length = matrix.path_length(&[0, 1, 2, 3, 4, 5]);
        assert!(
            sol.length < interleaved_length,
            "TSP ({}) should beat the interleaved order ({})",
            sol.length,
            interleaved_length
        );
        // The solution crosses between clusters exactly once.
        let cluster_of = |node: usize| usize::from(node % 2 == 1);
        let crossings = sol
            .tour
            .windows(2)
            .filter(|w| cluster_of(w[0]) != cluster_of(w[1]))
            .count();
        assert_eq!(crossings, 1, "tour {:?}", sol.tour);
    }

    proptest! {
        #[test]
        fn prop_solver_never_worse_than_greedy_and_is_permutation(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..80, 1..25), 2..10),
            seed in 0u64..100
        ) {
            let sets: Vec<VisibilitySet> =
                raw.into_iter().map(VisibilitySet::from_unsorted).collect();
            let matrix = DistanceMatrix::from_visibility(&sets);
            let sol = solve(&matrix, &TspConfig { seed, ..Default::default() });
            prop_assert!(sol.length <= sol.initial_length);
            let mut sorted = sol.tour.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..sets.len()).collect::<Vec<_>>());
        }
    }
}
