//! Micro-component fast paths and the component class table over a
//! component-contiguous CSR partition.
//!
//! On the barely-supercritical workloads the scale tier targets, a graph with
//! 10⁶ vertices decomposes into ~476k components that are overwhelmingly tiny
//! trees and unicyclic graphs — exactly the structures for which the
//! Δ-bounded forest-polytope maximum has a closed form. The general
//! [`CombinatorialSolver`] already solves each of them quickly, but pays a
//! fixed per-component toll (materializing an adjacency-list [`Graph`],
//! half a dozen allocations, a `HashMap` for the remnant phase) that
//! dominates once components are this small and this numerous.
//!
//! This module removes that toll while keeping the results **bit-for-bit
//! identical** to the general solver:
//!
//! * [`ClassTable`] — the driver of a family evaluation, built once per
//!   evaluation rather than once per Δ. Every eligible component's exact
//!   labeled CSR slice (size, degree sequence, neighbor rows) is encoded into
//!   one flat key arena behind a word-wise hash with chained buckets; each
//!   component maps to a class id, and each class keeps one value per solved
//!   Δ. A Δ then solves each *class* once — on a chunked fan-out where every
//!   chunk owns its scratch, so no lock is taken per component — and sums
//!   the class values in component order, the order the per-component driver
//!   always used, so the bits are unchanged. Two components share a class
//!   only when their keys are equal word for word (identical as labeled
//!   graphs, a safe subset of isomorphism); a hash collision only lengthens
//!   a chain. On ER at p = 1.05/n the class count is a fraction of the
//!   component count, so most solves become lookups.
//! * **Reuse across snapshots** — [`ClassTable::rebuild`] keeps the previous
//!   partition's classes and looks every new class up among them, again by
//!   full key comparison and never by hash alone. A class seen before carries
//!   its value at every Δ it was solved at (under the same micro setting,
//!   so solve paths and LP counters always describe the current setting),
//!   so the next snapshot of an evolving graph solves only the classes its
//!   edits created (a continual release after 16 edits: at most 32 out of
//!   thousands). A rebuild recycles
//!   the buffers of the generation before, so a long-lived table stops
//!   allocating. Who keeps a table between evaluations is the caller's
//!   choice: a stream lineage retains one, a one-shot evaluation drops it.
//! * [`solve_partition`] — one Δ over a fresh table, with per-edge weights.
//! * **Micro solver** — for trees, unicyclic components and anything with at
//!   most [`MICRO_TINY_VERTICES`] vertices, a CSR-native replica of the
//!   general solver's reduction loop (same float operations in the same
//!   order), with two provably-identical closed-form short-circuits:
//!   a tree whose maximum degree is ≤ Δ gets all-ones weights (every leaf
//!   peel charges exactly 1.0), and a remnant cycle whose floored caps are
//!   all ≥ 2 keeps its first `k − 1` canonical edges (the capped greedy
//!   accepts exactly those). Remnant pieces that fit neither case are
//!   materialized and sent through the *same* [`spanning_certificate`] /
//!   column-generation tail as the general solver, so the weight vector —
//!   and hence the value, summed in the same edge order — is identical by
//!   construction.

use crate::column_generation;
use crate::combinatorial::{spanning_certificate, CombinatorialSolver, CAP_TOL};
use crate::solver::{PolytopeError, PolytopeSolution};
use ccdp_exec::{effective_parallelism, parallel_map};
use ccdp_graph::{ComponentPartition, CsrComponent, Graph};
use std::collections::HashMap;

/// Components with more vertices than this and more than `n` edges are not
/// micro-eligible (trees and unicyclic components of any size always are).
pub const MICRO_TINY_VERTICES: usize = 24;

/// Where each component's solution came from, aggregated over one solve of
/// one Δ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionSolveStats {
    /// Components with at least one edge (each takes its class's solution).
    pub components: usize,
    /// Classes solved by the micro solver without materializing a remnant
    /// piece (closed forms), whether solved now or carried over.
    pub micro_closed_form: usize,
    /// Classes whose micro solve sent a remnant through the shared
    /// certificate/LP tail.
    pub micro_reduced: usize,
    /// Classes handed to the general [`CombinatorialSolver`].
    pub general_fallback: usize,
    /// Distinct labeled classes among the components.
    pub dedup_classes: usize,
    /// Components served by another component's class solution
    /// (`components − dedup_classes`).
    pub dedup_hits: usize,
    /// Classes whose value at this Δ was carried over from the previous
    /// partition's table instead of being solved.
    pub class_reuse: usize,
}

/// Result of one Δ solve: the merged polytope solution plus attribution
/// counters.
#[derive(Clone, Debug)]
pub struct PartitionSolution {
    /// Merged solution. From [`solve_partition`], `edge_weights` is indexed
    /// like the arena's canonical edge order (component-contiguous); from
    /// [`ClassTable::solve`] it is empty.
    pub solution: PolytopeSolution,
    /// Per-path attribution.
    pub stats: PartitionSolveStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SolveKind {
    MicroClosedForm,
    MicroReduced,
    General,
}

/// One component's solution in local (component) edge order.
#[derive(Clone, Debug)]
struct CompSolution {
    weights: Vec<f64>,
    value: f64,
    generated_cuts: usize,
    lp_iterations: usize,
    lp_solves: usize,
    lp_fallback_components: usize,
    kind: SolveKind,
}

impl CompSolution {
    fn from_general(sol: PolytopeSolution) -> Self {
        CompSolution {
            value: sol.value,
            weights: sol.edge_weights,
            generated_cuts: sol.generated_cuts,
            lp_iterations: sol.lp_iterations,
            lp_solves: sol.lp_solves,
            lp_fallback_components: sol.lp_fallback_components,
            kind: SolveKind::General,
        }
    }
}

/// Solves every component of a partition at one Δ over a fresh
/// [`ClassTable`], with per-edge weights, and merges values **in component
/// order** — the exact order the sequential per-component driver uses — so
/// the result is identical for every thread budget and with `micro` on or
/// off (the micro solver only changes cost).
pub fn solve_partition(
    part: &ComponentPartition,
    delta: f64,
    threads: usize,
    micro: bool,
) -> Result<PartitionSolution, PolytopeError> {
    check_delta(delta)?;
    let mut table = ClassTable::new();
    table.rebuild(part);
    let live = &table.live;
    let all: Vec<u32> = (0..live.num_classes() as u32).collect();
    let solved = solve_classes(
        part,
        &live.representative,
        &all,
        delta,
        threads,
        micro,
        |s| s,
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let values: Vec<ClassValue> = solved.iter().map(ClassValue::from).collect();
    let mut out = merge(&live.comp_class, &values, 0);
    // Components are edge-contiguous in the arena, so each one's weights go
    // to a running prefix-sum offset.
    let mut weights = vec![0.0; part.arena().num_edges()];
    let mut classes = live.comp_class.iter();
    let mut offset = 0;
    for c in 0..part.num_components() {
        let m = part.component(c).num_edges();
        if m > 0 {
            let class = *classes.next().expect("one class per eligible component");
            weights[offset..offset + m].copy_from_slice(&solved[class as usize].weights);
        }
        offset += m;
    }
    out.solution.edge_weights = weights;
    Ok(out)
}

fn check_delta(delta: f64) -> Result<(), PolytopeError> {
    if delta <= 0.0 || !delta.is_finite() {
        return Err(PolytopeError::InvalidDelta { delta });
    }
    Ok(())
}

/// Chunks per worker when classes are solved in parallel: enough for work
/// stealing to even out one large class, few enough that per-chunk scratch
/// stays negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// Solves `classes` at `delta`, each through its representative component,
/// and returns what `keep` takes from each solution, in the order given. The
/// fan-out splits the list into contiguous chunks, each with its own
/// scratch, so no lock is taken per class.
fn solve_classes<T: Send>(
    part: &ComponentPartition,
    representative: &[u32],
    classes: &[u32],
    delta: f64,
    threads: usize,
    micro: bool,
    keep: impl Fn(CompSolution) -> T + Sync,
) -> Vec<Result<T, PolytopeError>> {
    let view = |c: u32| part.component(representative[c as usize] as usize);
    let solve_chunk = |chunk: &[u32]| {
        let mut scratch = MicroScratch::default();
        chunk
            .iter()
            .map(|&c| solve_component_dispatch(&view(c), delta, micro, &mut scratch).map(&keep))
            .collect::<Vec<_>>()
    };
    let work = classes
        .iter()
        .map(|&c| view(c).num_vertices() + view(c).num_edges())
        .sum();
    let workers = effective_parallelism(threads, work);
    if workers < 2 {
        return solve_chunk(classes);
    }
    let chunks = (workers * CHUNKS_PER_WORKER).min(classes.len());
    let len = classes.len();
    parallel_map(workers, chunks, |i| {
        solve_chunk(&classes[i * len / chunks..(i + 1) * len / chunks])
    })
    .into_iter()
    .flatten()
    .collect()
}

fn solve_component_dispatch(
    view: &CsrComponent<'_>,
    delta: f64,
    micro: bool,
    scratch: &mut MicroScratch,
) -> Result<CompSolution, PolytopeError> {
    let n = view.num_vertices();
    let m = view.num_edges();
    if micro && (m <= n || n <= MICRO_TINY_VERTICES) {
        micro_solve(view, delta, scratch)
    } else {
        let local = view.to_graph();
        CombinatorialSolver::new()
            .solve_component(&local, delta)
            .map(CompSolution::from_general)
    }
}

// ---------------------------------------------------------------------------
// Micro solver: CSR-native replica of `CombinatorialSolver::solve_component`.
// ---------------------------------------------------------------------------

/// Reusable buffers for one micro solve; pooled across components so the hot
/// loop performs no allocation for the (overwhelmingly common) tree and
/// unicyclic cases.
#[derive(Default)]
struct MicroScratch {
    adj_off: Vec<u32>,
    adj_nbr: Vec<u32>,
    adj_eid: Vec<u32>,
    caps: Vec<f64>,
    alive: Vec<bool>,
    edge_alive: Vec<bool>,
    deg: Vec<u32>,
    work: Vec<u32>,
    label: Vec<u32>,
    stack: Vec<u32>,
}

fn micro_solve(
    view: &CsrComponent<'_>,
    delta: f64,
    s: &mut MicroScratch,
) -> Result<CompSolution, PolytopeError> {
    let n = view.num_vertices();
    let m = view.num_edges();

    // Closed form: a tree whose maximum degree fits Δ peels entirely at
    // weight exactly 1.0 (every peel sees caps ≥ 1), so the general solver's
    // weight vector is all ones and its value the exact integer n − 1.
    if m == n - 1 {
        let max_deg = (0..n).map(|v| view.degree(v)).max().unwrap_or(0);
        if delta >= max_deg as f64 {
            return Ok(CompSolution {
                weights: vec![1.0; m],
                value: (n - 1) as f64,
                generated_cuts: 0,
                lp_iterations: 0,
                lp_solves: 0,
                lp_fallback_components: 0,
                kind: SolveKind::MicroClosedForm,
            });
        }
    }

    // --- Scratch setup: local CSR copy with canonical edge ids. -----------
    s.adj_off.clear();
    s.adj_off.reserve(n + 1);
    s.adj_off.push(0);
    s.adj_nbr.clear();
    s.adj_nbr.reserve(2 * m);
    for v in 0..n {
        for w in view.neighbors(v) {
            s.adj_nbr.push(w as u32);
        }
        s.adj_off.push(s.adj_nbr.len() as u32);
    }
    s.adj_eid.clear();
    s.adj_eid.resize(2 * m, 0);
    let row = |off: &[u32], v: usize| (off[v] as usize, off[v + 1] as usize);
    {
        let mut e = 0u32;
        for u in 0..n {
            let (lo, hi) = row(&s.adj_off, u);
            for j in lo..hi {
                let w = s.adj_nbr[j] as usize;
                if w > u {
                    s.adj_eid[j] = e;
                    let (wlo, whi) = row(&s.adj_off, w);
                    let pos = s.adj_nbr[wlo..whi]
                        .binary_search(&(u as u32))
                        .expect("reverse half-edge present");
                    s.adj_eid[wlo + pos] = e;
                    e += 1;
                }
            }
        }
        debug_assert_eq!(e as usize, m);
    }

    s.caps.clear();
    s.caps.resize(n, delta);
    s.alive.clear();
    s.alive.resize(n, true);
    s.edge_alive.clear();
    s.edge_alive.resize(m, true);
    s.deg.clear();
    s.deg.extend((0..n).map(|v| view.degree(v) as u32));
    let mut weights = vec![0.0f64; m];

    // --- Reductions 1 + 2, mirroring the general solver operation by
    // operation (same work-stack order, same float arithmetic). ------------
    s.work.clear();
    s.work.extend(0..n as u32);
    while let Some(v) = s.work.pop() {
        let v = v as usize;
        if !s.alive[v] {
            continue;
        }
        if s.caps[v] <= CAP_TOL {
            let (lo, hi) = row(&s.adj_off, v);
            for j in lo..hi {
                let e = s.adj_eid[j] as usize;
                if s.edge_alive[e] {
                    let u = s.adj_nbr[j] as usize;
                    s.edge_alive[e] = false;
                    s.deg[u] -= 1;
                    s.deg[v] -= 1;
                    s.work.push(u as u32);
                }
            }
            s.alive[v] = false;
        } else if s.deg[v] == 0 {
            s.alive[v] = false;
        } else if s.deg[v] == 1 {
            let (lo, hi) = row(&s.adj_off, v);
            let j = (lo..hi)
                .find(|&j| s.edge_alive[s.adj_eid[j] as usize])
                .expect("degree-1 vertex has an alive edge");
            let (u, e) = (s.adj_nbr[j] as usize, s.adj_eid[j] as usize);
            let w = 1.0f64.min(s.caps[v]).min(s.caps[u]).max(0.0);
            weights[e] = w;
            s.caps[u] -= w;
            s.edge_alive[e] = false;
            s.deg[u] -= 1;
            s.deg[v] = 0;
            s.alive[v] = false;
            s.work.push(u as u32);
        }
    }

    // --- Remnant pieces, in the same order (by smallest vertex) and local
    // labeling (ascending) the general solver's induced-subgraph path uses.
    let mut generated_cuts = 0;
    let mut lp_iterations = 0;
    let mut lp_solves = 0;
    let mut lp_fallback_components = 0;
    let mut materialized_any = false;

    s.label.clear();
    s.label.resize(n, u32::MAX);
    let mut next_label = 0u32;
    for start in 0..n {
        if !s.alive[start] || s.label[start] != u32::MAX {
            continue;
        }
        // Collect one piece (DFS over alive edges), then process it.
        s.stack.clear();
        s.stack.push(start as u32);
        s.label[start] = next_label;
        let mut piece: Vec<u32> = vec![start as u32];
        while let Some(v) = s.stack.pop() {
            let (lo, hi) = row(&s.adj_off, v as usize);
            for j in lo..hi {
                if !s.edge_alive[s.adj_eid[j] as usize] {
                    continue;
                }
                let w = s.adj_nbr[j];
                if s.label[w as usize] == u32::MAX {
                    s.label[w as usize] = next_label;
                    s.stack.push(w);
                    piece.push(w);
                }
            }
        }
        next_label += 1;
        if piece.len() < 2 {
            continue;
        }
        piece.sort_unstable();
        materialized_any |= solve_remnant_piece(
            s,
            &piece,
            &mut weights,
            &mut generated_cuts,
            &mut lp_iterations,
            &mut lp_solves,
            &mut lp_fallback_components,
        )?;
    }

    Ok(CompSolution {
        value: weights.iter().sum(),
        weights,
        generated_cuts,
        lp_iterations,
        lp_solves,
        lp_fallback_components,
        kind: if materialized_any {
            SolveKind::MicroReduced
        } else {
            SolveKind::MicroClosedForm
        },
    })
}

/// Solves one remnant piece (component-local vertex ids, sorted ascending),
/// writing weights into the component's weight vector. Returns whether the
/// piece had to be materialized as a `Graph` (vs the cycle closed form).
#[allow(clippy::too_many_arguments)]
fn solve_remnant_piece(
    s: &mut MicroScratch,
    piece: &[u32],
    weights: &mut [f64],
    generated_cuts: &mut usize,
    lp_iterations: &mut usize,
    lp_solves: &mut usize,
    lp_fallback_components: &mut usize,
) -> Result<bool, PolytopeError> {
    let row = |off: &[u32], v: usize| (off[v] as usize, off[v + 1] as usize);

    // Closed form: a remnant cycle whose floored caps are all ≥ 2. The capped
    // greedy inside `spanning_certificate` accepts the first k − 1 canonical
    // edges (any proper subset of cycle edges is acyclic; no cap below 2 ever
    // gates) and rejects the last, so the general solver's weights are 1.0
    // everywhere except the final canonical edge — written here directly.
    let is_cycle = piece
        .iter()
        .all(|&v| s.deg[v as usize] == 2 && (s.caps[v as usize] + CAP_TOL).floor() >= 2.0);
    if is_cycle {
        let mut last_eid = None;
        for &u in piece {
            let (lo, hi) = row(&s.adj_off, u as usize);
            for j in lo..hi {
                let e = s.adj_eid[j] as usize;
                if s.edge_alive[e] && s.adj_nbr[j] > u {
                    weights[e] = 1.0;
                    last_eid = Some(e);
                }
            }
        }
        if let Some(e) = last_eid {
            weights[e] = 0.0;
        }
        return Ok(false);
    }

    // General tail: materialize the piece with ascending local ids (the same
    // labeling `induced_subgraph` produces) and run the shared certificate /
    // column-generation chain.
    let k = piece.len();
    // Reuse `stack` as the component-local → piece-local rank map.
    for (rank, &v) in piece.iter().enumerate() {
        if s.stack.len() <= v as usize {
            s.stack.resize(v as usize + 1, 0);
        }
        s.stack[v as usize] = rank as u32;
    }
    let mut piece_edges: Vec<(usize, usize)> = Vec::new();
    let mut piece_eids: Vec<u32> = Vec::new();
    for &u in piece {
        let (lo, hi) = row(&s.adj_off, u as usize);
        for j in lo..hi {
            let e = s.adj_eid[j] as usize;
            if s.edge_alive[e] && s.adj_nbr[j] > u {
                piece_edges.push((
                    s.stack[u as usize] as usize,
                    s.stack[s.adj_nbr[j] as usize] as usize,
                ));
                piece_eids.push(e as u32);
            }
        }
    }
    let local = Graph::from_edges(k, &piece_edges);
    let piece_caps: Vec<f64> = piece.iter().map(|&v| s.caps[v as usize]).collect();

    if let Some(forest_edges) = spanning_certificate(&local, &piece_caps) {
        let eid_of: HashMap<(usize, usize), u32> = piece_edges
            .iter()
            .copied()
            .zip(piece_eids.iter().copied())
            .collect();
        for &(a, b) in &forest_edges {
            let key = if a < b { (a, b) } else { (b, a) };
            weights[eid_of[&key] as usize] = 1.0;
        }
    } else {
        let sol = column_generation::solve_component_with_caps(&local, &piece_caps)?;
        *generated_cuts += sol.generated_cuts;
        *lp_iterations += sol.lp_iterations;
        *lp_solves += sol.lp_solves;
        *lp_fallback_components += 1;
        for (&eid, w) in piece_eids.iter().zip(sol.edge_weights) {
            weights[eid as usize] = w;
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Closed form for cycles (analysis + test oracle).
// ---------------------------------------------------------------------------

/// Exact forest-polytope maximum of a cycle `C_k` with integer per-vertex
/// capacities `caps[i]` (cyclic vertex order): `min(k − 1, B)`, where `B` is
/// the degree-capped fractional b-matching optimum, computed half-integrally
/// by a three-state DP over doubled edge weights `u_e ∈ {0, 1, 2}` with
/// `u_{i−1} + u_i ≤ 2·caps[i]`.
///
/// Every sub-path constraint `x(E[S]) ≤ |S| − 1` is implied by `x ≤ 1`, so
/// only the whole-cycle rank bound `k − 1` can bind on top of the degree
/// caps; if `B > k − 1`, scaling the b-matching optimum down to `k − 1` stays
/// feasible (the polytope is down-closed). This is the analytical form behind
/// the production cycle short-circuit (all caps ≥ 2 ⇒ value `k − 1`) and the
/// oracle the equivalence proptests check both solvers against.
pub fn cycle_polytope_value(caps: &[usize]) -> f64 {
    let k = caps.len();
    assert!(k >= 3, "a cycle needs at least 3 vertices");
    // Edge e_i joins v_i and v_{i+1 mod k}; the cap at v_i constrains
    // u_{i-1} + u_i (indices mod k).
    let mut best_doubled = 0u64;
    for u0 in 0u64..=2 {
        // dp[state of u_i] = best doubled sum of u_1..u_i.
        let mut dp = [i64::MIN; 3];
        // Transition into u_1 constrained by v_1: u_0 + u_1 <= 2 caps[1].
        for (u1, slot) in dp.iter_mut().enumerate() {
            if u0 + u1 as u64 <= (2 * caps[1 % k]) as u64 {
                *slot = u1 as i64;
            }
        }
        for &cap in caps.iter().take(k).skip(2) {
            let mut next = [i64::MIN; 3];
            for (prev, &acc) in dp.iter().enumerate() {
                if acc == i64::MIN {
                    continue;
                }
                for (cur, slot) in next.iter_mut().enumerate() {
                    if prev + cur <= 2 * cap {
                        *slot = (*slot).max(acc + cur as i64);
                    }
                }
            }
            dp = next;
        }
        // Close the cycle: the cap at v_0 constrains u_{k-1} + u_0.
        for (last, &acc) in dp.iter().enumerate() {
            if acc == i64::MIN {
                continue;
            }
            if last as u64 + u0 <= (2 * caps[0]) as u64 {
                best_doubled = best_doubled.max(acc as u64 + u0);
            }
        }
    }
    let b = best_doubled as f64 / 2.0;
    ((k - 1) as f64).min(b)
}

// ---------------------------------------------------------------------------
// The component class table.
// ---------------------------------------------------------------------------

/// "No class": the end of a chain, an empty bucket, a class new to a table.
const NONE: u32 = u32::MAX;

/// One class's solution at one Δ, without the weights.
#[derive(Clone, Copy, Debug)]
struct ClassValue {
    value: f64,
    generated_cuts: u32,
    lp_iterations: u32,
    lp_solves: u32,
    lp_fallback_components: u32,
    /// `None` while the class is unsolved at this Δ.
    kind: Option<SolveKind>,
}

impl ClassValue {
    const UNSOLVED: ClassValue = ClassValue {
        value: 0.0,
        generated_cuts: 0,
        lp_iterations: 0,
        lp_solves: 0,
        lp_fallback_components: 0,
        kind: None,
    };
}

impl From<&CompSolution> for ClassValue {
    fn from(sol: &CompSolution) -> Self {
        let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        ClassValue {
            value: sol.value,
            generated_cuts: narrow(sol.generated_cuts),
            lp_iterations: narrow(sol.lp_iterations),
            lp_solves: narrow(sol.lp_solves),
            lp_fallback_components: narrow(sol.lp_fallback_components),
            kind: Some(sol.kind),
        }
    }
}

/// The class values at one Δ under one micro setting. A value records the
/// solve path and LP counters of the setting that produced it, so values are
/// only ever reused under that same setting.
#[derive(Debug, Default)]
struct Slot {
    delta: f64,
    micro: bool,
    values: Vec<ClassValue>,
}

/// The classes of one partition.
#[derive(Debug, Default)]
struct Generation {
    /// Class keys (encoded labeled slices), concatenated.
    words: Vec<u32>,
    /// Class `c`'s key is `words[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    hashes: Vec<u64>,
    /// Bucket → first class of its chain; `chain[c]` is the class after `c`.
    heads: Vec<u32>,
    chain: Vec<u32>,
    /// Class → the first component carrying it, which is solved for it.
    representative: Vec<u32>,
    /// Class → the same class in the previous generation, or [`NONE`].
    origin: Vec<u32>,
    /// Eligible component (≥ 1 edge), in component order → class.
    comp_class: Vec<u32>,
    /// `slots[..used]` hold this generation's values; the rest are buffers
    /// kept for reuse.
    slots: Vec<Slot>,
    used: usize,
}

impl Generation {
    /// Empties the generation, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.words.clear();
        self.starts.clear();
        self.starts.push(0);
        self.hashes.clear();
        self.heads.clear();
        self.chain.clear();
        self.representative.clear();
        self.origin.clear();
        self.comp_class.clear();
        self.used = 0;
    }

    fn num_classes(&self) -> usize {
        self.hashes.len()
    }

    fn key(&self, class: u32) -> &[u32] {
        let c = class as usize;
        &self.words[self.starts[c]..self.starts[c + 1]]
    }

    /// The class whose key equals `key` word for word; the hash only picks
    /// the chain.
    fn find(&self, hash: u64, key: &[u32]) -> Option<u32> {
        if self.heads.is_empty() {
            return None;
        }
        let mut class = self.heads[bucket(hash, self.heads.len())];
        while class != NONE {
            if self.hashes[class as usize] == hash && self.key(class) == key {
                return Some(class);
            }
            class = self.chain[class as usize];
        }
        None
    }

    fn slot(&self, delta: f64, micro: bool) -> Option<usize> {
        self.slots[..self.used]
            .iter()
            .position(|s| s.delta == delta && s.micro == micro)
    }

    /// The slot of `(delta, micro)`, opened with every class unsolved if new.
    fn open_slot(&mut self, delta: f64, micro: bool) -> usize {
        if let Some(i) = self.slot(delta, micro) {
            return i;
        }
        if self.used == self.slots.len() {
            self.slots.push(Slot::default());
        }
        let classes = self.num_classes();
        let slot = &mut self.slots[self.used];
        slot.delta = delta;
        slot.micro = micro;
        slot.values.clear();
        slot.values.resize(classes, ClassValue::UNSOLVED);
        self.used += 1;
        self.used - 1
    }
}

/// The component class table of a family evaluation: components grouped into
/// classes of identical labeled slices, with one value per class and solved
/// Δ (see the module docs).
///
/// [`rebuild`](Self::rebuild) classifies a partition; [`solve`](Self::solve)
/// then answers each Δ. A table kept across rebuilds remembers the
/// partition before, so classes the new partition shares with it are not
/// solved again. The caller decides the lifetime: a fresh table per
/// evaluation reuses nothing across partitions.
#[derive(Debug)]
pub struct ClassTable {
    live: Generation,
    previous: Generation,
    hash: fn(&[u32]) -> u64,
}

impl Default for ClassTable {
    fn default() -> Self {
        ClassTable {
            live: Generation::default(),
            previous: Generation::default(),
            hash: hash_words,
        }
    }
}

impl ClassTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies the components of `part`. The classes of the previous
    /// rebuild stay available for [`solve`](Self::solve) to carry values
    /// from; the generation before that is cleared and its buffers reused.
    pub fn rebuild(&mut self, part: &ComponentPartition) {
        std::mem::swap(&mut self.live, &mut self.previous);
        let ClassTable {
            live,
            previous,
            hash,
        } = self;
        live.clear();
        let eligible = (0..part.num_components())
            .filter(|&c| part.component(c).num_edges() > 0)
            .count();
        let buckets = eligible.next_power_of_two();
        live.heads.resize(buckets, NONE);
        for c in 0..part.num_components() {
            let view = part.component(c);
            if view.num_edges() == 0 {
                continue;
            }
            // Encode at the arena's tail; keep the words only for a new class.
            let start = live.words.len();
            encode_labeled_slice(&view, &mut live.words);
            let key_hash = hash(&live.words[start..]);
            let class = match live.find(key_hash, &live.words[start..]) {
                Some(class) => {
                    live.words.truncate(start);
                    class
                }
                None => {
                    let class = live.num_classes() as u32;
                    let b = bucket(key_hash, buckets);
                    live.chain.push(live.heads[b]);
                    live.heads[b] = class;
                    live.hashes.push(key_hash);
                    live.starts.push(live.words.len());
                    live.representative.push(c as u32);
                    let origin = previous.find(key_hash, &live.words[start..]);
                    live.origin.push(origin.unwrap_or(NONE));
                    class
                }
            };
            live.comp_class.push(class);
        }
    }

    /// Solves the rebuilt partition at `delta` and merges the class values
    /// in component order, without weights. A class already valued at
    /// `delta` with the same `micro` setting — in this table, or in the
    /// previous rebuild's under an equal key — is not solved again; the rest
    /// are solved once each on up to `threads` workers.
    pub fn solve(
        &mut self,
        part: &ComponentPartition,
        delta: f64,
        threads: usize,
        micro: bool,
    ) -> Result<PartitionSolution, PolytopeError> {
        check_delta(delta)?;
        let slot = self.live.open_slot(delta, micro);
        let carried = self
            .previous
            .slot(delta, micro)
            .map(|i| &self.previous.slots[i].values[..]);
        let Generation {
            representative,
            origin,
            comp_class,
            slots,
            ..
        } = &mut self.live;
        let values = &mut slots[slot].values;
        let mut pending = Vec::new();
        let mut reused = 0;
        for (class, value) in values.iter_mut().enumerate() {
            if value.kind.is_some() {
                continue;
            }
            let before = carried
                .and_then(|carried| carried.get(origin[class] as usize))
                .filter(|v| v.kind.is_some());
            match before {
                Some(&v) => {
                    *value = v;
                    reused += 1;
                }
                None => pending.push(class as u32),
            }
        }
        // Keep only the values: a class's weights are dropped as soon as it
        // is solved.
        let solved = solve_classes(part, representative, &pending, delta, threads, micro, |s| {
            ClassValue::from(&s)
        });
        for (&class, value) in pending.iter().zip(solved) {
            values[class as usize] = value?;
        }
        Ok(merge(comp_class, values, reused))
    }
}

/// Sums class values over the components in component order — one class
/// value per component, exactly the per-component driver's summation — and
/// attributes the classes by solve path.
fn merge(comp_class: &[u32], values: &[ClassValue], reused: usize) -> PartitionSolution {
    let mut solution = PolytopeSolution::zero(0);
    for &class in comp_class {
        let v = &values[class as usize];
        solution.value += v.value;
        solution.generated_cuts += v.generated_cuts as usize;
        solution.lp_iterations += v.lp_iterations as usize;
        solution.lp_solves += v.lp_solves as usize;
        solution.lp_fallback_components += v.lp_fallback_components as usize;
    }
    let mut stats = PartitionSolveStats {
        components: comp_class.len(),
        dedup_classes: values.len(),
        dedup_hits: comp_class.len() - values.len(),
        class_reuse: reused,
        ..PartitionSolveStats::default()
    };
    for v in values {
        match v.kind.expect("every class is solved before merging") {
            SolveKind::MicroClosedForm => stats.micro_closed_form += 1,
            SolveKind::MicroReduced => stats.micro_reduced += 1,
            SolveKind::General => stats.general_fallback += 1,
        }
    }
    PartitionSolution { solution, stats }
}

/// Canonical encoding of a component's labeled CSR slice: vertex count,
/// degree sequence, then the concatenated local neighbor rows. Two
/// components encode equally iff they are identical as labeled graphs.
fn encode_labeled_slice(view: &CsrComponent<'_>, out: &mut Vec<u32>) {
    let n = view.num_vertices();
    out.push(n as u32);
    for v in 0..n {
        out.push(view.degree(v) as u32);
    }
    for v in 0..n {
        out.extend(view.neighbors(v).map(|w| w as u32));
    }
}

/// Word-wise multiplicative hash of a class key. Equal hashes only pick a
/// chain; classes are told apart by full key comparison.
fn hash_words(words: &[u32]) -> u64 {
    words.iter().fold(words.len() as u64, |h, &w| {
        (h.rotate_left(5) ^ w as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Bucket of `hash` among a power-of-two number of buckets (the multiply
/// leaves its best bits high, so fold them down first).
fn bucket(hash: u64, buckets: usize) -> usize {
    ((hash >> 32) ^ hash) as usize & (buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PolytopeSolver;
    use ccdp_graph::{generators, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn partition_value(g: &Graph, delta: f64, micro: bool) -> PartitionSolution {
        let part = CsrGraph::from_graph(g).partition_components();
        solve_partition(&part, delta, 1, micro).unwrap()
    }

    fn general_value(g: &Graph, delta: f64) -> PolytopeSolution {
        CombinatorialSolver::new().solve(g, delta).unwrap()
    }

    #[test]
    fn micro_matches_general_bitwise_on_structured_families() {
        let mut graphs = vec![
            generators::path(2),
            generators::path(9),
            generators::star(6),
            generators::cycle(3),
            generators::cycle(8),
            generators::complete(5),
            generators::planted_star_forest(5, 3, 4),
            generators::caveman(3, 4),
        ];
        // Unicyclic with pendants: a cycle with trees hanging off.
        let mut uni = generators::cycle(6);
        for _ in 0..4 {
            uni.add_vertex();
        }
        uni.add_edge(0, 6);
        uni.add_edge(6, 7);
        uni.add_edge(2, 8);
        uni.add_edge(8, 9);
        graphs.push(uni);

        for g in &graphs {
            for delta in [1.0, 2.0, 3.0, 4.0] {
                let reference = general_value(g, delta);
                for micro in [true, false] {
                    let got = partition_value(g, delta, micro);
                    assert_eq!(
                        reference.value.to_bits(),
                        got.solution.value.to_bits(),
                        "value mismatch (delta={delta}, micro={micro})"
                    );
                    // The partition may permute edges across components, but
                    // every component is solved with identical local labels,
                    // so the weight vectors agree as multisets of bits.
                    let mut want: Vec<u64> =
                        reference.edge_weights.iter().map(|w| w.to_bits()).collect();
                    let mut have: Vec<u64> = got
                        .solution
                        .edge_weights
                        .iter()
                        .map(|w| w.to_bits())
                        .collect();
                    want.sort_unstable();
                    have.sort_unstable();
                    assert_eq!(want, have, "weight multiset (delta={delta}, micro={micro})");
                }
            }
        }
    }

    #[test]
    fn micro_matches_general_bitwise_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..12 {
            let g = generators::erdos_renyi(60, 1.4 / 60.0, &mut rng);
            for delta in [1.0, 2.0, 3.0] {
                let reference = general_value(&g, delta);
                let got = partition_value(&g, delta, true);
                assert_eq!(
                    reference.value.to_bits(),
                    got.solution.value.to_bits(),
                    "round {round}, delta {delta}"
                );
            }
        }
    }

    #[test]
    fn dedup_reuses_identical_components() {
        // 50 identical triangles: 1 class, 49 hits, and the value still
        // matches the general solver bitwise.
        let mut g = Graph::new(150);
        for c in 0..50 {
            let b = 3 * c;
            g.add_edge(b, b + 1);
            g.add_edge(b + 1, b + 2);
            g.add_edge(b, b + 2);
        }
        let got = partition_value(&g, 1.0, true);
        assert_eq!(got.stats.dedup_classes, 1);
        assert_eq!(got.stats.dedup_hits, 49);
        let reference = general_value(&g, 1.0);
        assert_eq!(reference.value.to_bits(), got.solution.value.to_bits());
    }

    #[test]
    fn dedup_witness_separates_distinct_labeled_slices() {
        // A triangle and a path on 3 vertices have the same size but
        // different labeled structure: they must land in different classes.
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        let got = partition_value(&g, 2.0, true);
        assert_eq!(got.stats.dedup_classes, 2);
        assert_eq!(got.stats.dedup_hits, 0);
    }

    /// Two copies of `a` and one of `b` side by side, in that vertex order.
    fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
        let mut g = Graph::new(2 * a.num_vertices() + b.num_vertices());
        for shift in [0, a.num_vertices()] {
            for (u, v) in a.edges() {
                g.add_edge(shift + u, shift + v);
            }
        }
        for (u, v) in b.edges() {
            g.add_edge(2 * a.num_vertices() + u, 2 * a.num_vertices() + v);
        }
        g
    }

    /// A value-only solve over a fresh table, as a family evaluation does.
    fn solve_fresh(g: &Graph, delta: f64, micro: bool) -> PartitionSolution {
        let part = CsrGraph::from_graph(g).partition_components();
        let mut table = ClassTable::new();
        table.rebuild(&part);
        table.solve(&part, delta, 1, micro).unwrap()
    }

    #[test]
    fn rebuild_carries_values_of_unchanged_classes_only() {
        let tri = generators::complete(3);
        let before = disjoint_union(&generators::cycle(5), &tri);
        let after = disjoint_union(&generators::cycle(5), &generators::path(4));
        let mut table = ClassTable::new();
        for (g, reused) in [(&before, 0), (&after, 1)] {
            let part = CsrGraph::from_graph(g).partition_components();
            table.rebuild(&part);
            let got = table.solve(&part, 1.0, 1, true).unwrap();
            assert_eq!((got.stats.components, got.stats.dedup_classes), (3, 2));
            // The 5-cycle class carries over; the path is new.
            assert_eq!(got.stats.class_reuse, reused);
            assert_eq!(got.stats.dedup_hits, 1);
            let fresh = solve_fresh(g, 1.0, true);
            assert_eq!(got.solution.value.to_bits(), fresh.solution.value.to_bits());
            assert_eq!(got.solution.lp_solves, fresh.solution.lp_solves);
            // A second solve at the same Δ solves and reuses nothing.
            let again = table.solve(&part, 1.0, 1, true).unwrap();
            assert_eq!(again.stats.class_reuse, 0);
            assert_eq!(
                again.solution.value.to_bits(),
                fresh.solution.value.to_bits()
            );
        }
        // A Δ the previous partition never solved is solved afresh.
        let part = CsrGraph::from_graph(&after).partition_components();
        table.rebuild(&part);
        let got = table.solve(&part, 2.0, 1, true).unwrap();
        assert_eq!(got.stats.class_reuse, 0);
        assert_eq!(
            got.solution.value.to_bits(),
            solve_fresh(&after, 2.0, true).solution.value.to_bits()
        );
        // Values carry over only under the micro setting that produced them,
        // so a solve reports the paths and LP counters of its own setting.
        let off = table.solve(&part, 1.0, 1, false).unwrap();
        let fresh_off = solve_fresh(&after, 1.0, false);
        assert_eq!(off.stats, fresh_off.stats);
        assert_eq!(off.solution.lp_solves, fresh_off.solution.lp_solves);
        assert_eq!(
            off.solution.value.to_bits(),
            fresh_off.solution.value.to_bits()
        );
        let on = table.solve(&part, 1.0, 1, true).unwrap();
        assert_eq!(on.stats.class_reuse, 2);
    }

    #[test]
    fn forged_hash_collisions_solve_instead_of_reusing() {
        // Every key hashes alike, within one partition and across rebuilds:
        // only full key comparison can tell the classes apart.
        let mut table = ClassTable {
            hash: |_| 7,
            ..ClassTable::new()
        };
        let before = disjoint_union(&generators::complete(3), &generators::star(4));
        let after = disjoint_union(&generators::path(3), &generators::star(4));
        for (g, reused) in [(&before, 0), (&after, 1)] {
            let part = CsrGraph::from_graph(g).partition_components();
            table.rebuild(&part);
            let got = table.solve(&part, 1.0, 1, true).unwrap();
            assert_eq!(got.stats.dedup_classes, 2, "colliding classes stay apart");
            // Only the star is an equal key; the path collides with the
            // triangle's hash but is solved, never handed its value.
            assert_eq!(got.stats.class_reuse, reused);
            let fresh = solve_fresh(g, 1.0, true);
            assert_eq!(got.solution.value.to_bits(), fresh.solution.value.to_bits());
        }
    }

    #[test]
    fn partition_solve_is_thread_invariant() {
        // Large enough that the classes' work feeds several workers.
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(20_000, 1.05 / 20_000.0, &mut rng);
        let part = CsrGraph::from_graph(&g).partition_components();
        let seq = solve_partition(&part, 1.0, 1, true).unwrap();
        for threads in [2, 4, 8] {
            let par = solve_partition(&part, 1.0, threads, true).unwrap();
            assert_eq!(
                seq.solution.value.to_bits(),
                par.solution.value.to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                seq.solution
                    .edge_weights
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>(),
                par.solution
                    .edge_weights
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn value_only_mode_matches_weighted_mode() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::erdos_renyi(200, 1.2 / 200.0, &mut rng);
        let part = CsrGraph::from_graph(&g).partition_components();
        let with = solve_partition(&part, 2.0, 1, true).unwrap();
        let without = solve_fresh(&g, 2.0, true);
        assert_eq!(
            with.solution.value.to_bits(),
            without.solution.value.to_bits()
        );
        assert!(without.solution.edge_weights.is_empty());
        assert_eq!(with.solution.edge_weights.len(), g.num_edges());
    }

    #[test]
    fn cycle_closed_form_matches_both_solvers() {
        for k in [3usize, 4, 5, 6, 9, 12] {
            let g = generators::cycle(k);
            for delta in 1..=4usize {
                let oracle = cycle_polytope_value(&vec![delta; k]);
                let general = general_value(&g, delta as f64).value;
                let micro = partition_value(&g, delta as f64, true).solution.value;
                assert!(
                    (general - oracle).abs() < 1e-6,
                    "general C_{k} Δ={delta}: {general} vs oracle {oracle}"
                );
                assert!(
                    (micro - oracle).abs() < 1e-6,
                    "micro C_{k} Δ={delta}: {micro} vs oracle {oracle}"
                );
            }
        }
        // Δ = 1 on C_k: fractional matching optimum k/2 for even k,
        // (k-1)/2 + ... the DP pins the exact half-integral values.
        assert_eq!(cycle_polytope_value(&[1, 1, 1]), 1.5);
        assert_eq!(cycle_polytope_value(&[1, 1, 1, 1]), 2.0);
        assert_eq!(cycle_polytope_value(&[2, 2, 2, 2]), 3.0);
        assert_eq!(cycle_polytope_value(&[1, 1, 1, 1, 1]), 2.5);
    }

    #[test]
    fn invalid_delta_is_rejected() {
        let part = CsrGraph::from_graph(&generators::path(4)).partition_components();
        assert!(matches!(
            solve_partition(&part, 0.0, 1, true),
            Err(PolytopeError::InvalidDelta { .. })
        ));
    }
}
