//! Sequential nested-loop execution of a compiled plan.
//!
//! The interpreter walks the loop nest described by an
//! [`crate::config::ExecutionPlan`]: loop `i` binds pattern
//! vertex `plan.loops[i].pattern_vertex` to a data vertex drawn from the
//! intersection of the neighborhoods of its already-bound pattern neighbors,
//! subject to the restriction bounds and to injectivity. Reaching the last
//! loop yields embeddings.
//!
//! This is the executable counterpart of the code GraphPi generates and
//! compiles (Figure 5(b)); [`crate::codegen`] renders the same plan as
//! source text.
//!
//! There is one recursion: it binds loops up to a target depth and hands
//! each binding to a [`MatchSink`]. Whole-graph counting and listing bind
//! every loop; the prefix walk that feeds parallel tasks stops at the task
//! depth; a task resumes from its prefix ([`match_from_prefix_with`]).
//! Closures become sinks, so the closure-style entry points
//! ([`for_each_embedding`], [`for_each_prefix`]) drive the same code.
//!
//! The matching kernel is **allocation-free**: every candidate set is
//! materialised into a per-depth buffer of a reusable [`SearchBuffers`], the
//! k-way intersection ping-pongs between that buffer and a shared scratch
//! (`vertex_set::intersect_many_into`), and the hub-accelerated paths reuse a
//! shared bitset word buffer. Every pool worker holds one [`SearchBuffers`]
//! and calls [`count_from_prefix_with`] or [`match_from_prefix_with`] per
//! task, so the steady-state worker loop performs no heap allocation at all.

use crate::config::{ExecutionPlan, LoopBound, MAX_LOOPS};
use crate::exec::sink::{CountSink, MatchSink};
use graphpi_graph::csr::{CsrGraph, VertexId};
use graphpi_graph::hub::HubGraph;
use graphpi_graph::vertex_set;

/// The data a plan executes against: a CSR graph, optionally wrapped with
/// the hub-acceleration structure (degree-descending relabeling + bitset
/// rows for the high-degree core).
///
/// When hubs are present, `graph` **is** the relabeled graph
/// ([`HubGraph::graph`]); embedding counts are invariant under the
/// relabeling, so every counting entry point returns identical results with
/// hubs on or off.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    graph: &'a CsrGraph,
    hubs: Option<&'a HubGraph>,
}

impl<'a> ExecCtx<'a> {
    /// Plain execution over a CSR graph.
    pub fn new(graph: &'a CsrGraph) -> Self {
        Self { graph, hubs: None }
    }

    /// Hub-accelerated execution over the relabeled graph.
    pub fn with_hubs(hubs: &'a HubGraph) -> Self {
        Self {
            graph: hubs.graph(),
            hubs: Some(hubs),
        }
    }

    /// The graph being executed against (relabeled when hubs are on).
    #[inline]
    pub fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// The hub structure, if hub acceleration is enabled.
    #[inline]
    pub fn hubs(&self) -> Option<&'a HubGraph> {
        self.hubs
    }
}

/// Reusable scratch for the matching kernel: one candidate buffer per loop
/// depth, a ping-pong buffer for k-way intersections, a bitset word buffer
/// for all-hub intersections, and the bound-vertex stack.
///
/// Create once (per worker, per thread) and reuse across tasks; after the
/// buffers have grown to their steady-state sizes the kernel allocates
/// nothing.
#[derive(Debug, Default)]
pub struct SearchBuffers {
    /// Per-depth candidate materialisation buffers.
    depth_bufs: Vec<Vec<VertexId>>,
    /// Ping-pong scratch for multi-way intersections.
    tmp: Vec<VertexId>,
    /// Bitset scratch for intersections where every parent is a hub.
    words: Vec<u64>,
    /// Bound-vertex stack (prefix + inner-loop bindings).
    stack: Vec<VertexId>,
}

impl SearchBuffers {
    /// Creates buffers for a plan with `depth` loops.
    pub fn new(depth: usize) -> Self {
        Self {
            depth_bufs: vec![Vec::new(); depth],
            tmp: Vec::new(),
            words: Vec::new(),
            stack: Vec::with_capacity(depth),
        }
    }

    fn ensure_depth(&mut self, depth: usize) {
        if self.depth_bufs.len() < depth {
            self.depth_bufs.resize_with(depth, Vec::new);
        }
    }
}

/// Counts every embedding of the plan's pattern in the data graph.
pub fn count_embeddings(plan: &ExecutionPlan, graph: &CsrGraph) -> u64 {
    count_embeddings_in(plan, ExecCtx::new(graph))
}

/// Counts every embedding in an explicit execution context (plain or
/// hub-accelerated; the count is the same).
pub fn count_embeddings_in(plan: &ExecutionPlan, ctx: ExecCtx<'_>) -> u64 {
    let mut sink = CountSink::new();
    walk(plan, ctx, plan.num_loops(), &mut sink);
    sink.count()
}

/// Collects every embedding as a vector of data vertices indexed **by
/// pattern vertex** (i.e. `result[e][p]` is the data vertex that embedding
/// `e` assigns to pattern vertex `p`).
pub fn list_embeddings(plan: &ExecutionPlan, graph: &CsrGraph) -> Vec<Vec<VertexId>> {
    let n = plan.num_loops();
    let mut out = Vec::new();
    for_each_embedding(plan, graph, |bound| {
        let mut by_pattern_vertex = vec![0 as VertexId; n];
        for (i, &v) in bound.iter().enumerate() {
            by_pattern_vertex[plan.loops[i].pattern_vertex] = v;
        }
        out.push(by_pattern_vertex);
    });
    out
}

/// Invokes `visitor` once per embedding with the bound data vertices in
/// **schedule order** (`bound[i]` is the vertex chosen by loop `i`).
pub fn for_each_embedding<F: FnMut(&[VertexId])>(
    plan: &ExecutionPlan,
    graph: &CsrGraph,
    visitor: F,
) {
    walk(
        plan,
        ExecCtx::new(graph),
        plan.num_loops(),
        &mut FnSink(visitor),
    );
}

/// Counts embeddings that extend a fixed prefix of bound vertices (the
/// values chosen by the first `prefix.len()` loops). Used by the parallel
/// and distributed executors, whose tasks are exactly such prefixes.
///
/// Allocates fresh scratch; hot loops should hold a [`SearchBuffers`] and
/// call [`count_from_prefix_with`] instead.
pub fn count_from_prefix(plan: &ExecutionPlan, graph: &CsrGraph, prefix: &[VertexId]) -> u64 {
    let mut buffers = SearchBuffers::new(plan.num_loops());
    count_from_prefix_with(plan, ExecCtx::new(graph), prefix, &mut buffers)
}

/// Allocation-free variant of [`count_from_prefix`]: reuses the caller's
/// [`SearchBuffers`] and supports hub acceleration through the context.
pub fn count_from_prefix_with(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    prefix: &[VertexId],
    buffers: &mut SearchBuffers,
) -> u64 {
    let mut sink = CountSink::new();
    match_from_prefix_with(plan, ctx, prefix, buffers, &mut sink);
    sink.count()
}

/// The mode-generic matching entry point: explores every embedding that
/// extends `prefix` and feeds each to `sink`, stopping early once
/// [`MatchSink::is_full`] reports saturation. Returns `false` when the
/// search was cut short by a full sink.
pub fn match_from_prefix_with<S: MatchSink>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    prefix: &[VertexId],
    buffers: &mut SearchBuffers,
    sink: &mut S,
) -> bool {
    let n = plan.num_loops();
    assert!(prefix.len() <= n && !prefix.is_empty());
    if prefix.len() == n {
        sink.on_match(prefix);
        return !sink.is_full();
    }
    buffers.ensure_depth(n);
    let SearchBuffers {
        depth_bufs,
        tmp,
        words,
        stack,
    } = buffers;
    stack.clear();
    stack.extend_from_slice(prefix);
    recurse(
        plan,
        ctx,
        prefix.len(),
        n,
        stack,
        depth_bufs,
        tmp,
        words,
        sink,
    )
}

/// Enumerates every valid prefix of length `depth` (the values bound by the
/// first `depth` loops, with all restrictions and injectivity applied).
/// These prefixes are the fine-grained tasks of the distributed design
/// (Section IV-E: "the master thread executes the outer loops and packs the
/// values of the outer loops into a task").
pub fn enumerate_prefixes(
    plan: &ExecutionPlan,
    graph: &CsrGraph,
    depth: usize,
) -> Vec<Vec<VertexId>> {
    let mut result = Vec::new();
    for_each_prefix(plan, ExecCtx::new(graph), depth, |p| {
        result.push(p.to_vec())
    });
    result
}

/// Streaming variant of [`enumerate_prefixes`]: invokes `visitor` once per
/// valid prefix without materialising the task list. This is what the
/// parallel executor's master thread uses to feed workers in batches while
/// enumeration is still running.
pub fn for_each_prefix<F: FnMut(&[VertexId])>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    depth: usize,
    visitor: F,
) {
    assert!(depth >= 1 && depth <= plan.num_loops());
    walk(plan, ctx, depth, &mut FnSink(visitor));
}

/// A closure as a [`MatchSink`] that never saturates.
struct FnSink<F>(F);

impl<F: FnMut(&[VertexId])> MatchSink for FnSink<F> {
    #[inline(always)]
    fn on_match(&mut self, bound: &[VertexId]) {
        (self.0)(bound)
    }
}

/// Binds the first `target` loops in every valid way, starting from the
/// parentless outermost loop over all data vertices, and feeds each
/// binding to `sink`. `target` is the plan's loop count for whole
/// embeddings and the task depth for prefixes.
fn walk<S: MatchSink>(plan: &ExecutionPlan, ctx: ExecCtx<'_>, target: usize, sink: &mut S) {
    if target == 0 {
        return;
    }
    let mut buffers = SearchBuffers::new(plan.num_loops());
    let SearchBuffers {
        depth_bufs,
        tmp,
        words,
        stack,
    } = &mut buffers;
    for v in ctx.graph.vertices() {
        stack.push(v);
        let keep_going = if target == 1 {
            sink.on_match(stack);
            !sink.is_full()
        } else {
            recurse(plan, ctx, 1, target, stack, depth_bufs, tmp, words, sink)
        };
        stack.pop();
        if !keep_going {
            return;
        }
    }
}

/// The matching recursion: binds loop `depth` to each candidate (restriction
/// bounds and injectivity applied) and descends until `target` loops are
/// bound, feeding each complete binding to `sink`. Unwinds as soon as the
/// sink is full and returns `false` on such an early exit.
///
/// For sinks that never saturate ([`CountSink`], closures) the `is_full`
/// check is a constant `false` after monomorphisation.
#[allow(clippy::too_many_arguments)]
fn recurse<S: MatchSink>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    depth: usize,
    target: usize,
    bound: &mut Vec<VertexId>,
    buffers: &mut [Vec<VertexId>],
    tmp: &mut Vec<VertexId>,
    words: &mut Vec<u64>,
    sink: &mut S,
) -> bool {
    let (current_buf, rest) = buffers.split_first_mut().expect("buffer per depth");
    let Some((candidates, start, end)) =
        candidate_range(plan, ctx, depth, bound, current_buf, tmp, words)
    else {
        return true;
    };
    if depth + 1 == target {
        // Innermost loop: every candidate not already bound completes a
        // binding.
        for &v in &candidates[start..end] {
            if bound.contains(&v) {
                continue;
            }
            bound.push(v);
            sink.on_match(bound);
            bound.pop();
            if sink.is_full() {
                return false;
            }
        }
        return true;
    }
    for &v in &candidates[start..end] {
        if bound.contains(&v) {
            continue;
        }
        bound.push(v);
        let keep_going = recurse(plan, ctx, depth + 1, target, bound, rest, tmp, words, sink);
        bound.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

/// Materialises `∩_{v ∈ verts} N(v)` into `out`, choosing the cheapest
/// available strategy:
///
/// * no hubs among `verts` — smallest-first k-way merge/galloping
///   intersection ([`vertex_set::intersect_many_into`]);
/// * hubs and at least one non-hub — intersect the (small) non-hub lists,
///   then probe each survivor against the hub bitset rows (`O(result × k)`
///   regardless of the hubs' degrees);
/// * every parent a hub — word-AND the bitset rows and extract the set bits.
///
/// Allocation-free: `out`, `tmp` and `words` are caller-owned scratch.
pub(crate) fn intersect_neighborhoods_into(
    ctx: ExecCtx<'_>,
    verts: &[VertexId],
    out: &mut Vec<VertexId>,
    tmp: &mut Vec<VertexId>,
    words: &mut Vec<u64>,
) {
    debug_assert!(!verts.is_empty() && verts.len() <= MAX_LOOPS);
    if let Some(hubs) = ctx.hubs {
        let mut hub_vs = [0 as VertexId; MAX_LOOPS];
        let mut lists: [&[VertexId]; MAX_LOOPS] = [&[]; MAX_LOOPS];
        let (mut nh, mut nl) = (0usize, 0usize);
        for &v in verts {
            if hubs.is_hub(v) {
                hub_vs[nh] = v;
                nh += 1;
            } else {
                lists[nl] = ctx.graph.neighbors(v);
                nl += 1;
            }
        }
        match (nl, nh) {
            (0, _) => {
                hubs.and_rows_into(&hub_vs[..nh], words);
                HubGraph::extract_bits_into(words, out);
            }
            (1, _) => hubs.filter_list_into(&hub_vs[..nh], lists[0], out),
            _ => {
                vertex_set::intersect_many_into(&lists[..nl], out, tmp);
                if nh > 0 {
                    hubs.retain_adjacent_to_all(&hub_vs[..nh], out);
                }
            }
        }
    } else {
        let mut lists: [&[VertexId]; MAX_LOOPS] = [&[]; MAX_LOOPS];
        for (slot, &v) in lists.iter_mut().zip(verts) {
            *slot = ctx.graph.neighbors(v);
        }
        vertex_set::intersect_many_into(&lists[..verts.len()], out, tmp);
    }
}

/// Computes the candidate set of loop `depth` given the currently bound
/// prefix, returning the slice together with the index range that survives
/// the restriction bounds. Returns `None` when the range is empty.
///
/// The slice aliases either a CSR adjacency list (single non-hub parent) or
/// the depth's scratch buffer. Allocation-free for any parent count: the
/// multi-parent branch intersects smallest-first directly into `scratch`
/// via [`vertex_set::intersect_many_into`] (ping-ponging with `tmp`), and
/// the hub paths use bit probes or word-ANDs into `words`.
#[allow(clippy::too_many_arguments)]
fn candidate_range<'a>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'a>,
    depth: usize,
    bound: &[VertexId],
    scratch: &'a mut Vec<VertexId>,
    tmp: &mut Vec<VertexId>,
    words: &mut Vec<u64>,
) -> Option<(&'a [VertexId], usize, usize)> {
    let loop_plan = &plan.loops[depth];
    let candidates: &[VertexId] = match loop_plan.parents.len() {
        0 => {
            // Only the outermost loop may be parentless, and the driver
            // handles it; a parentless inner loop would require scanning the
            // whole vertex set, which phase-1 schedules never produce. Fall
            // back to materialising the full vertex range for generality
            // (needed when executing deliberately inefficient schedules in
            // the Figure 9 experiment).
            scratch.clear();
            scratch.extend(ctx.graph.vertices());
            scratch.as_slice()
        }
        1 => ctx.graph.neighbors(bound[loop_plan.parents[0]]),
        _ => {
            let mut verts = [0 as VertexId; MAX_LOOPS];
            for (slot, &p) in verts.iter_mut().zip(&loop_plan.parents) {
                *slot = bound[p];
            }
            intersect_neighborhoods_into(
                ctx,
                &verts[..loop_plan.parents.len()],
                scratch,
                tmp,
                words,
            );
            scratch.as_slice()
        }
    };

    // Restriction bounds: candidates must lie strictly between `lower` and
    // `upper`.
    let mut lower: Option<VertexId> = None;
    let mut upper: Option<VertexId> = None;
    for b in &loop_plan.bounds {
        match *b {
            LoopBound::LessThanValueAt(pos) => {
                let limit = bound[pos];
                upper = Some(upper.map_or(limit, |u: VertexId| u.min(limit)));
            }
            LoopBound::GreaterThanValueAt(pos) => {
                let limit = bound[pos];
                lower = Some(lower.map_or(limit, |l: VertexId| l.max(limit)));
            }
        }
    }
    let start = match lower {
        Some(l) => candidates.partition_point(|&x| x <= l),
        None => 0,
    };
    let end = match upper {
        Some(u) => candidates.partition_point(|&x| x < u),
        None => candidates.len(),
    };
    if start >= end {
        None
    } else {
        Some((candidates, start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::Schedule;
    use graphpi_graph::hub::{HubGraph, HubOptions};
    use graphpi_graph::{builder::from_edges, generators};
    use graphpi_pattern::automorphism::automorphism_count;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{
        generate_restriction_sets, GenerationOptions, RestrictionSet,
    };

    fn plan_for(
        pattern: graphpi_pattern::Pattern,
        order: Vec<usize>,
        restrictions: RestrictionSet,
    ) -> ExecutionPlan {
        let schedule = Schedule::new(&pattern, order);
        Configuration::new(pattern, schedule, restrictions).compile()
    }

    #[test]
    fn triangle_counting_without_restrictions_overcounts_by_aut() {
        let g = generators::complete(5);
        let triangle = prefab::triangle();
        let plan = plan_for(triangle.clone(), vec![0, 1, 2], RestrictionSet::empty());
        // K5 has C(5,3) = 10 triangles; each is found |Aut| = 6 times.
        assert_eq!(count_embeddings(&plan, &g), 60);

        let sets = generate_restriction_sets(&triangle, GenerationOptions::default());
        let plan = plan_for(triangle, vec![0, 1, 2], sets[0].clone());
        assert_eq!(count_embeddings(&plan, &g), 10);
    }

    #[test]
    fn rectangle_on_known_graph() {
        // Two rectangles sharing an edge: 0-1-2-3-0 and 2-3-4-5-2.
        let g = from_edges(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (2, 5)]);
        let rect = prefab::rectangle();
        let sets = generate_restriction_sets(&rect, GenerationOptions::default());
        let plan = plan_for(rect, vec![0, 1, 2, 3], sets[0].clone());
        assert_eq!(count_embeddings(&plan, &g), 2);
    }

    #[test]
    fn house_counts_match_across_all_restriction_sets_and_schedules() {
        let g = generators::power_law(150, 5, 21);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let schedules = crate::schedule::efficient_schedules(&house);
        let mut counts = std::collections::BTreeSet::new();
        for set in sets.iter().take(3) {
            for schedule in schedules.iter().take(5) {
                let plan =
                    Configuration::new(house.clone(), schedule.clone(), set.clone()).compile();
                counts.insert(count_embeddings(&plan, &g));
            }
        }
        assert_eq!(counts.len(), 1, "all configurations must agree: {counts:?}");
    }

    #[test]
    fn restricted_count_times_aut_equals_unrestricted() {
        let g = generators::erdos_renyi(80, 600, 9);
        for pattern in [prefab::triangle(), prefab::rectangle(), prefab::house()] {
            let aut = automorphism_count(&pattern) as u64;
            let order: Vec<usize> = (0..pattern.num_vertices()).collect();
            let unrestricted = count_embeddings(
                &plan_for(pattern.clone(), order.clone(), RestrictionSet::empty()),
                &g,
            );
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let restricted = count_embeddings(&plan_for(pattern, order, sets[0].clone()), &g);
            assert_eq!(restricted * aut, unrestricted);
        }
    }

    #[test]
    fn listing_respects_pattern_structure() {
        let g = generators::erdos_renyi(40, 200, 5);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house.clone(), vec![0, 1, 2, 3, 4], sets[0].clone());
        let embeddings = list_embeddings(&plan, &g);
        assert_eq!(embeddings.len() as u64, count_embeddings(&plan, &g));
        for emb in &embeddings {
            // Every pattern edge must exist between the mapped data vertices.
            for (u, v) in house.edges() {
                assert!(g.has_edge(emb[u], emb[v]), "missing edge for {emb:?}");
            }
            // Injective mapping.
            let mut distinct = emb.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), emb.len());
        }
    }

    #[test]
    fn prefix_counting_partitions_total() {
        let g = generators::power_law(200, 5, 33);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let total = count_embeddings(&plan, &g);
        for depth in 1..=2 {
            let prefixes = enumerate_prefixes(&plan, &g, depth);
            let sum: u64 = prefixes
                .iter()
                .map(|p| count_from_prefix(&plan, &g, p))
                .sum();
            assert_eq!(sum, total, "prefix depth {depth}");
        }
    }

    #[test]
    fn reused_buffers_match_fresh_buffers() {
        let g = generators::power_law(150, 5, 7);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let prefixes = enumerate_prefixes(&plan, &g, 2);
        let ctx = ExecCtx::new(&g);
        let mut buffers = SearchBuffers::new(plan.num_loops());
        for p in prefixes.iter().take(50) {
            assert_eq!(
                count_from_prefix_with(&plan, ctx, p, &mut buffers),
                count_from_prefix(&plan, &g, p),
            );
        }
    }

    #[test]
    fn streaming_prefixes_match_materialised() {
        let g = generators::power_law(120, 5, 17);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        for depth in 1..=3 {
            let materialised = enumerate_prefixes(&plan, &g, depth);
            let mut streamed = Vec::new();
            for_each_prefix(&plan, ExecCtx::new(&g), depth, |p| {
                streamed.push(p.to_vec())
            });
            assert_eq!(streamed, materialised, "depth {depth}");
        }
    }

    #[test]
    fn hub_context_counts_match_plain() {
        let g = generators::power_law(180, 5, 99);
        let hubs = HubGraph::build(
            &g,
            HubOptions {
                max_hubs: 32,
                min_degree: 4,
            },
        );
        for (name, pattern) in prefab::evaluation_patterns() {
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let schedules = crate::schedule::efficient_schedules(&pattern);
            let plan = Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile();
            assert_eq!(
                count_embeddings_in(&plan, ExecCtx::with_hubs(&hubs)),
                count_embeddings(&plan, &g),
                "{name}"
            );
        }
    }

    #[test]
    fn single_vertex_and_edge_patterns() {
        let g = generators::erdos_renyi(30, 100, 1);
        let single = graphpi_pattern::Pattern::empty(1);
        let plan = plan_for(single, vec![0], RestrictionSet::empty());
        assert_eq!(count_embeddings(&plan, &g), 30);

        let edge = graphpi_pattern::Pattern::new(2, &[(0, 1)]);
        let sets = generate_restriction_sets(&edge, GenerationOptions::default());
        let plan = plan_for(edge, vec![0, 1], sets[0].clone());
        assert_eq!(count_embeddings(&plan, &g), 100);
    }

    #[test]
    fn empty_graph_yields_zero() {
        let g = graphpi_graph::GraphBuilder::new().num_vertices(10).build();
        let plan = plan_for(prefab::triangle(), vec![0, 1, 2], RestrictionSet::empty());
        assert_eq!(count_embeddings(&plan, &g), 0);
    }

    #[test]
    fn embed_sink_matches_listing() {
        use crate::exec::sink::EmbedSink;
        let g = generators::erdos_renyi(50, 260, 6);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let total = count_embeddings(&plan, &g);
        let ctx = ExecCtx::new(&g);
        let mut buffers = SearchBuffers::new(plan.num_loops());
        for limit in [u64::MAX, (total / 2).max(1)] {
            let mut sink = EmbedSink::new(plan.num_loops(), limit);
            let mut full = false;
            for_each_prefix(&plan, ctx, 2, |prefix| {
                full = full || !match_from_prefix_with(&plan, ctx, prefix, &mut buffers, &mut sink);
            });
            // A limit stops the search early with exactly `limit` embeddings.
            assert_eq!(sink.len(), limit.min(total));
            assert_eq!(full, limit <= total);
        }
    }

    #[test]
    fn lower_bound_restrictions_also_work() {
        // Use the reversed restriction id(B) > id(A): candidates for B must
        // be greater than the bound value of A. Counts must still be exact.
        let g = generators::erdos_renyi(60, 300, 8);
        let edge = graphpi_pattern::Pattern::new(2, &[(0, 1)]);
        let reversed = RestrictionSet::from_pairs(&[(1, 0)]);
        let plan = plan_for(edge, vec![0, 1], reversed);
        assert_eq!(count_embeddings(&plan, &g), 300);
    }
}
