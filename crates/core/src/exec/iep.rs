//! Embedding counting with the Inclusion-Exclusion Principle
//! (Section IV-D and Algorithm 2 of the paper).
//!
//! When only the *number* of embeddings is needed and the last `k` scheduled
//! pattern vertices are pairwise non-adjacent, the innermost `k` loops never
//! perform intersections — they only enumerate. Instead of enumerating,
//! GraphPi computes, for every binding of the outer `n - k` loops, the
//! number of ways to choose `k` pairwise-distinct vertices
//! `(e_1, …, e_k)` with `e_i ∈ S_i`, where `S_i` is the candidate set of the
//! `i`-th suffix vertex. That number is obtained by inclusion–exclusion over
//! the "some pair equal" events; each term factors over the connected
//! components of the equality-pair graph (Algorithm 2) into a product of
//! intersection cardinalities.
//!
//! Restrictions enforced in the suffix loops are dropped by this
//! transformation, so the grand total over-counts by the number of pattern
//! automorphisms the *remaining* restrictions fail to eliminate; the final
//! count is divided by that factor ([`ExecutionPlan::iep_divisor`]). A
//! configuration for which that factor differs between subgraphs has no
//! exact divisor and compiles with IEP off (`iep_suffix_len == 0`), so
//! every driver here simply enumerates it.
//!
//! Terms and totals are 128-bit: one prefix's term is a product of up to
//! six candidate-set sizes, which passes 64 bits at a few thousand
//! candidates. The final count is converted back with a checked
//! conversion that panics rather than return a wrong number.
//!
//! Like the enumeration kernel, the per-prefix IEP term is allocation-free
//! in steady state: every pool worker keeps one [`IepScratch`] and calls
//! [`iep_term_with`] per task, with all candidate sets, intermediates, and
//! the inclusion–exclusion bookkeeping living in reused buffers or on the
//! stack.

use crate::config::{ExecutionPlan, MAX_LOOPS};
use crate::exec::interp::{self, ExecCtx};
use graphpi_graph::csr::{CsrGraph, VertexId};

/// Largest IEP suffix supported (bounded by `2^(k(k-1)/2)` inclusion–
/// exclusion terms; 6 keeps the term count at 2^15).
pub const MAX_IEP_SUFFIX: usize = 6;

/// Reusable scratch for [`iep_term_with`]: the per-suffix-vertex candidate
/// sets plus the intersection buffers. Create once per worker and reuse
/// across tasks.
#[derive(Debug, Default)]
pub struct IepScratch {
    /// Candidate set of each suffix vertex.
    sets: Vec<Vec<VertexId>>,
    /// Materialisation buffer for subset intersections.
    inter: Vec<VertexId>,
    /// Ping-pong scratch for k-way intersections.
    tmp: Vec<VertexId>,
    /// Bitset scratch for all-hub intersections.
    words: Vec<u64>,
}

impl IepScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, k: usize) {
        if self.sets.len() < k {
            self.sets.resize_with(k, Vec::new);
        }
    }
}

/// Counts embeddings using IEP over the innermost `plan.iep_suffix_len`
/// loops. Falls back to plain enumeration when the suffix is shorter than 2
/// (there is nothing to gain, or the plan was compiled with IEP off) or
/// when the plan has a single loop.
pub fn count_embeddings_iep(plan: &ExecutionPlan, graph: &CsrGraph) -> u64 {
    count_embeddings_iep_in(plan, ExecCtx::new(graph))
}

/// Context-explicit IEP driver (plain or hub-accelerated; the count is the
/// same).
pub fn count_embeddings_iep_in(plan: &ExecutionPlan, ctx: ExecCtx<'_>) -> u64 {
    let k = plan.iep_suffix_len;
    let n = plan.num_loops();
    if k < 2 || n <= k {
        return interp::count_embeddings_in(plan, ctx);
    }
    let mut scratch = IepScratch::new();
    let mut raw: u128 = 0;
    interp::for_each_prefix(plan, ctx, n - k, |prefix| {
        raw += iep_term_with(plan, ctx, prefix, &mut scratch);
    });
    divide_raw_total(raw, plan.iep_divisor)
}

/// Divides a raw IEP grand total by the plan's redundancy divisor.
///
/// # Panics
///
/// When the quotient does not fit a `u64`: a wrong count is never
/// returned.
pub(crate) fn divide_raw_total(raw: u128, divisor: u64) -> u64 {
    debug_assert!(divisor >= 1);
    let count = raw / u128::from(divisor);
    u64::try_from(count).unwrap_or_else(|_| panic!("embedding count {count} does not fit in a u64"))
}

/// Counts embeddings (before dividing by the redundancy factor) contributed
/// by a single outer-loop prefix. Exposed for the parallel executor.
///
/// Allocates fresh scratch; hot loops should hold an [`IepScratch`] and
/// call [`iep_term_with`] instead.
pub fn iep_term(plan: &ExecutionPlan, graph: &CsrGraph, prefix: &[VertexId]) -> u128 {
    let mut scratch = IepScratch::new();
    iep_term_with(plan, ExecCtx::new(graph), prefix, &mut scratch)
}

/// Allocation-free variant of [`iep_term`]: reuses the caller's
/// [`IepScratch`] and supports hub acceleration through the context.
pub fn iep_term_with(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    prefix: &[VertexId],
    scratch: &mut IepScratch,
) -> u128 {
    let n = plan.num_loops();
    let k = n - prefix.len();
    debug_assert!(k >= 1);
    scratch.ensure(k);

    // Candidate set of each suffix vertex: intersection of the neighborhoods
    // of its bound pattern neighbors, minus the already bound vertices.
    for (idx, depth) in (prefix.len()..n).enumerate() {
        let loop_plan = &plan.loops[depth];
        let set = &mut scratch.sets[idx];
        if loop_plan.parents.is_empty() {
            set.clear();
            set.extend(ctx.graph().vertices());
        } else {
            let mut verts = [0 as VertexId; MAX_LOOPS];
            for (slot, &p) in verts.iter_mut().zip(&loop_plan.parents) {
                *slot = prefix[p];
            }
            interp::intersect_neighborhoods_into(
                ctx,
                &verts[..loop_plan.parents.len()],
                set,
                &mut scratch.tmp,
                &mut scratch.words,
            );
        }
        // In-place subtraction of the bound prefix (tiny exclusion list).
        set.retain(|v| !prefix.contains(v));
    }
    count_distinct_tuples_with(&scratch.sets[..k], &mut scratch.inter, &mut scratch.tmp)
}

/// Number of ordered tuples `(e_1, …, e_k)` with `e_i ∈ sets[i]` and all
/// entries pairwise distinct, computed by inclusion–exclusion over equality
/// pairs with the per-component factorisation of Algorithm 2.
///
/// The result and the terms are 128-bit: a single term is a product of up
/// to six set sizes, which overflows 64 bits already at a few thousand
/// candidates (six leaves of a 1600-leaf star give 1600^6 ≈ 1.7 · 10^19).
pub fn count_distinct_tuples(sets: &[Vec<VertexId>]) -> u128 {
    let mut inter = Vec::new();
    let mut tmp = Vec::new();
    count_distinct_tuples_with(sets, &mut inter, &mut tmp)
}

/// Buffer-reusing core of [`count_distinct_tuples`]: all bookkeeping
/// (subset cardinalities, equality pairs, union–find) lives on the stack;
/// only the subset intersections touch the two scratch buffers.
pub fn count_distinct_tuples_with(
    sets: &[Vec<VertexId>],
    inter: &mut Vec<VertexId>,
    tmp: &mut Vec<VertexId>,
) -> u128 {
    let k = sets.len();
    assert!(k >= 1, "need at least one candidate set");
    assert!(
        k <= MAX_IEP_SUFFIX,
        "IEP suffix larger than {MAX_IEP_SUFFIX} is not supported"
    );
    if k == 1 {
        return sets[0].len() as u128;
    }

    // Cardinality of the intersection of every subset of the candidate
    // sets, indexed by bitmask (2^k <= 64 entries, on the stack).
    let mut subset_card = [0i128; 1 << MAX_IEP_SUFFIX];
    for mask in 1usize..(1 << k) {
        if mask.count_ones() == 1 {
            subset_card[mask] = sets[mask.trailing_zeros() as usize].len() as i128;
        } else {
            let mut slices: [&[VertexId]; MAX_IEP_SUFFIX] = [&[]; MAX_IEP_SUFFIX];
            let mut m = 0usize;
            for (i, set) in sets.iter().enumerate().take(k) {
                if mask & (1 << i) != 0 {
                    slices[m] = set.as_slice();
                    m += 1;
                }
            }
            graphpi_graph::vertex_set::intersect_many_into(&slices[..m], inter, tmp);
            subset_card[mask] = inter.len() as i128;
        }
    }

    // Pigeonhole: `k` distinct entries need at least `k` vertices in the
    // union of the sets (inclusion–exclusion over the subset cardinalities
    // above). This skips the pair loop below for prefixes whose suffix
    // candidates collapse onto a few vertices, like the leaves of a star.
    let union_size: i128 = (1usize..1 << k)
        .map(|mask| {
            if mask.count_ones() % 2 == 1 {
                subset_card[mask]
            } else {
                -subset_card[mask]
            }
        })
        .sum();
    if union_size < k as i128 {
        return 0;
    }

    // All unordered pairs (i, j), i < j.
    let mut pairs = [(0usize, 0usize); MAX_IEP_SUFFIX * (MAX_IEP_SUFFIX - 1) / 2];
    let mut num_pairs = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            pairs[num_pairs] = (i, j);
            num_pairs += 1;
        }
    }

    let mut total: i128 = 0;
    for pair_mask in 0usize..(1 << num_pairs) {
        let negative = pair_mask.count_ones() % 2 == 1;
        // Algorithm 2: union-find the suffix vertices along the selected
        // equality pairs, then multiply the intersection cardinalities of
        // the resulting components.
        let mut parent = [0usize; MAX_IEP_SUFFIX];
        for (i, slot) in parent.iter_mut().enumerate().take(k) {
            *slot = i;
        }
        for (bit, &(i, j)) in pairs[..num_pairs].iter().enumerate() {
            if pair_mask & (1 << bit) != 0 {
                union(&mut parent, i, j);
            }
        }
        let mut component_mask = [0usize; MAX_IEP_SUFFIX];
        for v in 0..k {
            component_mask[find(&mut parent, v)] |= 1 << v;
        }
        let mut product: i128 = 1;
        for v in 0..k {
            if find(&mut parent, v) == v {
                product = product
                    .checked_mul(subset_card[component_mask[v]])
                    .expect("IEP term overflows 128 bits");
                if product == 0 {
                    break;
                }
            }
        }
        total = if negative {
            total.checked_sub(product)
        } else {
            total.checked_add(product)
        }
        .expect("IEP sum overflows 128 bits");
    }
    u128::try_from(total).expect("a tuple count is never negative")
}

fn find(parent: &mut [usize], x: usize) -> usize {
    if parent[x] != x {
        let root = find(parent, parent[x]);
        parent[x] = root;
    }
    parent[x]
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        parent[ra] = rb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::{efficient_schedules, Schedule};
    use graphpi_graph::generators;
    use graphpi_graph::hub::{HubGraph, HubOptions};
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{
        generate_restriction_sets, GenerationOptions, RestrictionSet,
    };

    #[test]
    fn distinct_tuple_counting_small_cases() {
        // Two disjoint sets: all pairs are distinct.
        assert_eq!(count_distinct_tuples(&[vec![1, 2], vec![3, 4]]), 4);
        // Identical sets of size 3: ordered pairs with distinct entries = 6.
        assert_eq!(count_distinct_tuples(&[vec![1, 2, 3], vec![1, 2, 3]]), 6);
        // Three identical sets of size 3: 3! = 6.
        assert_eq!(
            count_distinct_tuples(&[vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]]),
            6
        );
        // A singleton repeated twice cannot produce distinct entries.
        assert_eq!(count_distinct_tuples(&[vec![7], vec![7]]), 0);
        // Single set: its size.
        assert_eq!(count_distinct_tuples(&[vec![1, 2, 3, 4]]), 4);
        // Empty set anywhere: zero.
        assert_eq!(count_distinct_tuples(&[vec![], vec![1, 2]]), 0);
    }

    #[test]
    fn distinct_tuple_counting_matches_bruteforce() {
        // Randomised cross-check against explicit enumeration.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let k = rng.gen_range(2..=4usize);
            let sets: Vec<Vec<VertexId>> = (0..k)
                .map(|_| {
                    let mut s: Vec<VertexId> = (0..rng.gen_range(0..8u32))
                        .filter(|_| rng.gen_bool(0.6))
                        .collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let expected = brute_force_distinct(&sets);
            assert_eq!(count_distinct_tuples(&sets), expected, "sets {sets:?}");
        }
    }

    fn brute_force_distinct(sets: &[Vec<VertexId>]) -> u128 {
        fn rec(sets: &[Vec<VertexId>], chosen: &mut Vec<VertexId>, i: usize) -> u128 {
            if i == sets.len() {
                return 1;
            }
            let mut total = 0;
            for &v in &sets[i] {
                if !chosen.contains(&v) {
                    chosen.push(v);
                    total += rec(sets, chosen, i + 1);
                    chosen.pop();
                }
            }
            total
        }
        rec(sets, &mut Vec::new(), 0)
    }

    fn best_effort_plan(pattern: graphpi_pattern::Pattern) -> crate::config::ExecutionPlan {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
    }

    #[test]
    fn iep_matches_enumeration_on_house() {
        let g = generators::power_law(220, 5, 77);
        let plan = best_effort_plan(prefab::house());
        assert!(plan.iep_suffix_len >= 2);
        assert_eq!(
            count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g)
        );
    }

    #[test]
    fn iep_matches_enumeration_on_all_evaluation_patterns() {
        let g = generators::power_law(120, 5, 41);
        for (name, pattern) in prefab::evaluation_patterns() {
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let schedules = efficient_schedules(&pattern);
            for (s, schedule) in schedules.iter().take(8).enumerate() {
                for (r, set) in sets.iter().take(4).enumerate() {
                    let config = Configuration::new(pattern.clone(), schedule.clone(), set.clone());
                    let plan = config.compile();
                    let k = schedule.independent_suffix_len(&pattern);
                    if k >= 2 {
                        match crate::config::uniform_iep_divisor(&config, k) {
                            Some(divisor) => {
                                assert_eq!(plan.iep_suffix_len, k, "{name} s{s} r{r}");
                                assert_eq!(plan.iep_divisor, divisor, "{name} s{s} r{r}");
                            }
                            // A non-uniform divisor never reaches IEP.
                            None => assert_eq!(plan.iep_suffix_len, 0, "{name} s{s} r{r}"),
                        }
                    }
                    assert_eq!(
                        count_embeddings_iep(&plan, &g),
                        interp::count_embeddings(&plan, &g),
                        "{name} s{s} r{r}"
                    );
                }
            }
        }
    }

    #[test]
    fn iep_matches_enumeration_on_uniform_graph() {
        let g = generators::erdos_renyi(150, 900, 13);
        for pattern in [prefab::rectangle(), prefab::cycle_6_tri(), prefab::p2()] {
            let plan = best_effort_plan(pattern);
            assert_eq!(
                count_embeddings_iep(&plan, &g),
                interp::count_embeddings(&plan, &g)
            );
        }
    }

    #[test]
    fn hub_accelerated_iep_matches_plain() {
        let g = generators::power_law(200, 6, 55);
        let hubs = HubGraph::build(
            &g,
            HubOptions {
                max_hubs: 24,
                min_degree: 4,
            },
        );
        for pattern in [prefab::house(), prefab::p2(), prefab::cycle_6_tri()] {
            let plan = best_effort_plan(pattern);
            assert_eq!(
                count_embeddings_iep_in(&plan, ExecCtx::with_hubs(&hubs)),
                count_embeddings_iep(&plan, &g)
            );
        }
    }

    #[test]
    fn iep_term_scratch_reuse_matches_fresh() {
        let g = generators::power_law(150, 5, 63);
        let plan = best_effort_plan(prefab::house());
        let outer = plan.num_loops() - plan.iep_suffix_len;
        let prefixes = interp::enumerate_prefixes(&plan, &g, outer);
        let ctx = ExecCtx::new(&g);
        let mut scratch = IepScratch::new();
        for p in prefixes.iter().take(40) {
            assert_eq!(
                iep_term_with(&plan, ctx, p, &mut scratch),
                iep_term(&plan, &g, p)
            );
        }
    }

    #[test]
    fn fallback_when_suffix_too_short() {
        // Cliques have k = 1: IEP must silently fall back to enumeration.
        let g = generators::erdos_renyi(60, 400, 3);
        let clique = prefab::clique(4);
        let sets = generate_restriction_sets(&clique, GenerationOptions::default());
        let schedule = Schedule::new(&clique, vec![0, 1, 2, 3]);
        let plan = Configuration::new(clique, schedule, sets[0].clone()).compile();
        assert_eq!(plan.iep_suffix_len, 1);
        assert_eq!(
            count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g)
        );
    }

    #[test]
    fn iep_handles_unrestricted_plans() {
        // Without restrictions the redundancy divisor equals |Aut|, and the
        // IEP count must still equal plain enumeration (which also
        // over-counts by |Aut|)... both divided consistently: enumeration
        // reports all automorphic copies, IEP divides them out of its own
        // total, so compare against enumeration / |Aut|.
        let g = generators::erdos_renyi(80, 500, 7);
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        let plan = Configuration::new(pattern.clone(), schedule, RestrictionSet::empty()).compile();
        let aut = graphpi_pattern::automorphism::automorphism_count(&pattern) as u64;
        assert_eq!(plan.iep_divisor, aut);
        assert_eq!(
            count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g) / aut
        );
    }
}
