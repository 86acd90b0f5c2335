//! Multi-threaded execution with fine-grained prefix tasks and work
//! stealing (the intra-node half of Section IV-E), and the pieces every
//! execution shape shares.
//!
//! The paper's distributed design has a master thread execute the outermost
//! loops and pack their bound values into tasks; worker threads unpack a
//! task and run the remaining inner loops. Within one process there is one
//! runtime for that, the persistent [`WorkerPool`]: the submitting thread
//! streams depth-`d` prefixes to the workers in batches while the outer
//! loops are still running, then helps drain its own job. The one-shot
//! entry points here ([`count_parallel`], [`count_parallel_with_hubs`])
//! start a pool for the call and drop it afterwards.
//!
//! What a job does with each task is its `JobKind`: count the task's
//! embeddings (by enumeration, or as one IEP term over the independent
//! suffix, Section IV-D), or fold them into the shared state of a query
//! mode (enumeration page, per-vertex counts, sampled estimate). One
//! per-task kernel (`execute_task`) serves every kind on every thread —
//! pool workers and the caller-runs master alike — and one runner
//! (`run_degenerate`) executes the jobs that need no workers on the
//! calling thread. A job's result is therefore the same sum of the same
//! per-task terms whichever threads ran them, which is what keeps counts
//! bit-identical across thread counts, batch sizes and hub layouts.
//!
//! A task is an inline fixed-capacity [`PrefixTask`] (`Copy`, no heap), and
//! every worker reuses one `TaskScratch`, so the steady-state worker loop
//! performs **no heap allocation**.
//!
//! Hub acceleration (degree-descending relabeling + bitset rows for the
//! high-degree core, see [`graphpi_graph::hub`]) plugs in through
//! [`ParallelOptions::hub_bitsets`] or a prebuilt [`HubGraph`]; counts are
//! bit-identical with it on or off.

use crate::config::{ExecutionPlan, MAX_LOOPS};
use crate::exec::iep::{self, IepScratch};
use crate::exec::interp::{self, ExecCtx, SearchBuffers};
use crate::exec::pool::WorkerPool;
use crate::exec::sink::{sample_accepts, EmbedSink, MatchSink, ModeShared};
use graphpi_graph::csr::{CsrGraph, VertexId};
use graphpi_graph::hub::HubGraph;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of prefix tasks pushed to the injector per batch.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// A unit of parallel work: the data vertices bound by the outer loops,
/// stored inline so tasks are `Copy` and never touch the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixTask {
    len: u8,
    vertices: [VertexId; MAX_LOOPS],
}

impl PrefixTask {
    /// Packs a bound prefix (at most [`MAX_LOOPS`] vertices) into a task.
    #[inline]
    pub fn from_slice(prefix: &[VertexId]) -> Self {
        debug_assert!(prefix.len() <= MAX_LOOPS);
        let mut vertices = [0 as VertexId; MAX_LOOPS];
        vertices[..prefix.len()].copy_from_slice(prefix);
        Self {
            len: prefix.len() as u8,
            vertices,
        }
    }

    /// The bound vertices in schedule order.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.vertices[..self.len as usize]
    }
}

/// How a worker counts the embeddings of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountMode {
    /// Enumerate the remaining loops (exact listing-compatible search).
    Enumerate,
    /// Use the Inclusion-Exclusion Principle over the independent suffix.
    Iep,
}

/// Options for the parallel executor.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Number of worker threads (0 means "all available cores").
    pub threads: usize,
    /// Depth of the outer-loop prefix packed into each task. `None` picks
    /// the paper's heuristic: one loop for patterns with at most three
    /// vertices, two loops otherwise.
    pub prefix_depth: Option<usize>,
    /// Counting mode used by the workers.
    pub mode: CountMode,
    /// Number of tasks the master pushes to the injector per batch
    /// (0 = [`DEFAULT_BATCH_SIZE`]). Larger batches amortise queue traffic;
    /// smaller batches start workers earlier on tiny inputs.
    pub batch_size: usize,
    /// Build a [`HubGraph`] (degree-descending relabeling + hub bitsets)
    /// and execute against it. Prefer [`count_parallel_with_hubs`] with a
    /// cached index when counting repeatedly on the same graph.
    pub hub_bitsets: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            prefix_depth: None,
            mode: CountMode::Enumerate,
            batch_size: 0,
            hub_bitsets: false,
        }
    }
}

/// Resolves the task prefix depth for a plan following the paper's
/// heuristic ("the number of outer loops executed by the master thread
/// depends on the complexity of the pattern").
pub fn default_prefix_depth(plan: &ExecutionPlan) -> usize {
    let n = plan.num_loops();
    if n <= 3 {
        1
    } else {
        2.min(n - 1)
    }
}

/// Resolves a requested worker count (0 = all available cores).
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Counts embeddings in parallel on a pool of `options.threads` workers
/// started for this call.
pub fn count_parallel(plan: &ExecutionPlan, graph: &CsrGraph, options: ParallelOptions) -> u64 {
    WorkerPool::new(options.threads).count(plan, graph, &options)
}

/// Counts embeddings in parallel against a prebuilt hub index (the
/// `hub_bitsets` flag is ignored; the index is always used).
pub fn count_parallel_with_hubs(
    plan: &ExecutionPlan,
    hubs: &HubGraph,
    options: ParallelOptions,
) -> u64 {
    WorkerPool::new(options.threads).count_with_hubs(plan, hubs, &options)
}

/// What a job does with each of its prefix tasks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind<'a> {
    /// Count the task's embeddings into the job's raw total.
    Count(CountMode),
    /// Fold the task's embeddings into a query mode's shared state.
    Mode(&'a ModeShared),
}

impl JobKind<'_> {
    /// The count job for `mode` on `plan`. IEP with a suffix too short to
    /// replace (including a plan compiled with IEP off) degrades to
    /// enumeration, exactly like the sequential driver.
    pub(crate) fn count(plan: &ExecutionPlan, mode: CountMode) -> Self {
        let k = plan.iep_suffix_len;
        if mode == CountMode::Iep && k >= 2 && plan.num_loops() > k {
            JobKind::Count(CountMode::Iep)
        } else {
            JobKind::Count(CountMode::Enumerate)
        }
    }

    /// `true` once further tasks cannot change the result (an enumeration
    /// whose budget is fully claimed), so the producer may stop streaming.
    pub(crate) fn is_saturated(&self) -> bool {
        matches!(self, JobKind::Mode(shared) if shared.enumeration_full())
    }

    /// Turns a job's raw total into its embedding count: IEP totals are
    /// divided by the plan's redundancy divisor.
    pub(crate) fn finalize(&self, raw: u128, plan: &ExecutionPlan) -> u64 {
        let divisor = match self {
            JobKind::Count(CountMode::Iep) => plan.iep_divisor,
            _ => 1,
        };
        iep::divide_raw_total(raw, divisor)
    }
}

/// How a job must execute: the single source of truth for degenerate
/// depths, shared by every entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecPath {
    /// The plan has no loops; the result is empty.
    Empty,
    /// The prefixes are already full embeddings; run them on the calling
    /// thread without queueing anything.
    MasterOnly {
        /// The (full) prefix depth.
        depth: usize,
    },
    /// The real parallel job: stream depth-`depth` prefixes to workers.
    Tasks {
        /// Task prefix depth.
        depth: usize,
        /// Tasks per injector batch.
        batch_size: usize,
    },
}

/// Resolves how a job of `kind` on `plan` must execute under `options`.
pub(crate) fn resolve_path(
    plan: &ExecutionPlan,
    options: &ParallelOptions,
    kind: JobKind<'_>,
) -> ExecPath {
    let n = plan.num_loops();
    if n == 0 {
        return ExecPath::Empty;
    }
    let depth = match kind {
        // IEP replaces exactly the innermost `iep_suffix_len` loops, so a
        // task must bind every outer loop: the candidate sets of the suffix
        // vertices reference parents anywhere in the outer prefix.
        JobKind::Count(CountMode::Iep) => n - plan.iep_suffix_len,
        _ => options
            .prefix_depth
            .unwrap_or_else(|| default_prefix_depth(plan))
            .clamp(1, n),
    };
    if depth == n {
        return ExecPath::MasterOnly { depth };
    }
    let batch_size = if options.batch_size == 0 {
        DEFAULT_BATCH_SIZE
    } else {
        options.batch_size
    };
    ExecPath::Tasks { depth, batch_size }
}

/// Executes the non-task [`ExecPath`] variants on the calling thread,
/// returning the raw total. Returns `None` for [`ExecPath::Tasks`], which
/// needs workers.
pub(crate) fn run_degenerate(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    path: ExecPath,
    kind: JobKind<'_>,
) -> Option<u128> {
    match path {
        ExecPath::Empty => Some(0),
        ExecPath::MasterOnly { depth } => {
            // Every depth-`depth` prefix is a full embedding; feed each
            // through the shared per-task kernel (prefix == embedding).
            let mut scratch = TaskScratch::default();
            let mut raw = 0u128;
            interp::for_each_prefix(plan, ctx, depth, |prefix| {
                raw += execute_task(plan, ctx, kind, prefix, &mut scratch);
            });
            Some(raw)
        }
        ExecPath::Tasks { .. } => None,
    }
}

/// The reusable per-thread scratch of [`execute_task`]: created once per
/// worker (and per pool lane for the master) and reused for every task.
#[derive(Debug)]
pub(crate) struct TaskScratch {
    buffers: SearchBuffers,
    iep: IepScratch,
}

impl Default for TaskScratch {
    fn default() -> Self {
        Self {
            buffers: SearchBuffers::new(MAX_LOOPS),
            iep: IepScratch::new(),
        }
    }
}

/// The per-task kernel every thread runs for every job: executes one prefix
/// task of a `kind` job and returns its contribution to the job's raw total
/// (0 for mode jobs, whose results go to their [`ModeShared`]).
///
/// Mode work accumulates locally (a page of embeddings, relaxed per-vertex
/// adds, one sample decision) and merges under at most one brief lock per
/// task, so concurrent workers never serialise on the match loop itself.
pub(crate) fn execute_task(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    kind: JobKind<'_>,
    prefix: &[VertexId],
    scratch: &mut TaskScratch,
) -> u128 {
    let buffers = &mut scratch.buffers;
    match kind {
        JobKind::Count(CountMode::Enumerate) => {
            u128::from(interp::count_from_prefix_with(plan, ctx, prefix, buffers))
        }
        JobKind::Count(CountMode::Iep) => iep::iep_term_with(plan, ctx, prefix, &mut scratch.iep),
        JobKind::Mode(ModeShared::Enumerate {
            limit,
            claimed,
            out,
        }) => {
            if claimed.load(Ordering::Relaxed) >= *limit {
                return 0; // budget exhausted: drain remaining tasks cheaply
            }
            let mut local = EmbedSink::new(plan.num_loops(), u64::MAX);
            // Claim budget per embedding: only claims below the limit
            // record, so at most `limit` embeddings are kept globally and
            // the first over-limit claim stops this task's search.
            interp::match_from_prefix_with(
                plan,
                ctx,
                prefix,
                buffers,
                &mut ClaimingEmbed {
                    inner: &mut local,
                    claimed,
                    limit: *limit,
                    full: false,
                },
            );
            if !local.is_empty() {
                out.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend_from_slice(local.vertices());
            }
            0
        }
        JobKind::Mode(ModeShared::Orbit { counts }) => {
            interp::match_from_prefix_with(plan, ctx, prefix, buffers, &mut SharedOrbit { counts });
            0
        }
        JobKind::Mode(ModeShared::Sample { seed, rate, accum }) => {
            let accepted = sample_accepts(*seed, *rate, prefix);
            let y = if accepted {
                interp::count_from_prefix_with(plan, ctx, prefix, buffers)
            } else {
                0
            };
            let mut accum = accum
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            accum.total += 1;
            if accepted {
                accum.record(y);
            }
            0
        }
    }
}

/// An [`EmbedSink`] wrapper that claims from a job-global budget before
/// recording, so concurrent workers collectively record exactly `limit`
/// embeddings.
struct ClaimingEmbed<'a> {
    inner: &'a mut EmbedSink,
    claimed: &'a AtomicU64,
    limit: u64,
    full: bool,
}

impl MatchSink for ClaimingEmbed<'_> {
    #[inline]
    fn on_match(&mut self, embedding: &[VertexId]) {
        if self.claimed.fetch_add(1, Ordering::Relaxed) < self.limit {
            self.inner.on_match(embedding);
        } else {
            self.full = true;
        }
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.full
    }
}

/// Per-vertex participation counts over the job's shared atomic counters
/// (relaxed adds: the final counts are order-free sums).
struct SharedOrbit<'a> {
    counts: &'a [AtomicU64],
}

impl MatchSink for SharedOrbit<'_> {
    #[inline]
    fn on_match(&mut self, embedding: &[VertexId]) {
        for &v in embedding {
            self.counts[v as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::{efficient_schedules, Schedule};
    use graphpi_graph::generators;
    use graphpi_graph::hub::HubOptions;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{
        generate_restriction_sets, GenerationOptions, RestrictionSet,
    };

    fn plan_for(pattern: graphpi_pattern::Pattern) -> ExecutionPlan {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
    }

    #[test]
    fn parallel_matches_sequential_enumeration() {
        let g = generators::power_law(220, 5, 5);
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(4) {
            let plan = plan_for(pattern);
            let sequential = interp::count_embeddings(&plan, &g);
            for threads in [1, 2, 4] {
                let parallel = count_parallel(
                    &plan,
                    &g,
                    ParallelOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(parallel, sequential, "{name} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_iep_matches_sequential_iep() {
        let g = generators::power_law(250, 5, 6);
        for pattern in [prefab::house(), prefab::p2(), prefab::cycle_6_tri()] {
            let plan = plan_for(pattern);
            let expected = iep::count_embeddings_iep(&plan, &g);
            let got = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 4,
                    mode: CountMode::Iep,
                    ..Default::default()
                },
            );
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn prefix_depth_options_do_not_change_counts() {
        let g = generators::erdos_renyi(150, 900, 10);
        let plan = plan_for(prefab::house());
        let baseline = interp::count_embeddings(&plan, &g);
        for depth in 1..=3usize {
            let got = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 3,
                    prefix_depth: Some(depth),
                    ..Default::default()
                },
            );
            assert_eq!(got, baseline, "prefix depth {depth}");
        }
    }

    #[test]
    fn batch_sizes_do_not_change_counts() {
        let g = generators::power_law(200, 5, 77);
        let plan = plan_for(prefab::rectangle());
        let baseline = interp::count_embeddings(&plan, &g);
        for batch_size in [1, 3, 64, 4096] {
            let got = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 4,
                    batch_size,
                    ..Default::default()
                },
            );
            assert_eq!(got, baseline, "batch size {batch_size}");
        }
    }

    #[test]
    fn hub_bitsets_do_not_change_counts() {
        let g = generators::power_law(250, 6, 31);
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(4) {
            let plan = plan_for(pattern);
            let plain = interp::count_embeddings(&plan, &g);
            let hubbed = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 4,
                    hub_bitsets: true,
                    ..Default::default()
                },
            );
            assert_eq!(hubbed, plain, "{name}");
        }
    }

    #[test]
    fn prebuilt_hub_index_matches_plain() {
        let g = generators::power_law(200, 6, 13);
        let hubs = HubGraph::build(&g, HubOptions::default());
        for mode in [CountMode::Enumerate, CountMode::Iep] {
            let plan = plan_for(prefab::house());
            let plain = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 3,
                    mode,
                    ..Default::default()
                },
            );
            let hubbed = count_parallel_with_hubs(
                &plan,
                &hubs,
                ParallelOptions {
                    threads: 3,
                    mode,
                    ..Default::default()
                },
            );
            assert_eq!(hubbed, plain, "{mode:?}");
        }
    }

    #[test]
    fn triangle_uses_single_loop_tasks() {
        let plan = plan_for(prefab::triangle());
        assert_eq!(default_prefix_depth(&plan), 1);
        let g = generators::erdos_renyi(100, 700, 2);
        let got = count_parallel(&plan, &g, ParallelOptions::default());
        assert_eq!(got, interp::count_embeddings(&plan, &g));
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = graphpi_graph::GraphBuilder::new().num_vertices(50).build();
        let plan = plan_for(prefab::house());
        assert_eq!(count_parallel(&plan, &g, ParallelOptions::default()), 0);
    }

    #[test]
    fn prefix_task_roundtrips() {
        let task = PrefixTask::from_slice(&[5, 9, 2]);
        assert_eq!(task.as_slice(), &[5, 9, 2]);
        let empty = PrefixTask::from_slice(&[]);
        assert_eq!(empty.as_slice(), &[] as &[VertexId]);
    }

    #[test]
    fn unrestricted_iep_fallback_in_parallel_api() {
        // A configuration without an exact IEP divisor compiles with IEP
        // off; an IEP request through the parallel API then enumerates and
        // returns exactly the sequential count.
        let g = generators::erdos_renyi(120, 600, 4);
        let pattern = prefab::path_pattern(5);
        let schedule = Schedule::new(&pattern, vec![2, 1, 3, 0, 4]);
        let restrictions = RestrictionSet::from_pairs(&[(2, 1)]);
        let plan = Configuration::new(pattern.clone(), schedule, restrictions).compile();
        assert_eq!(plan.iep_suffix_len, 0);
        let expected = interp::count_embeddings(&plan, &g);
        assert_eq!(iep::count_embeddings_iep(&plan, &g), expected);
        let got = count_parallel(
            &plan,
            &g,
            ParallelOptions {
                threads: 2,
                mode: CountMode::Iep,
                ..Default::default()
            },
        );
        assert_eq!(got, expected);
    }
}
