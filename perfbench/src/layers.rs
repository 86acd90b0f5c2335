//! Per-layer metrics of a traced run.
//!
//! Each call into a layer's public functions runs inside a span, and each
//! metric is that span's duration (or a count read at the same boundary).
//! Every workload reports every metric, measured on its own graph, so a
//! change to one layer shows where it moves the end-to-end metrics and
//! where it does not (see `perfbench/README.md` for the layer → metric →
//! workload map).

use crate::inputs::{self, EdgeMirror, Edges};
use crate::load::{pings, read_once, Lane, ReadLoad};
use crate::mutate::EDGES_PER_SIDE;
use crate::serve::with_server;
use crate::trace::{self, Span, Tracer, ROOT};
use crate::util::{median, ms, quantile, secs, us, Report};
use graphpi_core::config::Configuration;
use graphpi_core::engine::{CountOptions, GraphPi, PlanCache, PlanOptions};
use graphpi_core::exec::parallel::{self, ParallelOptions};
use graphpi_core::exec::{iep, interp};
use graphpi_core::net::Client;
use graphpi_core::perf_model::{select_best, PerformanceModel};
use graphpi_core::schedule::efficient_schedules;
use graphpi_core::{DynamicEngine, WorkerPool};
use graphpi_graph::delta::DynamicGraph;
use graphpi_graph::vertex_set;
use graphpi_graph::wal::{DurableGraph, DurableGraphOptions};
use graphpi_graph::{generators, CsrGraph, EdgeBatch, GraphStats};
use graphpi_pattern::prefab;
use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untraced and traced slices of a traced run's window, each; they
/// alternate, so a drift in the shared host's speed during the run biases
/// neither side of the tracing-overhead comparison.
const TRACE_SLICES: usize = 4;

/// Runs `run(tracer, seconds)` on alternating untraced and traced slices
/// that together last `seconds`; returns the untraced and traced results.
pub fn alternate<T>(
    seconds: f64,
    tracer: &Tracer,
    mut run: impl FnMut(&Tracer, f64) -> T,
) -> (Vec<T>, Vec<T>) {
    let off = Tracer::new(false);
    let slice = seconds / (2 * TRACE_SLICES) as f64;
    (0..TRACE_SLICES)
        .map(|_| (run(&off, slice), run(tracer, slice)))
        .unzip()
}

/// Root spans of the workload loops: one pass, read or write each.
const LOOP_ROOTS: [&str; 3] = ["mine.pass", "net.count", "net.update"];

/// Span-name groups whose self time the attribution shares report.
const ATTRIBUTION: [(&str, &str); 5] = [
    ("attr.plan_share", "session.plan."),
    ("attr.exec_share", "session.exec."),
    ("attr.net_share", "net.count"),
    ("attr.server_exec_share", "net.server_exec"),
    ("attr.update_share", "net.update"),
];

/// Metrics of the workload loop itself: load time, tracing overhead (the
/// traced slices against the untraced ones) and where the traced window's
/// time went, as shares of the loop's root-span time. `spans` holds the
/// traced window's spans and may hold others, which are left out.
pub fn report_loop(
    report: &mut Report,
    loads: &[Duration],
    untraced: Lane,
    traced: Lane,
    spans: &[Span],
) {
    report.absorb(&untraced);
    report.absorb(&traced);
    let loads: Vec<f64> = loads.iter().copied().map(secs).collect();
    report.metric("graph.io.load_s", median(&loads), "s");
    let qps = |lane: &Lane| lane.reads() as f64 / lane.elapsed.as_secs_f64();
    report.metric(
        "trace.pass_overhead_pct",
        (median(&traced.passes_s) / median(&untraced.passes_s) - 1.0) * 100.0,
        "%",
    );
    report.metric(
        "trace.qps_overhead_pct",
        (1.0 - qps(&traced) / qps(&untraced)) * 100.0,
        "%",
    );

    let own = trace::self_seconds_by_name(spans);
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent == ROOT && LOOP_ROOTS.iter().any(|r| s.name.starts_with(r)))
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    for (metric, prefix) in ATTRIBUTION {
        let time: f64 = own
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t)
            .fold(0.0, |sum, t| sum + t);
        report.metric(metric, time / roots.max(1e-12), "ratio");
    }
}

/// Plan-cache hits over all lookups, from `(hits, misses)`.
pub fn plan_hit_ratio(report: &mut Report, (hits, misses): (u64, u64)) {
    report.metric(
        "session.plan_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
}

/// Remote-read costs from `net.count.<mix>` spans and their `net.server_exec`
/// children: the server's execution time, the rest of the client's wait
/// (the `net.count` self time), and the bare `PING` round trip.
pub fn net_metrics(report: &mut Report, spans: &[Span]) {
    let own = trace::self_times(spans);
    let pick = |name: &str, self_time: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name.starts_with(name))
            .map(|s| if self_time { own[&s.id] } else { s.duration_ns() } as f64 / 1e3)
            .collect()
    };
    report.metric(
        "net.server_exec_us",
        median(&pick("net.server_exec", false)),
        "us",
    );
    report.metric(
        "net.outside_exec_us",
        median(&pick("net.count", true)),
        "us",
    );
    report.metric("net.ping_us", median(&pick("net.ping", false)), "us");
}

/// `mine` has no server; this prices the net layer on its graph with a
/// loopback server and one connection sending the serving mix.
pub fn net_probe(
    report: &mut Report,
    tracer: &Tracer,
    engine: &GraphPi,
    seed: u64,
) -> Result<(), String> {
    let mark = tracer.snapshot().len();
    let mix = inputs::mix();
    let reads = ReadLoad {
        mix: &mix,
        sequence: &inputs::mix_sequence(seed, crate::serve::MIX_ROUNDS),
        offset: 0,
        expected: None,
    };
    let mut lane = Lane::default();
    let outcome = with_server(
        |server| server.serve(engine),
        |addr| {
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            for (_, p) in &mix {
                client
                    .count(p)
                    .map_err(|e| format!("net probe warm-up: {e}"))?;
            }
            for i in 0..4 * reads.sequence.len() {
                read_once(&reads, i, &mut client, tracer, &mut lane);
            }
            pings(&mut client, crate::serve::PINGS, tracer, &mut lane);
            Ok(())
        },
    );
    report.absorb(&lane);
    net_metrics(report, &tracer.snapshot()[mark..]);
    outcome
}

/// Runs the layer probes on a workload's graph.
pub fn probe_all(
    report: &mut Report,
    tracer: &Tracer,
    graph: &CsrGraph,
    pool: &Arc<WorkerPool>,
    work: &Path,
    seed: u64,
) -> Result<(), String> {
    let stats: Vec<f64> = (0..5)
        .map(|_| {
            secs(
                tracer
                    .timed("graph.stats.compute", ROOT, 0, |_| {
                        black_box(GraphStats::compute(graph))
                    })
                    .1,
            )
        })
        .collect();
    report.metric("graph.stats.compute_s", median(&stats), "s");
    let engine = GraphPi::new(graph.clone());
    patterns(report, tracer, &engine, pool)?;
    p6_schedules(report, tracer, &engine)?;
    intersections(report, tracer, graph);
    pool_overhead(report, tracer, pool)?;
    sessions(report, tracer, &engine, pool)?;
    dynamic(report, tracer, graph, work, seed)
}

/// Planner and executor layers for P1–P6: restriction and schedule
/// generation, whole planning, and the chosen plan run four ways — the
/// default pooled path, sequential IEP, sequential enumeration, and one
/// timed `count_from_prefix` per prefix task. All counts must agree.
fn patterns(
    report: &mut Report,
    tracer: &Tracer,
    engine: &GraphPi,
    pool: &Arc<WorkerPool>,
) -> Result<(), String> {
    let graph = engine.graph();
    let (mut sequential_iep, mut pooled) = (0.0, 0.0);
    for (request, (name, pattern)) in prefab::evaluation_patterns().into_iter().enumerate() {
        let request = request as u64 + 1;
        let (_, restriction) = tracer.timed(
            &format!("pattern.restriction.gen.{name}"),
            ROOT,
            request,
            |_| {
                black_box(generate_restriction_sets(
                    &pattern,
                    GenerationOptions::default(),
                ))
            },
        );
        let (_, schedule) =
            tracer.timed(&format!("core.schedule.gen.{name}"), ROOT, request, |_| {
                black_box(efficient_schedules(&pattern))
            });
        let (plan, planning) = tracer.timed(&format!("plan.total.{name}"), ROOT, request, |_| {
            engine.plan(&pattern, PlanOptions::default())
        });
        let plan = plan.map_err(|e| format!("plan {name}: {e}"))?;
        report.metric(
            format!("pattern.restriction.gen_s.{name}"),
            secs(restriction),
            "s",
        );
        report.metric(format!("core.schedule.gen_s.{name}"), secs(schedule), "s");
        report.metric(format!("plan.total_s.{name}"), secs(planning), "s");
        report.metric(
            format!("plan.candidates.{name}"),
            plan.candidates_considered as f64,
            "count",
        );

        let plan = &plan.plan;
        let session = engine.session_shared(
            Arc::clone(pool),
            Arc::new(PlanCache::new(1)),
            PlanOptions::default(),
            CountOptions::default(),
        );
        let (default, t_default) =
            tracer.timed(&format!("exec.count.{name}"), ROOT, request, |_| {
                session.execute_count(plan)
            });
        let (by_iep, t_iep) = tracer.timed(&format!("exec.iep.{name}"), ROOT, request, |_| {
            iep::count_embeddings_iep(plan, graph)
        });
        let (by_enum, t_enum) = tracer.timed(&format!("exec.enum.{name}"), ROOT, request, |_| {
            interp::count_embeddings(plan, graph)
        });
        let depth = parallel::default_prefix_depth(plan);
        let (task_times, by_tasks) =
            tracer.span(&format!("exec.tasks.{name}"), ROOT, request, |_| {
                let mut times = Vec::new();
                let mut total = 0u64;
                for prefix in interp::enumerate_prefixes(plan, graph, depth) {
                    let t = Instant::now();
                    total += interp::count_from_prefix(plan, graph, &prefix);
                    times.push(us(t.elapsed()));
                }
                (times, total)
            });
        for (path, count) in [
            ("sequential IEP", by_iep),
            ("enumeration", by_enum),
            ("prefix tasks", by_tasks),
        ] {
            if count != default {
                report.mismatch(format!(
                    "{name}: {path} count {count} != default path {default}"
                ));
            }
        }
        report.metric(format!("exec.count_s.{name}"), secs(t_default), "s");
        report.metric(format!("exec.iep_s.{name}"), secs(t_iep), "s");
        report.metric(format!("exec.enum_s.{name}"), secs(t_enum), "s");
        report.metric(
            format!("exec.tasks.{name}"),
            task_times.len() as f64,
            "count",
        );
        report.metric(
            format!("exec.task_p50_us.{name}"),
            median(&task_times),
            "us",
        );
        report.metric(
            format!("exec.task_max_us.{name}"),
            task_times.iter().copied().fold(0.0, f64::max),
            "us",
        );
        sequential_iep += secs(t_iep);
        pooled += secs(t_default);
    }
    // Sequential IEP time over (workers x pooled time): 1.0 is a perfect
    // speed-up of the default path.
    report.metric(
        "exec.parallel_eff",
        sequential_iep / (pool.threads() as f64 * pooled),
        "ratio",
    );
    Ok(())
}

/// How good the model's P6 choice is: sequential enumeration time of the
/// chosen plan against the fastest of the first 12 schedules, each with
/// the restriction set the model ranks best for it.
fn p6_schedules(report: &mut Report, tracer: &Tracer, engine: &GraphPi) -> Result<(), String> {
    let graph = engine.graph();
    let p6 = prefab::p6();
    let chosen = engine
        .plan(&p6, PlanOptions::default())
        .map_err(|e| format!("plan P6: {e}"))?;
    let (expected, t_chosen) = tracer.timed("exec.sched.chosen.P6", ROOT, 0, |_| {
        interp::count_embeddings(&chosen.plan, graph)
    });
    let mut sets = generate_restriction_sets(&p6, GenerationOptions::default());
    sets.sort_by_key(|s| s.len());
    sets.truncate(PlanOptions::default().max_restriction_sets);
    let model = PerformanceModel::new(*engine.stats(), p6.num_vertices());
    let mut best = f64::INFINITY;
    for (i, schedule) in efficient_schedules(&p6).into_iter().take(12).enumerate() {
        let configs: Vec<Configuration> = sets
            .iter()
            .map(|set| Configuration::new(p6.clone(), schedule.clone(), set.clone()))
            .collect();
        let (pick, _) = select_best(&model, &configs);
        let plan = configs[pick].compile_with_iep(true);
        let (count, t) = tracer.timed(&format!("exec.sched.{i}.P6"), ROOT, 0, |_| {
            interp::count_embeddings(&plan, graph)
        });
        if count != expected {
            report.mismatch(format!(
                "P6 schedule {i}: count {count} != chosen plan {expected}"
            ));
        }
        best = best.min(secs(t));
    }
    report.metric("exec.sched_chosen_s.P6", secs(t_chosen), "s");
    report.metric("exec.sched_best12_s.P6", best, "s");
    Ok(())
}

/// `intersect_count` over the neighbour lists of every edge's endpoints,
/// repeated for at least 0.2 s; time per input element.
fn intersections(report: &mut Report, tracer: &Tracer, graph: &CsrGraph) {
    let pairs: Vec<(u32, u32)> = graph.edges().collect();
    let (mut elements, mut found) = (0u64, 0u64);
    let (_, elapsed) = tracer.timed("vertex_set.intersect_count", ROOT, 0, |_| {
        let start = Instant::now();
        while elements == 0 || start.elapsed() < Duration::from_millis(200) {
            for &(u, v) in &pairs {
                let (a, b) = (graph.neighbors(u), graph.neighbors(v));
                found += vertex_set::intersect_count(black_box(a), black_box(b)) as u64;
                elements += (a.len() + b.len()) as u64;
            }
        }
    });
    black_box(found);
    report.metric(
        "vertex_set.intersect_ns_per_elem",
        elapsed.as_nanos() as f64 / elements.max(1) as f64,
        "ns",
    );
}

/// Submit-to-complete cost of one pool job: `WorkerPool::count` of a
/// triangle on K6 minus the same count run inline (medians of 2000).
fn pool_overhead(report: &mut Report, tracer: &Tracer, pool: &WorkerPool) -> Result<(), String> {
    let k6 = generators::complete(6);
    let plan = GraphPi::new(k6.clone())
        .plan(&prefab::triangle(), PlanOptions::default())
        .map_err(|e| format!("plan triangle: {e}"))?
        .plan;
    let options = ParallelOptions::default();
    let mut time = |pooled: bool| -> Vec<f64> {
        (0..2000)
            .map(|_| {
                let t = Instant::now();
                let count = if pooled {
                    pool.count(&plan, &k6, &options)
                } else {
                    interp::count_embeddings(&plan, &k6)
                };
                if count != 20 {
                    report.mismatch(format!("triangles in K6: {count} != 20"));
                }
                us(t.elapsed())
            })
            .collect()
    };
    let (pooled, inline) = tracer.span("pool.job_overhead", ROOT, 0, |_| (time(true), time(false)));
    report.metric(
        "pool.job_overhead_us",
        median(&pooled) - median(&inline),
        "us",
    );
    Ok(())
}

/// Warm in-process `Session::count` per mix pattern (plan-cache hits on a
/// persistent pool): the serving path without the wire.
fn sessions(
    report: &mut Report,
    tracer: &Tracer,
    engine: &GraphPi,
    pool: &Arc<WorkerPool>,
) -> Result<(), String> {
    let session = engine.session_shared(
        Arc::clone(pool),
        Arc::new(PlanCache::new(16)),
        PlanOptions::default(),
        CountOptions::default(),
    );
    for (name, pattern) in inputs::mix() {
        let expected = session
            .count(&pattern)
            .map_err(|e| format!("{name}: {e}"))?;
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < 20
            || (times.len() < 500 && start.elapsed() < Duration::from_millis(300))
        {
            let (count, t) = tracer.timed(&format!("session.count.{name}"), ROOT, 0, |_| {
                session.count(&pattern)
            });
            if count.map_err(|e| format!("{name}: {e}"))? != expected {
                report.mismatch(format!("warm session {name} count changed"));
            }
            times.push(us(t));
        }
        report.metric(format!("session.count_us.{name}"), median(&times), "us");
    }
    Ok(())
}

/// Batches replayed by the dynamic-graph probes: the first batches the
/// `mutate` writer sends for this graph and seed.
const PROBE_BATCHES: usize = 60;

/// The write path layer by layer, on one batch sequence: the whole
/// `DynamicEngine::apply` (WAL append and fsync, overlay commit, snapshot,
/// engine rebuild), then `wal::DurableGraph` and `delta::DynamicGraph`
/// commits alone, and the engine rebuild (`GraphPi::new`) alone.
fn dynamic(
    report: &mut Report,
    tracer: &Tracer,
    graph: &CsrGraph,
    work: &Path,
    seed: u64,
) -> Result<(), String> {
    let mut mirror = EdgeMirror::new(graph, seed);
    let batches: Vec<EdgeBatch> = (0..PROBE_BATCHES)
        .map(|_| {
            let (inserts, deletes): (Edges, Edges) = mirror.next_batch(EDGES_PER_SIDE, None);
            EdgeBatch::from_edges(inserts, deletes)
        })
        .collect();
    let dir = work.join("probe-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let options = DurableGraphOptions {
        checkpoint_wal_bytes: u64::MAX,
        ..DurableGraphOptions::default()
    };

    let (engine, _) = DynamicEngine::durable(graph.clone(), dir.join("engine.wal"), options)
        .map_err(|e| format!("open engine WAL: {e}"))?;
    let mut apply = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let (committed, t) = tracer.timed("dynamic.apply", ROOT, i as u64, |_| engine.apply(batch));
        let committed = committed.map_err(|e| format!("apply: {e}"))?;
        if committed.generation != i as u64 + 1 {
            report.mismatch(format!(
                "apply {i} produced generation {}",
                committed.generation
            ));
        }
        apply.push(ms(t));
    }
    drop(engine);

    let (durable, _) = DurableGraph::open(graph.clone(), dir.join("graph.wal"), options)
        .map_err(|e| format!("open WAL: {e}"))?;
    let mut wal = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let (committed, t) = tracer.timed("wal.commit", ROOT, i as u64, |_| durable.commit(batch));
        committed.map_err(|e| format!("WAL commit: {e}"))?;
        wal.push(ms(t));
    }
    let wal_bytes = durable.wal_record_bytes() as f64 / batches.len() as f64;
    drop(durable);

    let overlay = DynamicGraph::new(graph.clone());
    let mut delta = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let (committed, t) =
            tracer.timed("delta.commit", ROOT, i as u64, |_| overlay.commit(batch));
        committed.map_err(|e| format!("overlay commit: {e}"))?;
        delta.push(ms(t));
    }
    let snapshot = overlay.snapshot();
    let publish: Vec<f64> = (0..5)
        .map(|i| {
            let (_, t) = tracer.timed("dynamic.publish", ROOT, i, |_| {
                black_box(GraphPi::new(snapshot.graph().as_ref().clone()))
            });
            ms(t)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    report.metric("dynamic.apply_ms", median(&apply), "ms");
    report.metric("dynamic.apply_p99_ms", quantile(&apply, 0.99), "ms");
    report.metric("wal.commit_ms", median(&wal), "ms");
    report.metric("delta.commit_ms", median(&delta), "ms");
    report.metric("dynamic.publish_ms", median(&publish), "ms");
    report.metric(
        "delta.overlay_edges",
        overlay.overlay_edges() as f64,
        "count",
    );
    report.metric("wal.bytes_per_batch", wal_bytes, "bytes");
    Ok(())
}
