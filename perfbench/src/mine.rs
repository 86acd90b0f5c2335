//! `mine`: the paper's batch setting. Each pass counts P1–P6 once, in
//! process, with a fresh plan cache, default planning and counting options
//! (IEP on) and a pool of `nproc` workers — what a `graphpi-cli count`
//! user pays: planning plus execution.

use crate::inputs::{self, MINE_GRAPH};
use crate::layers;
use crate::load::{next_request, Lane};
use crate::trace::{Tracer, ROOT};
use crate::util::{nproc, Args, Report};
use crate::{end_to_end, SETUP_REPS};
use graphpi_baseline::graphzero::GraphZeroEngine;
use graphpi_core::engine::{CountOptions, GraphPi, PlanCache, PlanOptions};
use graphpi_core::WorkerPool;
use graphpi_pattern::{prefab, Pattern};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn run(args: &Args, work: &Path, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let path = MINE_GRAPH.write(args.seed, work)?;
    let patterns = prefab::evaluation_patterns();

    // Reference counts from graphpi-baseline's GraphZero engine, once per
    // seed, before anything is timed.
    let reference: Vec<u64> = {
        let gz = GraphZeroEngine::new(inputs::load(&path)?);
        patterns.iter().map(|(_, p)| gz.count(p)).collect()
    };

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (graph, load) = tracer.timed("graph.io.load", ROOT, 0, |_| inputs::load(&path));
        let engine = GraphPi::new(graph?);
        let pool = Arc::new(WorkerPool::new(nproc()));
        // Warm-up: page in the graph and start the workers; the pattern
        // passes below still plan every pattern cold.
        fresh_session(&engine, &pool)
            .count(&prefab::triangle())
            .map_err(|e| format!("warm-up: {e}"))?;
        setups.push(start.elapsed());
        loads.push(load);
        state = Some((engine, pool));
    }
    let (engine, pool) = state.expect("at least one setup");
    let graph = engine.graph();
    report.graphs.push((
        MINE_GRAPH.name.into(),
        graph.num_vertices(),
        graph.num_edges(),
    ));

    if !args.trace {
        let (window, _) = passes(&engine, &pool, &patterns, &reference, args.seconds, tracer);
        end_to_end(report, &setups, window);
        return Ok(());
    }

    let (untraced, traced) = layers::alternate(args.seconds, tracer, |tracer, seconds| {
        passes(&engine, &pool, &patterns, &reference, seconds, tracer)
    });
    let hits = traced
        .iter()
        .fold((0, 0), |(h, m), (_, (hits, misses))| (h + hits, m + misses));
    let lanes = |slices: Vec<(Lane, _)>| Lane::chain(slices.into_iter().map(|(l, _)| l).collect());
    let (untraced, traced) = (lanes(untraced), lanes(traced));
    layers::report_loop(report, &loads, untraced, traced, &tracer.snapshot());
    layers::plan_hit_ratio(report, hits);
    layers::probe_all(report, tracer, graph, &pool, work, args.seed)?;
    layers::net_probe(report, tracer, &engine, args.seed)
}

fn fresh_session<'g>(engine: &'g GraphPi, pool: &Arc<WorkerPool>) -> graphpi_core::Session<'g> {
    engine.session_shared(
        Arc::clone(pool),
        Arc::new(PlanCache::new(64)),
        PlanOptions::default(),
        CountOptions::default(),
    )
}

/// Counts P1–P6 pass after pass until `seconds` have gone by (at least one
/// pass), checking every count against the reference. Also returns the
/// plan-cache (hits, misses) over all passes.
fn passes(
    engine: &GraphPi,
    pool: &Arc<WorkerPool>,
    patterns: &[(&'static str, Pattern)],
    reference: &[u64],
    seconds: f64,
    tracer: &Tracer,
) -> (Lane, (u64, u64)) {
    let mut window = Lane::default();
    let mut plan_hits = (0, 0);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    while window.passes_s.is_empty() || Instant::now() < until {
        let session = fresh_session(engine, pool);
        let request = next_request();
        let pass_start = Instant::now();
        tracer.span("mine.pass", ROOT, request, |pass| {
            for (which, ((name, pattern), &expected)) in patterns.iter().zip(reference).enumerate()
            {
                window.attempted += 1;
                let t = Instant::now();
                let count = if tracer.is_on() {
                    // The same two calls `Session::count` makes, one span each.
                    tracer
                        .span(&format!("session.plan.{name}"), pass, request, |_| {
                            session.plan_cached(pattern)
                        })
                        .map(|plan| {
                            tracer.span(&format!("session.exec.{name}"), pass, request, |_| {
                                session.execute_count(&plan.plan)
                            })
                        })
                } else {
                    session.count(pattern)
                };
                match count {
                    Ok(count) => {
                        window.record_read(which, t.elapsed());
                        if count != expected {
                            window
                                .mismatches
                                .push(format!("{name}: GraphPi {count} != GraphZero {expected}"));
                        }
                    }
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        window.failed += 1;
                    }
                }
            }
        });
        window.passes_s.push(pass_start.elapsed().as_secs_f64());
        let stats = session.cache_stats();
        plan_hits.0 += stats.hits;
        plan_hits.1 += stats.misses;
    }
    window.elapsed = start.elapsed();
    (window, plan_hits)
}
