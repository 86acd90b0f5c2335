//! `mutate`: `Server::serve_dynamic` on a durable `DynamicEngine` whose WAL
//! sits in the run's scratch directory. One connection sends balanced
//! `UPDATE` batches (as many inserts as deletes, so the edge count stays
//! level); the other sends small-pattern counts. Every commit rebuilds the
//! generation's engine and changes the plan-cache fingerprint, so the
//! `dynamic`, `wal` and `delta` layers and re-planning show up here only.
//!
//! The two connections take turns: a burst of update batches, then one
//! round of the read mix against the new generation, and so on. Letting
//! both closed loops run at once on two cores made the write times swing
//! by up to a quarter between runs of the same seed, as planning-heavy
//! reads and commits fought for the cores.

use crate::inputs::{self, EdgeMirror, MUTATE_GRAPH};
use crate::layers;
use crate::load::{pings, read_once, write_once, Lane, ReadLoad};
use crate::serve::{connect, with_server, MIX_ROUNDS, PINGS};
use crate::trace::{Tracer, ROOT};
use crate::util::{nproc, Args, Report};
use crate::{end_to_end, SETUP_REPS};
use graphpi_core::engine::GraphPi;
use graphpi_core::{DynamicEngine, WorkerPool};
use graphpi_graph::wal::DurableGraphOptions;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edges each update batch deletes, and inserts.
pub const EDGES_PER_SIDE: usize = 16;
/// Update batches the writer sends before each read round.
pub const WRITE_BURST: usize = 20;
/// Bursts per half-period of the edge-count drift: the first batch of each
/// burst inserts one extra edge for this many bursts, then deletes one for
/// as many. The edge count stays within this many edges of its start, yet
/// no two read rounds the plan cache can remember see the same graph
/// statistics, so every read round re-plans. Without the drift, a share of
/// rounds that changed from seed to seed hit plans cached for an earlier
/// generation whose triangle count happened to match.
const DRIFT_BURSTS: u64 = 32;

/// Small enough thresholds that a run goes through several overlay
/// compactions and WAL checkpoints.
pub fn durable_options() -> DurableGraphOptions {
    DurableGraphOptions {
        compaction_threshold: 4096,
        checkpoint_wal_bytes: 256 << 10,
    }
}

pub fn run(args: &Args, work: &Path, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let path = MUTATE_GRAPH.write(args.seed, work)?;
    let mix = inputs::mix();
    let sequence = inputs::mix_sequence(args.seed, MIX_ROUNDS);
    let reads = ReadLoad {
        mix: &mix,
        sequence: &sequence,
        offset: 0,
        // Reads race the writer, so only the final answers are checked.
        expected: None,
    };

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let wal_dir = work.join(format!("wal-{rep}"));
        std::fs::create_dir_all(&wal_dir).map_err(|e| format!("create WAL dir: {e}"))?;
        let start = Instant::now();
        let (graph, load) = tracer.timed("graph.io.load", ROOT, 0, |_| inputs::load(&path));
        let graph = graph?;
        let mut mirror = EdgeMirror::new(&graph, args.seed);
        let (engine, recovery) =
            DynamicEngine::durable(graph, wal_dir.join("graph.wal"), durable_options())
                .map_err(|e| format!("open WAL: {e}"))?;
        if !recovery.created {
            return Err("WAL directory was not empty".into());
        }
        let measured = with_server(
            |server| server.serve_dynamic(&engine),
            |addr| {
                let mut clients = connect(addr, 2)?;
                for (name, p) in &mix {
                    clients[0]
                        .count(p)
                        .map_err(|e| format!("warm-up {name}: {e}"))?;
                }
                clients[1]
                    .ping()
                    .map_err(|e| format!("warm-up ping: {e}"))?;
                setups.push(start.elapsed());
                loads.push(load);
                if !last {
                    return Ok(None);
                }
                let mut generation = engine.generation();
                let mut bursts = 0u64;
                let mut window = |tracer: &Tracer, seconds: f64| {
                    let (mut read, mut write) = (Lane::default(), Lane::default());
                    let start = Instant::now();
                    let until = start + Duration::from_secs_f64(seconds);
                    let round = mix.len();
                    let mut i = 0;
                    while Instant::now() < until {
                        for batch in 0..WRITE_BURST {
                            let grow =
                                (batch == 0).then_some((bursts / DRIFT_BURSTS).is_multiple_of(2));
                            generation = write_once(
                                EDGES_PER_SIDE,
                                grow,
                                &mut clients[1],
                                &mut mirror,
                                generation,
                                tracer,
                                &mut write,
                            );
                        }
                        bursts += 1;
                        for _ in 0..round {
                            read_once(&reads, i, &mut clients[0], tracer, &mut read);
                            i += 1;
                        }
                    }
                    read.elapsed = start.elapsed();
                    (read, write)
                };
                let windows = if args.trace {
                    let (untraced, traced) = layers::alternate(args.seconds, tracer, &mut window);
                    let chain = |slices: Vec<(Lane, Lane)>| {
                        let (reads, writes): (Vec<Lane>, Vec<Lane>) = slices.into_iter().unzip();
                        (Lane::chain(reads), Lane::chain(writes))
                    };
                    let (mut read, write) = chain(traced);
                    pings(&mut clients[0], PINGS, tracer, &mut read);
                    (chain(untraced), Some((read, write)))
                } else {
                    (window(tracer, args.seconds), None)
                };
                // The final check: contiguous generations end at the batch
                // count, and each remote count equals a fresh engine's count
                // over the graph the benchmark's own mirror describes.
                let expected = GraphPi::new(mirror.graph());
                let session = expected.session();
                for (name, p) in &mix {
                    let remote = clients[0]
                        .count(p)
                        .map_err(|e| format!("final {name}: {e}"))?;
                    let local = session.count(p).map_err(|e| format!("final {name}: {e}"))?;
                    if remote.count != local {
                        report.mismatch(format!(
                            "final {name}: remote {} != fresh {local}",
                            remote.count
                        ));
                    }
                }
                if engine.generation() != generation {
                    report.mismatch(format!(
                        "server at generation {} after {generation} acked batches",
                        engine.generation()
                    ));
                }
                let stats = clients[0].stats().map_err(|e| format!("STATS: {e}"))?;
                let plan_hits = (stats.cache_hits, stats.cache_misses);
                Ok(Some((windows, plan_hits, mirror.num_edges())))
            },
        )?;
        drop(engine);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let Some((((read, write), traced), plan_hits, edges)) = measured else {
            continue;
        };
        report.graphs.push((
            MUTATE_GRAPH.name.into(),
            MUTATE_GRAPH.vertices,
            edges as u64,
        ));
        match traced {
            None => end_to_end(report, &setups, window_of(read, write)),
            Some((traced_read, traced_write)) => {
                let spans = tracer.snapshot();
                layers::report_loop(
                    report,
                    &loads,
                    window_of(read, write),
                    window_of(traced_read, traced_write),
                    &spans,
                );
                layers::plan_hit_ratio(report, plan_hits);
                layers::net_metrics(report, &spans);
                let graph = inputs::load(&path)?;
                let pool = Arc::new(WorkerPool::new(nproc()));
                layers::probe_all(report, tracer, &graph, &pool, work, args.seed)?;
            }
        }
    }
    Ok(())
}

/// The measured window of `mutate`: both lanes merged, with one pass per
/// write, so `pass_s` is the median write latency. A median over single
/// batches was steadier than one over 20-batch bursts, which moved by a
/// third between runs on a shared 2-core host.
fn window_of(read: Lane, write: Lane) -> Lane {
    let mut lane = Lane::merge(vec![read, write]);
    lane.passes_s = lane.writes_ms.iter().map(|ms| ms / 1e3).collect();
    lane
}
