//! `serve`: a loopback `Server` over the small serving stand-in. Two
//! closed-loop connections send a fixed seeded mix of small patterns, all
//! plan-cache hits after warm-up, so per-query fixed costs dominate: frame
//! codec, TCP, admission and pool submit.

use crate::inputs::{self, SERVE_GRAPH};
use crate::layers;
use crate::load::{pings, read_lane, Lane, ReadLoad};
use crate::trace::{Tracer, ROOT};
use crate::util::{nproc, Args, Report};
use crate::{end_to_end, SETUP_REPS};
use graphpi_core::config::{PoolOptions, ServeOptions};
use graphpi_core::engine::GraphPi;
use graphpi_core::net::{Client, NetError, Server, ServerReport};
use graphpi_core::WorkerPool;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (one closed-loop lane each).
pub const CONNECTIONS: usize = 2;
/// `PING`s after a traced window, pricing the bare round trip.
pub const PINGS: usize = 200;
/// Copies of each mix pattern in the seeded query sequence; one walk of
/// the sequence is a pass.
pub const MIX_ROUNDS: usize = 10;

fn server_options() -> ServeOptions {
    ServeOptions {
        pool: PoolOptions {
            threads: nproc(),
            ..PoolOptions::default()
        },
        ..ServeOptions::default()
    }
}

pub fn run(args: &Args, work: &Path, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let path = SERVE_GRAPH.write(args.seed, work)?;
    let mix = inputs::mix();
    let sequence = inputs::mix_sequence(args.seed, MIX_ROUNDS);

    // Expected answers: the in-process Session over the same file.
    let expected: Vec<u64> = {
        let engine = GraphPi::new(inputs::load(&path)?);
        let session = engine.session();
        mix.iter()
            .map(|(name, p)| session.count(p).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<_, _>>()?
    };
    let loads_for = |offset| ReadLoad {
        mix: &mix,
        sequence: &sequence,
        offset,
        expected: Some(&expected),
    };

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let start = Instant::now();
        let (graph, load) = tracer.timed("graph.io.load", ROOT, 0, |_| inputs::load(&path));
        let engine = GraphPi::new(graph?);
        let measured = with_server(
            |server| server.serve(&engine),
            |addr| {
                let mut clients = connect(addr, CONNECTIONS)?;
                // Warm-up: each connection asks every mix pattern once; the
                // first asks are the only plan-cache misses.
                for client in &mut clients {
                    for ((name, p), want) in mix.iter().zip(&expected) {
                        let got = client
                            .count(p)
                            .map_err(|e| format!("warm-up {name}: {e}"))?;
                        if got.count != *want {
                            report.mismatch(format!("warm-up {name}: {} != {want}", got.count));
                        }
                    }
                }
                setups.push(start.elapsed());
                loads.push(load);
                if !last {
                    return Ok(None);
                }
                let window = |tracer: &Tracer, seconds: f64, clients: &mut [Client]| {
                    let until = Instant::now() + Duration::from_secs_f64(seconds);
                    let lanes = std::thread::scope(|s| {
                        let running: Vec<_> = clients
                            .iter_mut()
                            .enumerate()
                            .map(|(i, client)| {
                                let load = loads_for(i * sequence.len() / CONNECTIONS);
                                s.spawn(move || read_lane(&load, client, tracer, until))
                            })
                            .collect();
                        running
                            .into_iter()
                            .map(|h| h.join().expect("client lane panicked"))
                            .collect::<Vec<_>>()
                    });
                    Lane::merge(lanes)
                };
                if !args.trace {
                    return Ok(Some((
                        window(tracer, args.seconds, &mut clients),
                        None,
                        (0, 0),
                    )));
                }
                let (untraced, traced) =
                    layers::alternate(args.seconds, tracer, |tracer, seconds| {
                        window(tracer, seconds, &mut clients)
                    });
                let (untraced, mut traced) = (Lane::chain(untraced), Lane::chain(traced));
                pings(&mut clients[0], PINGS, tracer, &mut traced);
                let stats = clients[0].stats().map_err(|e| format!("STATS: {e}"))?;
                Ok(Some((
                    untraced,
                    Some(traced),
                    (stats.cache_hits, stats.cache_misses),
                )))
            },
        )?;
        let Some((window, traced, plan_hits)) = measured else {
            continue;
        };
        let graph = engine.graph();
        report.graphs.push((
            SERVE_GRAPH.name.into(),
            graph.num_vertices(),
            graph.num_edges(),
        ));
        match traced {
            None => end_to_end(report, &setups, window),
            Some(traced) => {
                let spans = tracer.snapshot();
                layers::report_loop(report, &loads, window, traced, &spans);
                layers::plan_hit_ratio(report, plan_hits);
                layers::net_metrics(report, &spans);
                let pool = Arc::new(WorkerPool::new(nproc()));
                layers::probe_all(report, tracer, engine.graph(), &pool, work, args.seed)?;
            }
        }
    }
    Ok(())
}

/// Binds a loopback server, runs `serve` on it in a scoped thread and
/// `body` against its address, then drains the server (whatever `body`
/// returned) and joins it.
pub fn with_server<R>(
    serve: impl FnOnce(Server) -> Result<ServerReport, NetError> + Send,
    body: impl FnOnce(SocketAddr) -> Result<R, String>,
) -> Result<R, String> {
    let server = Server::bind("127.0.0.1:0", server_options()).map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || serve(server));
        let outcome = body(handle.addr());
        handle.shutdown();
        let served = serving.join().expect("server thread panicked");
        served.map_err(|e| format!("server: {e}"))?;
        outcome
    })
}

pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}
