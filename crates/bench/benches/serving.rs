//! Serving-path benchmark: cold spawn-per-call counting vs the warm
//! [`Session`] path (persistent worker pool + compiled-plan cache).
//!
//! Every query in the spawn-per-call column pays the two fixed costs the
//! paper's batch setting never amortized: planning (schedule enumeration +
//! restriction generation + cost-model ranking) and spawning/joining a
//! fresh set of worker threads. The warm column runs the same query on a
//! [`Session`]: the plan comes from the LRU cache and the workers are
//! already parked on the pool, so the per-query cost is the matching work
//! itself.
//!
//! The query is the paper's House pattern on a deliberately small
//! power-law stand-in, because the serving regime this PR targets is
//! *many small queries*, where fixed costs dominate. Results are printed
//! and written to `BENCH_serving.json` as
//! `{op, ns_per_iter, graph, threads}` records (`serving/spawn_per_call`,
//! `serving/session_cold`, `serving/session_warm`), with queries/sec
//! derivable as `1e9 / ns_per_iter`.
//!
//! Both columns run the same pool runtime; the spawn-per-call column starts
//! a pool for each query and drops it afterwards, so the comparison is the
//! end-to-end per-query latency of the two real APIs.
//!
//! The run asserts warm < spawn-per-call at every thread count, so the CI
//! bench smoke step fails if the serving path ever regresses below the
//! cold path.
//!
//! A second section measures the **concurrent-client** regime the
//! multi-tenant pool exists for: 1/2/4/8 client threads hammering one
//! shared warm session (`serving/multi_client_warm`, the `threads` field
//! carries the client count) against the submit-lock-serialized baseline
//! the pool used to be (`serving/multi_client_serialized`, emulated by an
//! external mutex around every query). On a box with ≥ 4 cores at full
//! bench scale, 4-client concurrent throughput is asserted ≥ 2× the
//! serialized baseline; on smaller boxes the ratio is reported but not
//! enforced (with one core there is no parallelism for concurrency to
//! exploit).

use graphpi_bench::{
    banner, scale_from_env, serving_dataset, write_bench_json, BenchRecord, Table,
};
use graphpi_core::config::PoolOptions;
use graphpi_core::engine::{CountOptions, GraphPi, PlanOptions, Session};
use graphpi_pattern::prefab;
use std::time::Instant;

/// Thread counts of the pool/spawn comparison (the acceptance number is the
/// 8-thread row).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Cold-path iterations per thread count (each spawns and joins `threads`
/// OS threads, so keep this moderate).
const SPAWN_ITERS: usize = 15;

/// Warm-path iterations per thread count.
const WARM_ITERS: usize = 60;

/// Outer-loop prefix depth. Serving queries are small, so coarse depth-1
/// tasks keep queue traffic (and worker wake-ups) minimal; both sides of
/// the comparison use the same depth.
const PREFIX_DEPTH: usize = 1;

fn time_queries(iters: usize, mut query: impl FnMut() -> u64) -> (u64, f64) {
    let mut count = 0;
    let start = Instant::now();
    for _ in 0..iters {
        count = query();
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    (count, ns)
}

fn session_for(engine: &GraphPi, threads: usize) -> Session<'_> {
    engine.session_with(
        PoolOptions {
            threads,
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions {
            use_iep: false,
            prefix_depth: Some(PREFIX_DEPTH),
            ..CountOptions::default()
        },
    )
}

fn main() {
    let scale = scale_from_env();
    let dataset = serving_dataset(scale);
    banner(
        "Serving path: spawn-per-call vs persistent pool + plan cache",
        &format!(
            "house pattern, {} queries/cell; {}",
            WARM_ITERS,
            dataset.describe()
        ),
    );
    let engine = GraphPi::new(dataset.graph.clone());
    let pattern = prefab::house();

    let mut table = Table::new(vec![
        "threads",
        "spawn/call",
        "session cold",
        "session warm",
        "warm q/s",
        "speedup",
    ]);
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut expected = None;
    let mut ratio_at_8 = None;

    for &threads in &THREAD_COUNTS {
        let count_options = CountOptions {
            threads,
            use_iep: false,
            prefix_depth: Some(PREFIX_DEPTH),
            ..CountOptions::default()
        };
        // Cold path: plan + pool spawn/join, once per query.
        let (spawn_count, spawn_ns) = time_queries(SPAWN_ITERS, || {
            let plan = engine.plan(&pattern, PlanOptions::default()).expect("plan");
            engine.execute_count(&plan.plan, count_options)
        });

        // Session cold: pool spawn + first planning miss, amortized over
        // the session lifetime — reported as the one-off setup cost.
        let cold_start = Instant::now();
        let session = session_for(&engine, threads);
        let cold_count = session.count(&pattern).expect("cold count");
        let cold_ns = cold_start.elapsed().as_nanos() as f64;

        // Warm path: cached plan, parked workers.
        let (warm_count, warm_ns) = time_queries(WARM_ITERS, || session.count(&pattern).unwrap());

        assert_eq!(spawn_count, cold_count, "cold paths disagree");
        assert_eq!(spawn_count, warm_count, "pooled count diverged");
        let expected = *expected.get_or_insert(spawn_count);
        assert_eq!(spawn_count, expected, "count changed across thread counts");
        assert!(
            warm_ns < spawn_ns,
            "warm serving path ({warm_ns:.0} ns/query) must beat spawn-per-call \
             ({spawn_ns:.0} ns/query) at {threads} threads"
        );
        if threads == 8 {
            ratio_at_8 = Some(spawn_ns / warm_ns);
        }

        table.row(vec![
            format!("{threads}"),
            format!("{:.1} us", spawn_ns / 1e3),
            format!("{:.1} us", cold_ns / 1e3),
            format!("{:.1} us", warm_ns / 1e3),
            format!("{:.0}", 1e9 / warm_ns),
            format!("{:.1}x", spawn_ns / warm_ns),
        ]);
        let graph = dataset.name.to_string();
        records.push(BenchRecord::new(
            "serving/spawn_per_call",
            spawn_ns,
            graph.clone(),
            threads,
        ));
        records.push(BenchRecord::new(
            "serving/session_cold",
            cold_ns,
            graph.clone(),
            threads,
        ));
        records.push(BenchRecord::new(
            "serving/session_warm",
            warm_ns,
            graph,
            threads,
        ));
    }

    table.print();
    println!(
        "\nembeddings per query: {} (bit-identical across spawn, cold and warm paths)",
        expected.unwrap_or(0)
    );
    if let Some(ratio) = ratio_at_8 {
        println!("8-thread warm speedup over spawn-per-call: {ratio:.1}x");
    }

    bench_concurrent_clients(&engine, &pattern, dataset.name, &mut records);

    write_bench_json("BENCH_serving.json", &records).expect("write BENCH_serving.json");
}

/// Client thread counts of the concurrency matrix (the acceptance number is
/// the 4-client row).
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Warm queries each client runs per cell.
const CLIENT_ITERS: usize = 30;

/// Pool workers backing the shared session in the concurrency matrix.
const CONCURRENT_POOL_THREADS: usize = 4;

/// Times `clients` threads each running [`CLIENT_ITERS`] warm queries on
/// the shared session, asserting every count; returns aggregate ns/query.
/// `serialize` wraps each query in one external mutex, reproducing the
/// one-job-at-a-time behavior of the pre-multi-tenant pool as the baseline.
fn run_clients(
    session: &Session<'_>,
    pattern: &graphpi_pattern::Pattern,
    clients: usize,
    expected: u64,
    serialize: bool,
) -> f64 {
    let submit_lock = std::sync::Mutex::new(());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let submit_lock = &submit_lock;
            scope.spawn(move || {
                for _ in 0..CLIENT_ITERS {
                    let guard = serialize.then(|| submit_lock.lock().expect("submit lock"));
                    let got = session.count(pattern).expect("client count");
                    drop(guard);
                    assert_eq!(got, expected, "client count diverged");
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64 / (clients * CLIENT_ITERS) as f64
}

/// The concurrent-client section: shared warm session, concurrent vs
/// externally-serialized throughput at 1/2/4/8 clients.
fn bench_concurrent_clients(
    engine: &GraphPi,
    pattern: &graphpi_pattern::Pattern,
    graph: &str,
    records: &mut Vec<BenchRecord>,
) {
    let session = engine.session_with(
        PoolOptions {
            threads: CONCURRENT_POOL_THREADS,
            max_in_flight: CLIENT_COUNTS[CLIENT_COUNTS.len() - 1],
            ..PoolOptions::default()
        },
        PlanOptions::default(),
        CountOptions {
            use_iep: false,
            prefix_depth: Some(PREFIX_DEPTH),
            ..CountOptions::default()
        },
    );
    let expected = session.count(pattern).expect("warm-up count");

    banner(
        "Concurrent clients: multi-tenant pool vs submit-lock-serialized baseline",
        &format!(
            "house pattern, shared warm session, {CONCURRENT_POOL_THREADS} pool workers, \
             {CLIENT_ITERS} queries/client"
        ),
    );
    let mut table = Table::new(vec![
        "clients",
        "serialized",
        "concurrent",
        "agg q/s",
        "speedup",
    ]);
    let mut ratio_at_4 = None;
    for &clients in &CLIENT_COUNTS {
        let serialized_ns = run_clients(&session, pattern, clients, expected, true);
        let concurrent_ns = run_clients(&session, pattern, clients, expected, false);
        let ratio = serialized_ns / concurrent_ns;
        if clients == 4 {
            ratio_at_4 = Some(ratio);
        }
        table.row(vec![
            format!("{clients}"),
            format!("{:.1} us", serialized_ns / 1e3),
            format!("{:.1} us", concurrent_ns / 1e3),
            format!("{:.0}", 1e9 / concurrent_ns),
            format!("{ratio:.1}x"),
        ]);
        records.push(BenchRecord::new(
            "serving/multi_client_serialized",
            serialized_ns,
            graph.to_string(),
            clients,
        ));
        records.push(BenchRecord::new(
            "serving/multi_client_warm",
            concurrent_ns,
            graph.to_string(),
            clients,
        ));
    }
    table.print();
    println!("\nembeddings per query: {expected} (bit-identical across every client and mode)");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(ratio) = ratio_at_4 {
        println!("4-client concurrent speedup over serialized submission: {ratio:.1}x");
        if cores >= 4 && scale_from_env() >= 1.0 {
            assert!(
                ratio >= 2.0,
                "4-client concurrent throughput must be >= 2x the serialized baseline \
                 on a multi-core bench box (got {ratio:.2}x on {cores} cores)"
            );
        } else {
            println!(
                "(ratio not enforced: {cores} core(s), scale {:.1})",
                scale_from_env()
            );
        }
    }
}
