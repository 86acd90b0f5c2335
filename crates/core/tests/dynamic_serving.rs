//! Concurrent consistency for dynamic serving: query threads hammer a
//! [`DynamicEngine`] across every execution mode (IEP on/off, hub
//! acceleration on/off) while a writer commits edge batches underneath.
//! Every observation is a `(generation, mode, count)` triple, and each
//! must match the count precomputed offline for exactly that generation —
//! a torn read (a query seeing half of a batch) or a stale plan served
//! across generations would both show up as a mismatch.

use graphpi_core::config::ServeOptions;
use graphpi_core::engine::{CountOptions, GraphPi, PlanCache, PlanOptions};
use graphpi_core::exec::pool::WorkerPool;
use graphpi_core::net::{Client, RetryPolicy, RetryingClient, Server, ServerHandle};
use graphpi_core::DynamicEngine;
use graphpi_graph::{generators, EdgeBatch};
use graphpi_pattern::prefab;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The deterministic batch sequence both the live run and the offline
/// reference replay. Each batch inserts a few edges and deletes a few,
/// touching hubs (low vertex ids in a power-law graph) so counts really
/// move between generations.
fn batch(round: u32, n: u32) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    for k in 0..4 {
        let u = (round * 5 + k) % n;
        let v = (u * 7 + 11 + round) % n;
        batch.insert(u, v);
    }
    for k in 0..2 {
        let u = (round * 3 + k + 1) % n;
        let v = (u + 1 + round) % n;
        batch.delete(u, v);
    }
    batch
}

/// The four execution modes of the agreement matrix.
const MODES: [(bool, bool); 4] = [(true, false), (false, false), (true, true), (false, true)];

fn mode_options((use_iep, hub_bitsets): (bool, bool)) -> CountOptions {
    CountOptions {
        use_iep,
        hub_bitsets,
        ..CountOptions::default()
    }
}

#[test]
fn concurrent_queries_agree_with_per_generation_references() {
    const N: u32 = 110;
    const ROUNDS: u32 = 8;
    const QUERY_THREADS: usize = 4;
    let initial = generators::power_law(N as usize, 4, 97);
    let pattern = prefab::house();

    // Offline reference: replay the same batches on a private engine and
    // record the expected count per (generation, mode) — all four modes
    // must already agree here, or the matrix itself is broken.
    let reference = DynamicEngine::volatile(initial.clone());
    let ref_pool = Arc::new(WorkerPool::new(2));
    let ref_cache = Arc::new(PlanCache::new(64));
    let count_all_modes = |engine: &GraphPi| -> u64 {
        let session = engine.session_shared(
            Arc::clone(&ref_pool),
            Arc::clone(&ref_cache),
            PlanOptions::default(),
            CountOptions::default(),
        );
        let counts: Vec<u64> = MODES
            .iter()
            .map(|&mode| session.count_with(&pattern, mode_options(mode)).unwrap())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "execution modes disagree on one fixed graph: {counts:?}"
        );
        counts[0]
    };
    let mut expected = vec![count_all_modes(reference.pin().engine())];
    for round in 0..ROUNDS {
        reference.apply(&batch(round, N)).unwrap();
        expected.push(count_all_modes(reference.pin().engine()));
    }
    assert!(
        expected.windows(2).any(|w| w[0] != w[1]),
        "the batch sequence must actually change the house count"
    );

    // Live run: one writer commits the same batches with pauses while
    // query threads pin generations and count in all four modes.
    let engine = DynamicEngine::volatile(initial);
    let pool = Arc::new(WorkerPool::new(2));
    let cache = Arc::new(PlanCache::new(64));
    let writer_done = AtomicBool::new(false);
    let observations: Vec<Vec<(u64, usize, u64)>> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for round in 0..ROUNDS {
                std::thread::sleep(Duration::from_millis(15));
                let report = engine.apply(&batch(round, N)).unwrap();
                assert_eq!(report.generation, u64::from(round) + 1);
            }
            writer_done.store(true, Ordering::Release);
        });
        let queriers: Vec<_> = (0..QUERY_THREADS)
            .map(|thread_index| {
                let engine = &engine;
                let pool = &pool;
                let cache = &cache;
                let pattern = &pattern;
                let writer_done = &writer_done;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut turn = thread_index; // stagger the mode cycling
                    loop {
                        let done = writer_done.load(Ordering::Acquire);
                        let mode_index = turn % MODES.len();
                        let pin = engine.pin();
                        let session = pin.engine().session_shared(
                            Arc::clone(pool),
                            Arc::clone(cache),
                            PlanOptions::default(),
                            CountOptions::default(),
                        );
                        let count = session
                            .count_with(pattern, mode_options(MODES[mode_index]))
                            .unwrap();
                        seen.push((pin.generation(), mode_index, count));
                        turn += 1;
                        if done {
                            return seen;
                        }
                    }
                })
            })
            .collect();
        writer.join().expect("writer thread");
        queriers
            .into_iter()
            .map(|handle| handle.join().expect("query thread"))
            .collect()
    });

    // Every observation must match the offline reference for exactly the
    // generation it pinned — regardless of mode or timing.
    let mut total = 0usize;
    let mut generations_seen = std::collections::BTreeSet::new();
    for (thread_index, seen) in observations.iter().enumerate() {
        for &(generation, mode_index, count) in seen {
            let want = expected[usize::try_from(generation).unwrap()];
            assert_eq!(
                count, want,
                "thread {thread_index} pinned generation {generation} \
                 (mode {mode_index}) and saw {count}, reference says {want}"
            );
            generations_seen.insert(generation);
            total += 1;
        }
    }
    // The writer finished, so the final generation is always observed at
    // least once (each querier does a last pass after `done`).
    assert!(generations_seen.contains(&u64::from(ROUNDS)));
    assert!(
        total >= QUERY_THREADS,
        "each query thread observes at least once"
    );
}

#[test]
fn pinned_generation_outlives_later_commits() {
    let engine = DynamicEngine::volatile(generators::power_law(90, 4, 31));
    let pattern = prefab::triangle();
    let pin = engine.pin();
    let before = pin.engine().count(&pattern).unwrap();
    for round in 0..5 {
        engine.apply(&batch(round, 90)).unwrap();
    }
    // The old pin still answers from its own generation, bit-identically.
    assert_eq!(pin.engine().count(&pattern).unwrap(), before);
    assert_eq!(pin.generation(), 0);
    assert_eq!(engine.generation(), 5);
}

/// Sets the drain flag when dropped so a failed assertion unwinds instead
/// of deadlocking on the accept loop.
struct DrainOnDrop(ServerHandle);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[test]
fn reused_request_ids_never_replay_counts_across_commits() {
    let engine = DynamicEngine::volatile(generators::power_law(200, 4, 7));
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    let triangle = prefab::triangle();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve_dynamic(&engine).unwrap());

        // Two clients with the same seed draw the same request IDs, as
        // the clients of two separate CLI invocations do.
        let same_seed = || RetryingClient::connect_tcp(addr, RetryPolicy::default());
        let before = same_seed().count(&triangle).unwrap().count;

        // Two new triangles commit between the runs.
        let mut writer = Client::connect(addr).unwrap();
        let triangles = [
            (190, 191),
            (191, 192),
            (190, 192),
            (195, 196),
            (196, 197),
            (195, 197),
        ];
        writer.update(&triangles, &[]).unwrap();
        let after = writer.count(&triangle).unwrap().count;
        assert!(after > before, "the inserts must add triangles");

        // The second run reuses the first run's ID after the commit: it
        // must see the new graph, not a replay of the old count.
        let again = same_seed().count(&triangle).unwrap().count;
        assert_eq!(again, after, "stale count replayed from before the commit");
        assert_eq!(again, engine.pin().engine().count(&triangle).unwrap());

        drop(writer);
        handle.shutdown();
        serving.join().unwrap();
    });
}
