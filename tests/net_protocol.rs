//! Protocol fault-injection suite: the frame codec must round-trip
//! arbitrary frames, never panic on arbitrary bytes, and a live server fed
//! malformed input — truncated frames, oversized length prefixes, wrong
//! magic/version, unknown opcodes, mid-frame disconnects — must answer
//! every case with a typed error or a clean connection drop while its
//! worker pool stays fully alive.

use graphpi::core::config::ServeOptions;
use graphpi::core::engine::{GraphPi, PlanCache};
use graphpi::core::exec::pool::WorkerPool;
use graphpi::core::net::protocol::{
    self, op, CountRequest, ErrorCode, Frame, LatencyHistogram, NetError, PromoteOk, QueryMode,
    ReplAck, ReplBatch, ReplPayload, ReplSubscribe, StatsOk, WireError, HISTOGRAM_BUCKETS,
    MAX_FRAME_LEN,
};
use graphpi::core::net::{Client, RetryPolicy};
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Codec properties (no sockets).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → read_frame is the identity for every opcode and payload.
    #[test]
    fn frame_codec_round_trips(
        opcode in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        let frame = Frame::new(opcode, payload);
        let decoded = protocol::read_frame(&mut Cursor::new(frame.encode())).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// The reader never panics on arbitrary bytes — every outcome is a
    /// frame or a typed error.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = protocol::read_frame(&mut Cursor::new(bytes));
    }

    /// Truncating a valid frame anywhere yields an error, never a frame
    /// and never a panic.
    #[test]
    fn truncated_frames_error(
        payload in proptest::collection::vec(0u8..=255, 0..64),
        cut_seed in 0usize..10_000,
    ) {
        let bytes = Frame::new(op::COUNT, payload).encode();
        let cut = cut_seed % bytes.len();
        if cut < bytes.len() {
            prop_assert!(protocol::read_frame(&mut Cursor::new(bytes[..cut].to_vec())).is_err());
        }
    }

    /// The error payload codec round-trips every code and message.
    #[test]
    fn wire_error_round_trips(
        code in 0u8..=255,
        text in proptest::collection::vec(32u8..127, 0..120),
    ) {
        let message = String::from_utf8(text).expect("printable ascii");
        let error = WireError::new(ErrorCode::from_code(code), &message);
        prop_assert_eq!(WireError::decode(&error.encode()).unwrap(), error);
    }

    /// `STATS_OK` round-trips every field, with the strategy biased
    /// toward the `u64` extremes that would break careless decode or
    /// aggregation arithmetic (0, 1, `u64::MAX`).
    #[test]
    fn stats_ok_round_trips_edge_values(
        words in proptest::collection::vec(
            (0u8..4, 0u64..=u64::MAX).prop_map(|(edge, raw)| match edge {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                _ => raw,
            }),
            15 + HISTOGRAM_BUCKETS,
        ),
    ) {
        let mut latency = LatencyHistogram::default();
        for (bucket, &word) in latency.buckets.iter_mut().zip(&words[15..]) {
            *bucket = word;
        }
        let stats = StatsOk {
            live_workers: words[0] as u32,
            max_in_flight: words[1] as u32,
            in_flight: words[2] as u32,
            queued: words[3] as u32,
            cache_len: words[4] as u32,
            cache_capacity: words[5] as u32,
            warm_started: words[6] as u32,
            connections_total: words[7],
            queries_total: words[8],
            deadline_exceeded: words[9],
            protocol_errors: words[10],
            cache_hits: words[11],
            cache_misses: words[12],
            cache_evictions: words[13],
            overload_rejections: words[14],
            replication_lag: words[0],
            repl_role: graphpi::core::net::ReplRole::Replica,
            enumerations_total: words[9],
            pages_sent: words[10],
            latency,
        };
        // The one layout round-trips every field; the retired shorter
        // layouts (no extensions, replication extension only) are refused.
        let encoded = stats.encode();
        prop_assert_eq!(StatsOk::decode(&encoded).unwrap(), stats.clone());
        prop_assert!(StatsOk::decode(&encoded[..encoded.len() - 32]).is_none());
        prop_assert!(StatsOk::decode(&encoded[..encoded.len() - 16]).is_none());
        // Aggregations over a decoded histogram must saturate, not panic,
        // even with every bucket at u64::MAX.
        let _ = stats.latency.total();
        let _ = stats.latency.percentile_upper_bound_micros(0.99);
    }

    /// Every bucket boundary is exact: a sample at a bucket's floor lands
    /// in that bucket, one microsecond below it lands in the previous
    /// one, and the last bucket absorbs everything up to `u64::MAX`.
    #[test]
    fn histogram_bucket_boundaries_are_exact(index in 0usize..HISTOGRAM_BUCKETS) {
        let floor = LatencyHistogram::bucket_floor_micros(index);
        prop_assert_eq!(LatencyHistogram::bucket_index(floor), index);
        if index > 0 && index < HISTOGRAM_BUCKETS - 1 {
            prop_assert_eq!(LatencyHistogram::bucket_index(floor - 1), index - 1);
            let next_floor = LatencyHistogram::bucket_floor_micros(index + 1);
            prop_assert_eq!(LatencyHistogram::bucket_index(next_floor - 1), index);
        }
        prop_assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    /// Recording into a full bucket saturates instead of wrapping, and a
    /// saturated histogram still aggregates without panicking.
    #[test]
    fn histogram_record_saturates_at_full_buckets(micros in 0u64..=u64::MAX) {
        let mut hist = LatencyHistogram::default();
        let bucket = LatencyHistogram::bucket_index(micros);
        hist.buckets[bucket] = u64::MAX;
        hist.record(micros);
        prop_assert_eq!(hist.buckets[bucket], u64::MAX);
        prop_assert_eq!(hist.total(), u64::MAX);
        prop_assert!(hist.percentile_upper_bound_micros(1.0).is_some());
    }

    /// The replication codecs round-trip every field combination, the
    /// same guarantee the rest of the battery gives the v1 payloads.
    #[test]
    fn replication_codecs_round_trip(
        generation in 0u64..=u64::MAX,
        offset in 0u64..=u64::MAX,
        primary_generation in 0u64..=u64::MAX,
        flavor in 0u8..3,
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let sub = ReplSubscribe { generation, offset };
        prop_assert_eq!(ReplSubscribe::decode(&sub.encode()), Some(sub));

        let payload = match flavor {
            0 => ReplPayload::Records,
            1 => ReplPayload::Checkpoint { done: false },
            _ => ReplPayload::Checkpoint { done: true },
        };
        let batch = ReplBatch {
            payload,
            primary_generation,
            generation,
            next_offset: offset,
            bytes,
        };
        prop_assert_eq!(ReplBatch::decode(&batch.encode()), Some(batch.clone()));

        let ack = ReplAck { generation, offset };
        prop_assert_eq!(ReplAck::decode(&ack.encode()), Some(ack));
        let ok = PromoteOk { generation };
        prop_assert_eq!(PromoteOk::decode(&ok.encode()), Some(ok));
    }

    /// Truncating an encoded replication payload anywhere, or appending
    /// trailing garbage, is always a decode refusal — never a panic,
    /// never a silently different value.
    #[test]
    fn replication_codecs_refuse_mangled_payloads(
        generation in 0u64..=u64::MAX,
        offset in 0u64..=u64::MAX,
        bytes in proptest::collection::vec(0u8..=255, 0..64),
        cut_seed in 0usize..10_000,
        garbage in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let batch = ReplBatch {
            payload: ReplPayload::Records,
            primary_generation: generation,
            generation,
            next_offset: offset,
            bytes,
        };
        // Every decoder refuses a strict prefix of its own encoding and
        // its own encoding with trailing garbage appended.
        let sub = ReplSubscribe { generation, offset }.encode();
        prop_assert!(ReplSubscribe::decode(&sub[..cut_seed % sub.len()]).is_none());
        let encoded = batch.encode();
        prop_assert!(ReplBatch::decode(&encoded[..cut_seed % encoded.len()]).is_none());
        let ack = ReplAck { generation, offset }.encode();
        prop_assert!(ReplAck::decode(&ack[..cut_seed % ack.len()]).is_none());
        let ok = PromoteOk { generation }.encode();
        prop_assert!(PromoteOk::decode(&ok[..cut_seed % ok.len()]).is_none());
        for encoded in [sub, encoded, ack, ok] {
            let mut trailing = encoded;
            trailing.extend_from_slice(&[0xEE; 3]);
            prop_assert!(ReplSubscribe::decode(&trailing).is_none());
            prop_assert!(ReplBatch::decode(&trailing).is_none());
            prop_assert!(ReplAck::decode(&trailing).is_none());
            prop_assert!(PromoteOk::decode(&trailing).is_none());
        }
        // Arbitrary bytes never panic any replication decoder.
        let _ = ReplSubscribe::decode(&garbage);
        let _ = ReplBatch::decode(&garbage);
        let _ = ReplAck::decode(&garbage);
        let _ = PromoteOk::decode(&garbage);
    }

    /// Backoff schedules are a pure function of the policy: deterministic
    /// under a fixed seed, one wait per retry, and every jittered wait
    /// stays within [0.5x, 1.5x) of the capped exponential base.
    #[test]
    fn retry_backoff_schedules_are_deterministic_and_bounded(
        seed in 0u64..=u64::MAX,
        attempts in 1u32..12,
        initial_ms in 1u64..50,
        max_ms in 1u64..500,
    ) {
        let policy = RetryPolicy {
            max_attempts: attempts,
            initial_backoff: Duration::from_millis(initial_ms),
            max_backoff: Duration::from_millis(max_ms),
            ..RetryPolicy::default()
        }
        .with_seed(seed);
        let schedule = policy.backoff_schedule();
        prop_assert_eq!(schedule.len(), (attempts - 1) as usize);
        // Same policy, same seed: bit-identical schedule.
        prop_assert_eq!(&policy.backoff_schedule(), &schedule);
        for (retry, wait) in schedule.iter().enumerate() {
            let base = Duration::from_millis(initial_ms)
                .saturating_mul(1 << retry.min(20))
                .min(Duration::from_millis(max_ms));
            prop_assert!(
                *wait >= base / 2,
                "retry {} waited {:?}, below half of base {:?}", retry, wait, base
            );
            prop_assert!(
                *wait <= base * 3 / 2,
                "retry {} waited {:?}, above 1.5x base {:?}", retry, wait, base
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Live-server fault battery.
// ---------------------------------------------------------------------------

/// Starts a server over a small power-law graph, hands the test body the
/// address and the pool (so it can watch `live_workers`), then drains.
fn with_server(body: impl FnOnce(SocketAddr, &Arc<WorkerPool>)) {
    let engine = GraphPi::new(generators::power_law(120, 5, 42));
    let pool = Arc::new(WorkerPool::with_max_in_flight(2, 2));
    let cache = Arc::new(PlanCache::new(8));
    let server = graphpi::core::net::Server::bind_shared(
        "127.0.0.1:0",
        Arc::clone(&pool),
        cache,
        ServeOptions {
            read_timeout: Duration::from_millis(10),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        body(addr, &pool);
        handle.shutdown();
        serving.join().unwrap();
    });
}

/// Reads the server's reply to a hand-written byte blast: either one
/// typed error frame (returning its code) or a clean drop (`None`).
fn reply_after(addr: SocketAddr, raw: &[u8]) -> Option<ErrorCode> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    // The server may need a read-timeout tick to classify a stall; give
    // the reply loop plenty of slack.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match protocol::read_frame(&mut stream) {
        Ok(frame) => {
            assert_eq!(
                frame.opcode,
                op::ERROR,
                "non-error reply to malformed input"
            );
            Some(
                WireError::decode(&frame.payload)
                    .expect("undecodable error payload")
                    .code,
            )
        }
        Err(NetError::Closed) => None,
        Err(other) => panic!("unexpected failure reading the reply: {other}"),
    }
}

/// After an error frame that closes the connection, the stream must
/// actually reach EOF.
fn assert_connection_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(
        stream.read(&mut buf).unwrap_or(0),
        0,
        "connection still open"
    );
}

#[test]
fn fault_battery_leaves_the_server_standing() {
    with_server(|addr, pool| {
        let workers_before = pool.live_workers();
        let expected = {
            // In-process baseline for the validity probes between faults.
            let mut client = Client::connect(addr).unwrap();
            client.count(&prefab::triangle()).unwrap().count
        };

        // Case 1: truncated length prefix, then disconnect.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&[7u8, 0]).unwrap();
            drop(stream); // mid-prefix disconnect: clean drop, no reply owed
        }

        // Case 2: length prefix below the minimum header size.
        let code = reply_after(addr, &2u32.to_le_bytes());
        assert_eq!(code, Some(ErrorCode::BadFrame));

        // Case 3: oversized length prefix — refused before allocation.
        let code = reply_after(addr, &((MAX_FRAME_LEN as u32 + 1).to_le_bytes()));
        assert_eq!(code, Some(ErrorCode::FrameTooLarge));

        // Case 4: wrong magic.
        let mut bad_magic = Frame::new(op::PING, vec![]).encode();
        bad_magic[4] = b'X';
        assert_eq!(reply_after(addr, &bad_magic), Some(ErrorCode::BadFrame));

        // Case 5: wrong version, including the retired version 1.
        for version in [99, 1] {
            let mut bad_version = Frame::new(op::PING, vec![]).encode();
            bad_version[6] = version;
            assert_eq!(
                reply_after(addr, &bad_version),
                Some(ErrorCode::UnsupportedVersion)
            );
        }

        // Case 6: mid-frame disconnect — a length prefix promising 100
        // bytes, 10 delivered, then the socket vanishes.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&100u32.to_le_bytes()).unwrap();
            stream.write_all(&[0xAB; 10]).unwrap();
            drop(stream);
        }

        // Case 7: mid-frame stall — same partial frame, but the client
        // keeps the socket open and goes silent. The read timeout must
        // classify it as truncation and cut it off, not hang a handler.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&100u32.to_le_bytes()).unwrap();
            stream.write_all(&[0xCD; 10]).unwrap();
            let reply = {
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                protocol::read_frame(&mut stream)
            };
            match reply {
                Ok(frame) => assert_eq!(frame.opcode, op::ERROR),
                Err(NetError::Closed) => {}
                Err(other) => panic!("stalled frame got {other}"),
            }
            assert_connection_closed(&mut stream);
        }

        // Case 8: unknown opcode in a well-formed frame — typed error and
        // the connection SURVIVES for the next request.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&Frame::new(0x55, vec![1, 2, 3]).encode())
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let frame = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(frame.opcode, op::ERROR);
            assert_eq!(
                WireError::decode(&frame.payload).unwrap().code,
                ErrorCode::UnknownOpcode
            );
            // Same connection still serves a valid ping.
            stream
                .write_all(&Frame::new(op::PING, vec![9]).encode())
                .unwrap();
            let pong = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(pong.opcode, op::PONG);
            assert_eq!(pong.payload, vec![9]);
        }

        // Case 9: COUNT with an undecodable payload — typed error, then a
        // valid count on the same connection returns the right answer.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&Frame::new(op::COUNT, vec![0, 1]).encode())
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let frame = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(
                WireError::decode(&frame.payload).unwrap().code,
                ErrorCode::BadPayload
            );
            let valid = CountRequest {
                no_iep: false,
                hub_bitsets: false,
                deadline_ms: 0,
                request_id: 0,
                min_generation: 0,
                mode: QueryMode::Count,
                pattern: prefab::triangle().canonical_bytes(),
            };
            stream
                .write_all(&Frame::new(op::COUNT, valid.encode()).encode())
                .unwrap();
            let reply = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(reply.opcode, op::COUNT_OK);
        }

        // Case 10: pattern bytes that are not a canonical pattern (a
        // self-loop) — BadPayload, connection stays.
        {
            let request = CountRequest {
                no_iep: false,
                hub_bitsets: false,
                deadline_ms: 0,
                request_id: 0,
                min_generation: 0,
                mode: QueryMode::Count,
                pattern: vec![2, 0b01], // vertex 0 adjacent to itself
            };
            let mut client = Client::connect(addr).unwrap();
            client.count(&prefab::triangle()).unwrap(); // warm the connection first
                                                        // Hand-roll the bad request through the same socket.
            let mut t = client.into_transport();
            use graphpi::core::net::Transport;
            t.send(&Frame::new(op::COUNT, request.encode())).unwrap();
            let error = match t.recv() {
                Ok(frame) if frame.opcode == op::ERROR => {
                    WireError::decode(&frame.payload).unwrap().into_net_error()
                }
                Ok(_) => panic!("bad pattern bytes were accepted"),
                Err(e) => e,
            };
            assert!(matches!(
                error,
                NetError::Remote {
                    code: ErrorCode::BadPayload,
                    ..
                }
            ));
        }

        // Case 11: a decodable but engine-rejected pattern (empty) —
        // PatternRejected, connection stays open.
        {
            let mut client = Client::connect(addr).unwrap();
            let error = client
                .count(&graphpi::pattern::Pattern::empty(0))
                .unwrap_err();
            assert!(matches!(
                error,
                NetError::Remote {
                    code: ErrorCode::PatternRejected,
                    ..
                }
            ));
            client.ping().unwrap();
        }

        // Give stall-classification handlers time to finish their drops.
        std::thread::sleep(Duration::from_millis(50));

        // The battery killed no workers and the server still answers
        // correctly, with the faults showing up in its own accounting.
        assert_eq!(pool.live_workers(), workers_before, "a worker died");
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.count(&prefab::triangle()).unwrap().count, expected);
        let stats = client.stats().unwrap();
        assert!(
            stats.protocol_errors >= 6,
            "expected the faults to be counted, saw {}",
            stats.protocol_errors
        );
        assert_eq!(stats.live_workers as usize, workers_before);
    });
}

#[test]
fn frames_pipelined_back_to_back_all_get_replies() {
    // Several valid requests written in one burst must each get exactly
    // one reply, in order — the framing keeps sync without per-request
    // round trips.
    with_server(|addr, _pool| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let count = CountRequest {
            no_iep: false,
            hub_bitsets: false,
            deadline_ms: 0,
            request_id: 0,
            min_generation: 0,
            mode: QueryMode::Count,
            pattern: prefab::triangle().canonical_bytes(),
        };
        let mut burst = Vec::new();
        burst.extend_from_slice(&Frame::new(op::PING, vec![1]).encode());
        burst.extend_from_slice(&Frame::new(op::COUNT, count.encode()).encode());
        burst.extend_from_slice(&Frame::new(op::STATS, vec![]).encode());
        stream.write_all(&burst).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(protocol::read_frame(&mut stream).unwrap().opcode, op::PONG);
        assert_eq!(
            protocol::read_frame(&mut stream).unwrap().opcode,
            op::COUNT_OK
        );
        assert_eq!(
            protocol::read_frame(&mut stream).unwrap().opcode,
            op::STATS_OK
        );
    });
}
