//! Closed-loop client lanes: each lane owns one connection and sends its
//! next request only after the previous reply arrived, as the CLI and
//! `Client` do.

use crate::inputs::EdgeMirror;
use crate::trace::{Tracer, ROOT};
use crate::util::ms;
use graphpi_core::net::{Client, NetError};
use graphpi_pattern::Pattern;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Request ids shared by every span of one request.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

pub fn next_request() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// What one lane measured.
#[derive(Debug, Default)]
pub struct Lane {
    /// `(pattern index, latency)` of every successful read, in the order
    /// the replies arrived.
    pub reads_ms: Vec<(usize, f64)>,
    /// Latency of every successful write.
    pub writes_ms: Vec<f64>,
    /// Wall time of every completed pass (a fixed number of operations).
    pub passes_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Time from the lane's start to its last reply.
    pub elapsed: Duration,
}

impl Lane {
    pub fn record_read(&mut self, pattern: usize, latency: Duration) {
        self.reads_ms.push((pattern, ms(latency)));
    }

    /// Successful reads.
    pub fn reads(&self) -> u64 {
        self.reads_ms.len() as u64
    }

    /// Lanes that ran at the same time: the window is the longest lane's.
    pub fn merge(lanes: Vec<Lane>) -> Lane {
        Self::combine(lanes, Duration::max)
    }

    /// Lanes that ran one after another: the window is their sum.
    pub fn chain(lanes: Vec<Lane>) -> Lane {
        Self::combine(lanes, |a, b| a + b)
    }

    fn combine(lanes: Vec<Lane>, window: fn(Duration, Duration) -> Duration) -> Lane {
        let mut all = Lane::default();
        for lane in lanes {
            all.reads_ms.extend(lane.reads_ms);
            all.writes_ms.extend(lane.writes_ms);
            all.passes_s.extend(lane.passes_s);
            all.attempted += lane.attempted;
            all.failed += lane.failed;
            all.mismatches.extend(lane.mismatches);
            all.elapsed = window(all.elapsed, lane.elapsed);
        }
        all
    }
}

/// One reader connection's load: the mix walked in a fixed seeded order.
pub struct ReadLoad<'a> {
    pub mix: &'a [(&'static str, Pattern)],
    pub sequence: &'a [usize],
    pub offset: usize,
    /// Expected count per mix pattern, when every reply can be checked.
    pub expected: Option<&'a [u64]>,
}

/// One counted remote read inside a `net.count.<name>` span whose child
/// `net.server_exec` is the execution time the server reports.
fn traced_count(
    client: &mut Client,
    name: &str,
    pattern: &Pattern,
    tracer: &Tracer,
) -> Result<u64, NetError> {
    let request = next_request();
    tracer.span(&format!("net.count.{name}"), ROOT, request, |id| {
        let reply = client.count(pattern)?;
        if tracer.is_on() {
            let end = tracer.now_ns();
            let exec = reply.elapsed.as_nanos() as u64;
            tracer.record(
                "net.server_exec",
                id,
                request,
                end.saturating_sub(exec),
                end,
            );
        }
        Ok(reply.count)
    })
}

/// Sends the `i`-th read of the load's sequence and checks the answer.
pub fn read_once(
    load: &ReadLoad<'_>,
    i: usize,
    client: &mut Client,
    tracer: &Tracer,
    lane: &mut Lane,
) {
    let which = load.sequence[(load.offset + i) % load.sequence.len()];
    let (name, pattern) = &load.mix[which];
    lane.attempted += 1;
    let t = Instant::now();
    match traced_count(client, name, pattern, tracer) {
        Ok(count) => {
            lane.record_read(which, t.elapsed());
            if let Some(expected) = load.expected {
                if count != expected[which] {
                    lane.mismatches.push(format!(
                        "remote {name} count {count} != in-process {}",
                        expected[which]
                    ));
                }
            }
        }
        Err(e) => {
            eprintln!("read failed: {e}");
            lane.failed += 1;
        }
    }
}

/// `n` traced `PING`s on one connection: the bare round trip, sent after
/// a traced window so that they do not count as tracing overhead.
pub fn pings(client: &mut Client, n: usize, tracer: &Tracer, lane: &mut Lane) {
    for _ in 0..n {
        lane.attempted += 1;
        let pong = tracer.span("net.ping", ROOT, next_request(), |_| client.ping());
        if pong.is_err() {
            lane.failed += 1;
        }
    }
}

/// Runs reads until `until`; a pass is one walk of the whole sequence.
pub fn read_lane(
    load: &ReadLoad<'_>,
    client: &mut Client,
    tracer: &Tracer,
    until: Instant,
) -> Lane {
    let mut lane = Lane::default();
    let start = Instant::now();
    let mut pass_start = start;
    let mut i = 0usize;
    while Instant::now() < until {
        read_once(load, i, client, tracer, &mut lane);
        i += 1;
        if i.is_multiple_of(load.sequence.len()) {
            let now = Instant::now();
            lane.passes_s.push((now - pass_start).as_secs_f64());
            pass_start = now;
        }
    }
    lane.elapsed = start.elapsed();
    lane
}

/// Sends one batch drawn from the mirror (see [`EdgeMirror::next_batch`]).
/// The reply must carry the generation after `generation` (generations are
/// contiguous) and report every insert and delete of the batch as
/// effective. Returns the generation acked, or `generation` when the batch
/// failed.
pub fn write_once(
    edges_per_side: usize,
    grow: Option<bool>,
    client: &mut Client,
    mirror: &mut EdgeMirror,
    generation: u64,
    tracer: &Tracer,
    lane: &mut Lane,
) -> u64 {
    let (inserts, deletes) = mirror.next_batch(edges_per_side, grow);
    lane.attempted += 1;
    let t = Instant::now();
    let reply = tracer.span("net.update", ROOT, next_request(), |_| {
        client.update(&inserts, &deletes)
    });
    match reply {
        Ok(ok) => {
            lane.writes_ms.push(ms(t.elapsed()));
            if ok.generation != generation + 1 {
                lane.mismatches.push(format!(
                    "update acked generation {} after {generation}",
                    ok.generation
                ));
            }
            if ok.inserted as usize != inserts.len() || ok.deleted as usize != deletes.len() {
                lane.mismatches.push(format!(
                    "update applied +{} -{} of +{} -{}",
                    ok.inserted,
                    ok.deleted,
                    inserts.len(),
                    deletes.len()
                ));
            }
            ok.generation
        }
        Err(e) => {
            // The mirror already holds the batch; a refused batch makes
            // the final-graph check fail, as it should.
            eprintln!("update failed: {e}");
            lane.failed += 1;
            generation
        }
    }
}
