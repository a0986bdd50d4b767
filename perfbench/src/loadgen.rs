//! The load generator: one TCP connection driven by the calling thread,
//! which sends, reads and checks every reply.
//!
//! * open phase — Poisson arrivals at a fixed rate, each request timed
//!   from its *intended* send time, so a stall that delays later sends
//!   is charged to those requests (no coordinated omission);
//! * sat phase — a closed loop that keeps a fixed window of requests in
//!   flight, each timed from its actual send.
//!
//! A run alternates the two in rounds (see `main.rs`); each round's part
//! of a phase is one call of [`run_phase`] and one window of it.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use proxy_wire::frame::split_frame;
use proxy_wire::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Sample;
use crate::trace::Tracer;
use crate::world::{check_reply, Expect, Inputs, Item, Verdict};

/// A request with no reply for this long (and no other reply arriving
/// meanwhile) has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// The open phase's results are invalid when the generator sent its
/// requests later than this at the 99th percentile: it was then
/// measuring its own backlog, not the server.
pub const SEND_LAG_BOUND_US: f64 = 20_000.0;
/// First arrival of the open phase, after the connection is up.
const OPEN_START: Duration = Duration::from_millis(2);
/// Violation messages kept for printing.
const KEEP_VIOLATIONS: usize = 10;

#[derive(Clone, Copy, Debug)]
pub enum Mode {
    Open { rate: f64, seed: u64 },
    Closed { window: usize },
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    /// Replies that were what the request had to get.
    pub correct: u64,
    /// Of those, injected requests correctly refused.
    pub refused: u64,
    /// Of those, settled deposits.
    pub settled: u64,
    /// Requests that failed (transport error, timeout, wrong reply type,
    /// refused when they had to be accepted, or a violation).
    pub failed: u64,
    pub violation_count: u64,
    pub violations: Vec<String>,
    pub failures: Vec<String>,
    /// Requests that had to be refused.
    pub injected: u64,
    /// Per request: µs from the intended (open) or actual (closed) send
    /// to the decoded reply; `+∞` for a failed request.
    pub latency_us: Sample,
    /// Per request: µs the send ran behind its intended time (open).
    pub send_lag_us: Sample,
    pub outstanding_max: usize,
    /// From the first send to the last correct reply, summed over the
    /// windows.
    pub elapsed_s: f64,
    /// Correct replies per second in each call of [`run_phase`] (first
    /// send to last correct reply), in order.
    pub window_ops_s: Vec<f64>,
}

impl PhaseResult {
    /// The open phase measured the server only if the generator kept
    /// its schedule.
    pub fn send_lag_p99(&self) -> f64 {
        self.send_lag_us
            .pct(0.99)
            .or(self.send_lag_us.max())
            .unwrap_or(0.0)
    }

    pub fn schedule_kept(&self) -> bool {
        self.send_lag_p99() <= SEND_LAG_BOUND_US
    }

    /// One result for a phase run as `parts`, one window each.
    pub fn merge(parts: Vec<PhaseResult>) -> PhaseResult {
        let mut m = PhaseResult::default();
        let (mut latency, mut lags) = (Vec::new(), Vec::new());
        for part in parts {
            m.attempted += part.attempted;
            m.correct += part.correct;
            m.refused += part.refused;
            m.settled += part.settled;
            m.failed += part.failed;
            m.injected += part.injected;
            m.violation_count += part.violation_count;
            let room = KEEP_VIOLATIONS - m.violations.len();
            m.violations.extend(part.violations.into_iter().take(room));
            let room = KEEP_VIOLATIONS - m.failures.len();
            m.failures.extend(part.failures.into_iter().take(room));
            latency.extend(part.latency_us.into_vec());
            lags.extend(part.send_lag_us.into_vec());
            m.outstanding_max = m.outstanding_max.max(part.outstanding_max);
            m.elapsed_s += part.elapsed_s;
            m.window_ops_s.extend(part.window_ops_s);
        }
        m.latency_us = Sample::new(latency);
        m.send_lag_us = Sample::new(lags);
        m
    }

    fn violation(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < KEEP_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    fn failure(&mut self, msg: String) {
        if self.failures.len() < KEEP_VIOLATIONS {
            self.failures.push(msg);
        }
    }
}

/// Copies a pooled frame into `out` with request id `id`, re-sealing
/// the CRC trailer (header layout: magic 4, version 1, type 1, id 8).
fn put_frame(out: &mut Vec<u8>, frame: &[u8], id: u64) {
    let start = out.len();
    out.extend_from_slice(frame);
    let end = out.len();
    out[start + 6..start + 14].copy_from_slice(&id.to_le_bytes());
    let crc = proxy_wire::crc::crc32(&out[start..end - 4]);
    out[end - 4..end].copy_from_slice(&crc.to_le_bytes());
}

/// Appends to `schedule` the intended send offsets (ns after the phase
/// epoch) of `n` Poisson arrivals at `rate` per second.
fn poisson_schedule_into(schedule: &mut Vec<u64>, n: usize, rate: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = OPEN_START.as_secs_f64();
    schedule.extend((0..n).map(|_| {
        let at = (t * 1e9) as u64;
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        at
    }));
}

/// The per-request storage of one phase, allocated and written before
/// the phase starts. A run allocates every phase's buffers before the
/// server's world is built, so the memory the server gains while it
/// serves is not mixed with the generator's bookkeeping (see
/// `stats::reset_peak_rss`).
pub struct PhaseBuffers {
    schedule: Vec<u64>,
    sent_ns: Vec<u64>,
    latency_us: Vec<f64>,
    verdicts: Vec<Option<Verdict>>,
    lags: Vec<f64>,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    chunk: Vec<u8>,
}

impl PhaseBuffers {
    /// Buffers for a phase of `n` requests, every page touched.
    pub fn new(n: usize) -> Self {
        Self {
            schedule: vec![0; n],
            sent_ns: vec![u64::MAX; n],
            latency_us: vec![f64::INFINITY; n],
            verdicts: (0..n).map(|_| None).collect(),
            lags: vec![0.0; n],
            out: vec![0; 64 * 1024],
            inbuf: vec![0; 256 * 1024],
            chunk: vec![0; 64 * 1024],
        }
    }
}

/// One nonblocking generator connection, kept open across every part
/// of a phase; after a part fails on it, later parts fail at once.
pub struct Conn {
    stream: Result<TcpStream, String>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr)
            .and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            })
            .map_err(|e| format!("connect: {e}"));
        Conn { stream }
    }
}

/// Runs one phase, or one part of it, over `conn`. Request `i` of
/// `items` carries id `id_base + i`. `bufs` must have been made for at
/// least `items.len()` requests.
///
/// One thread does all the work, polling a nonblocking socket without
/// ever sleeping: sends leave on schedule and replies are stamped as
/// they land, with no thread wake-up of the generator's own inside a
/// measured latency.
pub fn run_phase(
    conn: &mut Conn,
    inputs: &Inputs,
    items: &[Item],
    id_base: u64,
    mode: Mode,
    tracer: Option<&Tracer>,
    bufs: PhaseBuffers,
) -> PhaseResult {
    let n = items.len();
    let mut result = PhaseResult {
        attempted: n as u64,
        injected: Inputs::injected(items) as u64,
        ..PhaseResult::default()
    };
    if n == 0 {
        return result;
    }
    assert!(
        bufs.sent_ns.len() >= n,
        "phase buffers made for fewer requests"
    );
    let PhaseBuffers {
        mut schedule,
        mut sent_ns,
        mut latency_us,
        mut verdicts,
        mut lags,
        mut out,
        mut inbuf,
        mut chunk,
    } = bufs;
    let stream = match &mut conn.stream {
        Ok(s) => s,
        Err(e) => {
            result.failed = n as u64;
            result.failure(e.clone());
            return result;
        }
    };
    schedule.clear();
    if let Mode::Open { rate, seed } = mode {
        poisson_schedule_into(&mut schedule, n, rate, seed);
    }
    sent_ns.truncate(n);
    sent_ns.fill(u64::MAX);
    latency_us.truncate(n);
    latency_us.fill(f64::INFINITY);
    let mut last_reply_ns = 0;
    verdicts.truncate(n);
    verdicts.iter_mut().for_each(|v| *v = None);
    lags.clear();
    out.clear();
    let mut out_at = 0;
    inbuf.clear();
    let (mut sent, mut answered) = (0usize, 0usize);
    let epoch = Instant::now();
    let mut last_progress = epoch;
    'phase: while answered < n {
        let now = Instant::now();
        let now_ns = now.duration_since(epoch).as_nanos() as u64;
        // Queue every request that is due, once the previous batch has
        // left: a send held back by a full socket counts as lag.
        if out_at == out.len() {
            out.clear();
            out_at = 0;
            match mode {
                Mode::Open { .. } => {
                    while sent < n && schedule[sent] <= now_ns {
                        lags.push((now_ns - schedule[sent]) as f64 / 1e3);
                        sent_ns[sent] = schedule[sent];
                        put_frame(
                            &mut out,
                            &inputs.frames[items[sent].frame as usize],
                            id_base + sent as u64,
                        );
                        sent += 1;
                    }
                }
                Mode::Closed { window } => {
                    while sent < n && sent - answered < window {
                        sent_ns[sent] = now_ns;
                        put_frame(
                            &mut out,
                            &inputs.frames[items[sent].frame as usize],
                            id_base + sent as u64,
                        );
                        sent += 1;
                    }
                }
            }
        }
        result.outstanding_max = result.outstanding_max.max(sent - answered);
        if out_at < out.len() {
            match stream.write(&out[out_at..]) {
                Ok(k) => out_at += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => {
                    result.failure(format!("send: {e}"));
                    break 'phase;
                }
            }
        }
        let k = match stream.read(&mut chunk) {
            Ok(0) => {
                result.failure("server closed the connection".into());
                break;
            }
            Ok(k) => k,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if sent > answered && last_progress.elapsed() > REPLY_TIMEOUT {
                    result.failure(format!(
                        "{} requests unanswered after {REPLY_TIMEOUT:?}",
                        sent - answered
                    ));
                    break;
                }
                // Nothing to read: let a server thread the scheduler put
                // on this CPU run now, not when this thread's slice ends.
                std::thread::yield_now();
                continue;
            }
            Err(e) => {
                result.failure(format!("receive: {e}"));
                break;
            }
        };
        let now = Instant::now();
        let now_ns = now.duration_since(epoch).as_nanos() as u64;
        last_progress = now;
        inbuf.extend_from_slice(&chunk[..k]);
        let mut at = 0;
        loop {
            let (header, body, total) = match split_frame(&inbuf[at..]) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    result.violation(format!("reply stream corrupt: {e}"));
                    break 'phase;
                }
            };
            at += total;
            let idx = header.request_id.wrapping_sub(id_base) as usize;
            if idx >= sent || verdicts[idx].is_some() {
                result.violation(format!("reply to unknown request id {}", header.request_id));
                continue;
            }
            answered += 1;
            let verdict = match Message::decode_body(header.msg_type, body) {
                Ok(reply) => check_reply(items[idx].expect, &reply),
                Err(e) => Verdict::Violation(format!("reply does not decode: {e}")),
            };
            if matches!(verdict, Verdict::Correct { .. }) {
                latency_us[idx] = now_ns.saturating_sub(sent_ns[idx]) as f64 / 1e3;
                last_reply_ns = now_ns;
                if let Some(t) = tracer {
                    t.record(
                        "loadgen.request",
                        epoch + Duration::from_nanos(sent_ns[idx]),
                        now,
                        id_base + idx as u64,
                    );
                }
            }
            verdicts[idx] = Some(verdict);
        }
        inbuf.drain(..at);
    }
    if answered < n {
        conn.stream = Err("the connection failed in an earlier part of the phase".into());
    }
    for (i, verdict) in verdicts.drain(..).enumerate() {
        match verdict {
            None => result.failed += 1,
            Some(Verdict::Correct { refused }) => {
                result.correct += 1;
                result.refused += u64::from(refused);
                result.settled += u64::from(matches!(items[i].expect, Expect::Settled(_)));
            }
            Some(Verdict::Failed(msg)) => {
                result.failed += 1;
                result.failure(msg);
            }
            Some(Verdict::Violation(msg)) => {
                result.failed += 1;
                result.violation(msg);
            }
        }
    }
    let first_send = sent_ns.iter().copied().min().unwrap_or(0);
    result.elapsed_s = last_reply_ns.saturating_sub(first_send) as f64 / 1e9;
    result.latency_us = Sample::new(latency_us);
    result.send_lag_us = Sample::new(lags);
    let ops_s = result.correct as f64 / result.elapsed_s.max(1e-9);
    result.window_ops_s.push(ops_s);
    result
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use proxy_net::EventLoopServer;
    use proxy_storage::{Recovered, Storage, StorageError, Ticket};

    use super::*;
    use crate::world::{Counts, Durability, Kind, World, SPECS};

    const STALL: Duration = Duration::from_millis(10);

    /// Forwards to `inner`; the `countdown`-th `wait_durable` after the
    /// countdown is set sleeps for [`STALL`] first.
    #[derive(Debug)]
    struct StallOnce {
        inner: Arc<dyn Storage>,
        countdown: Arc<AtomicU64>,
    }

    impl Storage for StallOnce {
        fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
            self.inner.stage(record)
        }

        fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
            let before = self
                .countdown
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
                .unwrap_or(0);
            if before == 1 {
                std::thread::sleep(STALL);
            }
            self.inner.wait_durable(ticket)
        }

        fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
            self.inner.install_snapshot(state)
        }

        fn load(&self) -> Result<Recovered, StorageError> {
            self.inner.load()
        }
    }

    /// [`run_phase`] untraced, on buffers of its own.
    fn phase(
        addr: SocketAddr,
        inputs: &Inputs,
        items: &[Item],
        id_base: u64,
        mode: Mode,
    ) -> PhaseResult {
        let bufs = PhaseBuffers::new(items.len());
        run_phase(
            &mut Conn::open(addr),
            inputs,
            items,
            id_base,
            mode,
            None,
            bufs,
        )
    }

    fn spec(kind: Kind) -> crate::world::Spec {
        SPECS
            .into_iter()
            .find(|s| s.kind == kind)
            .expect("every kind has a spec")
    }

    /// Open phase without and with the stall, then a closed loop with
    /// it: the three phases' p99 latencies (µs).
    fn stall_scenario(seed: u64) -> (f64, f64, f64, f64) {
        // 1,200 requests per phase; at 2,000/s a 10 ms stall holds back
        // ~20 arrivals, more than the 12 that lie beyond the p99.
        let per_phase = 1200;
        let inputs = Inputs::generate(
            spec(Kind::DepositDurable),
            seed,
            Counts {
                warm: 100,
                open: 2 * per_phase,
                sat: per_phase,
                rounds: 1,
            },
        );
        let countdown = Arc::new(AtomicU64::new(0));
        let wrap = |inner: Arc<dyn Storage>| -> Arc<dyn Storage> {
            Arc::new(StallOnce {
                inner,
                countdown: Arc::clone(&countdown),
            })
        };
        let world = World::build(&inputs, &Durability::Mem, None, Some(&wrap));
        let server = EventLoopServer::spawn(Arc::clone(&world.mux), seed).expect("binds loopback");
        crate::colocate_for_test();
        let addr = server.addr();
        let open = Mode::Open { rate: 2000.0, seed };
        let closed = Mode::Closed { window: 4 };
        let warm = phase(addr, &inputs, &inputs.warm, 0, closed);
        let (calm, stalled) = inputs.open.split_at(per_phase);
        let base = inputs.warm.len() as u64;
        let calm = phase(addr, &inputs, calm, base, open);
        countdown.store(300, Ordering::SeqCst);
        let stalled = phase(addr, &inputs, stalled, base + per_phase as u64, open);
        countdown.store(300, Ordering::SeqCst);
        let sat = phase(
            addr,
            &inputs,
            &inputs.sat,
            base + 2 * per_phase as u64,
            closed,
        );
        for r in [&warm, &calm, &stalled, &sat] {
            assert_eq!(r.failed, 0, "{:?} {:?}", r.failures, r.violations);
        }
        let p99 = |r: &PhaseResult| r.latency_us.pct(0.99).expect("1,200 samples");
        let sat_max = sat.latency_us.max().expect("samples");
        (p99(&calm), p99(&stalled), p99(&sat), sat_max)
    }

    #[test]
    fn one_stall_raises_open_p99_and_hides_in_the_closed_loop() {
        let _alone = crate::test_alone();
        let stall_us = STALL.as_secs_f64() * 1e6;
        // A generator that timed requests from their actual send would
        // fail every attempt: only the one or two requests in flight
        // would see the stall. Host noise alone can spoil one attempt,
        // so the claim must hold in one of three.
        let mut seen = Vec::new();
        for seed in 11..14 {
            let (calm, stalled, closed, closed_max) = stall_scenario(seed);
            seen.push((calm, stalled, closed));
            if stalled >= calm + stall_us / 4.0 && closed < stall_us / 4.0 && closed_max >= stall_us
            {
                return;
            }
        }
        panic!("(calm open p99, stalled open p99, stalled closed p99) µs per attempt: {seen:.0?}");
    }

    #[test]
    fn an_open_phase_the_generator_cannot_keep_is_flagged() {
        let _alone = crate::test_alone();
        let inputs = Inputs::generate(
            spec(Kind::AuthzQuery),
            3,
            Counts {
                warm: 0,
                open: 200_000,
                sat: 0,
                rounds: 1,
            },
        );
        let world = World::build(&inputs, &Durability::Mem, None, None);
        let server = EventLoopServer::spawn(Arc::clone(&world.mux), 3).expect("binds loopback");
        // Ten times what one server worker answers, for longer than the
        // socket buffers can absorb: the generator's sends fall behind
        // their schedule.
        let overload = Mode::Open {
            rate: 1_000_000.0,
            seed: 1,
        };
        let r = phase(server.addr(), &inputs, &inputs.open, 0, overload);
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert!(
            !r.schedule_kept(),
            "send lag p99 {:.0} µs within the {SEND_LAG_BOUND_US} µs bound",
            r.send_lag_p99()
        );
        let calm = Mode::Open {
            rate: 1000.0,
            seed: 2,
        };
        let r = phase(server.addr(), &inputs, &inputs.open[..1000], 200_000, calm);
        assert!(
            r.schedule_kept(),
            "send lag p99 {:.0} µs at 1,000/s",
            r.send_lag_p99()
        );
    }
}
