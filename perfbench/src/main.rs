//! Open-loop service benchmark for the paper's three request paths
//! (Fig. 3 authorization query, Fig. 4 cascade verification, Fig. 5
//! check deposit), served by `proxy_net::EventLoopServer` with default
//! options over loopback TCP.
//!
//! ```text
//! perfbench --workload <authz-query|cascade-verify|deposit-durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the same seed again and prints the per-layer metrics.
//! The last line of standard output is one JSON object. The exit code
//! is nonzero when any reply is wrong (see `world::check_reply`), when
//! currency is not conserved, or when the generator could not keep the
//! open phase's schedule. `perfbench/NOTES.md` explains the workloads
//! and metrics.

mod calib;
mod layers;
mod loadgen;
mod stats;
mod trace;
mod world;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use proxy_net::EventLoopServer;

use calib::Calibrator;
use loadgen::{run_phase, Conn, Mode, PhaseBuffers, PhaseResult};
use stats::Sample;
use trace::Tracer;
use world::{split, Durability, Inputs, Kind, Spec, World, SPECS};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Calibration readings taken on each side of a set-up.
const SETUP_READINGS: usize = 10;
/// Requests the sat phase's closed loop keeps in flight.
const SAT_WINDOW: usize = 16;
/// Scratch space (WAL directories, span logs), under the working
/// directory.
const SCRATCH: &str = ".perfbench";
/// Open-phase requests the in-process twins replay: enough for every
/// per-layer percentile, few enough to keep a traced run short.
const TWIN_REQUESTS: usize = 20_000;
/// Name of the main thread (the program's name).
const MAIN_THREAD: &str = "perfbench";
/// Name prefix of `EventLoopServer`'s worker threads.
const SERVER_THREADS: &str = "event-loop";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .copied()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed and reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The polling generator (the main thread) and the server's workers all
/// run on one CPU, the last. The generator yields whenever it has
/// nothing to read, so a request is served as soon as it is written.
/// On separate CPUs every request would wait for the server's idle
/// virtual CPU to be woken, and that wake-up time varies between runs
/// far more than the work being measured.
const PIN_CPU_FROM_END: usize = 1;

fn pin_cpu() -> usize {
    cpus() - PIN_CPU_FROM_END
}

fn pin_main() -> bool {
    stats::pin_threads(MAIN_THREAD, pin_cpu()) == 1
}

fn pin_server() {
    stats::pin_threads(SERVER_THREADS, pin_cpu());
}

/// CPUs available to the process, read once before any pinning (which
/// narrows what `available_parallelism` reports for the pinned thread).
fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A set-up: generated inputs, the world, its running server, and the
/// warm-up that brought it to steady state. Fields drop in order, so
/// the server stops before the world removes its WAL directory.
struct Setup {
    server: EventLoopServer,
    world: World,
    inputs: Inputs,
    warm: PhaseResult,
    /// The measured phases' buffers, one per round, made before the
    /// world.
    open_bufs: Vec<PhaseBuffers>,
    sat_bufs: Vec<PhaseBuffers>,
    /// Resident KiB when the world's build began, with the inputs and
    /// every phase's buffers already allocated; the peak counter was
    /// reset to it then.
    rss_base_kib: u64,
}

fn setup(args: &Args, scratch: &Path, tracer: Option<&Arc<Tracer>>) -> Setup {
    let inputs = Inputs::generate(args.spec, args.seed, args.spec.counts(args.seconds));
    let warm_bufs = PhaseBuffers::new(inputs.warm.len());
    let bufs = |items: &[world::Item]| -> Vec<PhaseBuffers> {
        split(items, inputs.rounds)
            .iter()
            .map(|part| PhaseBuffers::new(part.len()))
            .collect()
    };
    let (open_bufs, sat_bufs) = (bufs(&inputs.open), bufs(&inputs.sat));
    let rss_base_kib = stats::reset_peak_rss()
        .unwrap_or_else(|e| panic!("cannot reset the peak resident set size: {e}"));
    let world = World::build(
        &inputs,
        &Durability::Wal(world::fresh_wal_dir(scratch)),
        tracer,
        None,
    );
    let server = EventLoopServer::spawn(Arc::clone(&world.mux), args.seed)
        .expect("the server binds loopback");
    pin_server();
    let warm = run_phase(
        &mut Conn::open(server.addr()),
        &inputs,
        &inputs.warm,
        0,
        Mode::Closed { window: SAT_WINDOW },
        None,
        warm_bufs,
    );
    Setup {
        server,
        world,
        inputs,
        warm,
        open_bufs,
        sat_bufs,
        rss_base_kib,
    }
}

/// The measured phases of one set-up, with the readings taken around
/// them.
struct Run {
    open: PhaseResult,
    sat: PhaseResult,
    /// Calibration readings (µs per exchange): one before the first
    /// round, then one between the open and sat windows of each round
    /// and one after its sat window. Open window `r` lies between
    /// readings `2r` and `2r + 1`, sat window `r` between `2r + 1` and
    /// `2r + 2`.
    calib_us: Vec<f64>,
    /// Each open window's median latency (µs), in order.
    open_window_p50_us: Vec<f64>,
    /// Seal-cache (hits, misses) before the open phase and after the sat
    /// phase.
    cache_before: (u64, u64),
    cache_after: (u64, u64),
    /// Server-thread CPU µs and context switches over the sat phase.
    sat_cpu_us: u64,
    sat_ctx_switches: u64,
    /// The generator's (this thread's) CPU µs over the sat phase.
    sat_gen_cpu_us: u64,
    /// Peak resident KiB gained since the world's build began: the
    /// server's memory (world, event loop, journal), not the generator's.
    server_rss_kib: u64,
}

/// Runs the open and sat phases, alternating in rounds: each round
/// sends its share of the open phase, then its share of the sat phase,
/// each as one window. The host's speed drifts over seconds, so both
/// phases sample the whole run. `tracer`, if given, times the open
/// phase only, and the timing storage (if any) records only then.
fn measure(args: &Args, s: &mut Setup, calib: &mut Calibrator, tracer: Option<&Tracer>) -> Run {
    let inputs = &s.inputs;
    let open_parts = split(&inputs.open, inputs.rounds);
    let sat_parts = split(&inputs.sat, inputs.rounds);
    let record = |on: bool| {
        if let Some(t) = &s.world.storage {
            t.recording.store(on, std::sync::atomic::Ordering::Relaxed);
        }
    };
    let open_base = inputs.warm.len() as u64;
    let sat_base = open_base + inputs.open.len() as u64;
    let cache_before = s.world.seal_cache_stats();
    let (mut open, mut sat) = (Vec::new(), Vec::new());
    let (mut sat_cpu_us, mut sat_ctx_switches, mut sat_gen_cpu_us) = (0, 0, 0);
    let bufs = std::mem::take(&mut s.open_bufs)
        .into_iter()
        .zip(std::mem::take(&mut s.sat_bufs));
    let (mut open_at, mut sat_at) = (0, 0);
    let (mut open_conn, mut sat_conn) = (Conn::open(s.server.addr()), Conn::open(s.server.addr()));
    let mut calib_us = vec![calib.read()];
    let mut open_window_p50_us = Vec::new();
    for (r, (open_bufs, sat_bufs)) in bufs.enumerate() {
        let window = run_phase(
            &mut open_conn,
            inputs,
            open_parts[r],
            open_base + open_at as u64,
            Mode::Open {
                rate: args.spec.open_rate,
                seed: args.seed ^ 0x0fe7 ^ r as u64,
            },
            tracer,
            open_bufs,
        );
        open_window_p50_us.push(window.latency_us.pct(0.5).unwrap_or(f64::INFINITY));
        open.push(window);
        open_at += open_parts[r].len();
        calib_us.push(calib.read());
        record(false);
        let (cpu0, ctx0) = stats::threads_usage(SERVER_THREADS);
        let (gen0, _) = stats::this_thread_usage();
        sat.push(run_phase(
            &mut sat_conn,
            inputs,
            sat_parts[r],
            sat_base + sat_at as u64,
            Mode::Closed { window: SAT_WINDOW },
            None,
            sat_bufs,
        ));
        record(true);
        sat_at += sat_parts[r].len();
        let (gen1, _) = stats::this_thread_usage();
        let (cpu1, ctx1) = stats::threads_usage(SERVER_THREADS);
        sat_cpu_us += cpu1.saturating_sub(cpu0);
        sat_ctx_switches += ctx1.saturating_sub(ctx0);
        sat_gen_cpu_us += gen1.saturating_sub(gen0);
        calib_us.push(calib.read());
    }
    let server_rss_kib = stats::peak_rss_kib().saturating_sub(s.rss_base_kib);
    Run {
        open: PhaseResult::merge(open),
        sat: PhaseResult::merge(sat),
        calib_us,
        open_window_p50_us,
        cache_before,
        cache_after: s.world.seal_cache_stats(),
        sat_cpu_us,
        sat_ctx_switches,
        sat_gen_cpu_us,
        server_rss_kib,
    }
}

/// Everything that decides whether the run's outputs were right.
#[derive(Default)]
struct Verdicts {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdicts {
    fn phase(&mut self, name: &str, r: &PhaseResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        for v in &r.violations {
            self.problems.push(format!("{name}: {v}"));
        }
        if r.violation_count > r.violations.len() as u64 {
            self.problems.push(format!(
                "{name}: {} more violations",
                r.violation_count - r.violations.len() as u64
            ));
        }
        for f in &r.failures {
            println!("failure {name}: {f}");
        }
    }

    /// The phases of one set-up, its conservation check, and that the
    /// open phase kept its schedule.
    fn run(&mut self, s: &Setup, run: &Run) {
        self.phase("warm-up", &s.warm);
        self.phase("open", &run.open);
        self.phase("sat", &run.sat);
        let settled = s.warm.settled + run.open.settled + run.sat.settled;
        if let Err(e) = s.world.conservation(&s.inputs, settled) {
            self.problems.push(e);
        }
        let injected = s.warm.injected + run.open.injected + run.sat.injected;
        let refused = s.warm.refused + run.open.refused + run.sat.refused;
        if refused != injected && self.failed == 0 {
            self.problems.push(format!(
                "refused {refused} requests, injected {injected} to be refused"
            ));
        }
        if !run.open.schedule_kept() {
            self.problems.push(format!(
                "open phase invalid: send lag p99 {:.1} us exceeds the generator's bound {} us",
                run.open.send_lag_p99(),
                loadgen::SEND_LAG_BOUND_US
            ));
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn host_facts(args: &Args, scratch: &Path, pinned: bool) {
    let nproc = cpus();
    println!(
        "host: nproc={nproc} traffic=loopback TCP on 127.0.0.1 (no real link) \
         generator=1 polling thread, 1 connection per phase (and 1 loopback pair of its \
         own for the calibration); {}",
        if pinned {
            format!("generator and server workers pinned to cpu {}", pin_cpu())
        } else {
            "threads not pinned".to_string()
        }
    );
    let mount = stats::mount_of(scratch);
    let virtual_disk = ["/dev/vd", "/dev/xvd"].iter().any(|d| mount.contains(d));
    println!(
        "host: fsync target={mount}{}",
        if virtual_disk {
            " (a VM's virtual disk, not a dedicated drive)"
        } else {
            ""
        }
    );
    println!(
        "build: {} profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
    let counts = args.spec.counts(args.seconds);
    println!(
        "workload: {} seed={} seconds={} trace={} open_rate={}/s sat_window={} \
         requests warm={} open={} sat={}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.spec.open_rate,
        SAT_WINDOW,
        counts.warm,
        counts.open,
        counts.sat
    );
}

/// `sat_ops_s` of a run: 10^6 over the median of its sat windows' µs
/// per correct reply, each scaled to the reference speed by the
/// calibration readings around it, with that median as printed; `0`
/// when there are too few windows to report it.
fn sat_rate(run: &Run) -> (f64, stats::Quantile) {
    let us_per_op = run
        .sat
        .window_ops_s
        .iter()
        .enumerate()
        .map(|(r, ops_s)| {
            calib::scale(
                1e6 / ops_s,
                run.calib_us[2 * r + 1],
                run.calib_us[2 * r + 2],
            )
        })
        .collect();
    let median = Sample::new(us_per_op).quantile(0.5);
    (median.value.map_or(0.0, |us| 1e6 / us), median)
}

/// The sat windows' rate as measured, unscaled: 10^6 over the median
/// of their µs per reply.
fn sat_rate_unscaled(sat: &PhaseResult) -> f64 {
    let us_per_op = sat.window_ops_s.iter().map(|r| 1e6 / r).collect();
    Sample::new(us_per_op).pct(0.5).map_or(0.0, |us| 1e6 / us)
}

/// `open_p50_us` of a run: the median of the open windows' median
/// latencies, each scaled to the reference speed by the calibration
/// readings around it.
fn open_p50_scaled(run: &Run) -> stats::Quantile {
    let p50s = run
        .open_window_p50_us
        .iter()
        .enumerate()
        .map(|(r, p50)| calib::scale(*p50, run.calib_us[2 * r], run.calib_us[2 * r + 1]))
        .collect();
    Sample::new(p50s).quantile(0.5)
}

/// The open phase's median latency (µs) over all its requests.
fn open_p50(open: &PhaseResult) -> f64 {
    finite(open.latency_us.pct(0.5).unwrap_or(f64::INFINITY))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The median of `n` calibration readings.
fn calib_median(calib: &mut Calibrator, n: usize) -> f64 {
    median((0..n).map(|_| calib.read()).collect())
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// The end-to-end metrics. `start_rss_kib` is the resident size when
/// the program started, before any input existed.
fn end_to_end(
    args: &Args,
    scratch: &Path,
    calib: &mut Calibrator,
    verdicts: &mut Verdicts,
    start_rss_kib: u64,
) -> Vec<Metric> {
    // The first set-up is measured, in a fresh process, so the memory
    // its world gains is not memory an earlier world freed; the others
    // are only timed.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_raw_s = Vec::with_capacity(SETUPS);
    let mut timed_setup = |calib: &mut Calibrator| {
        let before = calib_median(calib, SETUP_READINGS);
        let t = Instant::now();
        let s = setup(args, scratch, None);
        let raw = t.elapsed().as_secs_f64();
        let after = calib_median(calib, SETUP_READINGS);
        setup_raw_s.push(raw);
        setup_s.push(calib::scale(raw, before, after));
        s
    };
    let mut s = timed_setup(calib);
    let run = measure(args, &mut s, calib, None);
    verdicts.run(&s, &run);
    drop(s);
    for _ in 1..SETUPS {
        drop(timed_setup(calib));
    }
    let open_n = run.open.latency_us.len();
    let phases_attempted = run.open.attempted + run.sat.attempted;
    let phases_failed = run.open.failed + run.sat.failed;
    println!(
        "error_frac = {} ratio ({} failed of {} attempted over the open and sat phases)",
        phases_failed as f64 / phases_attempted.max(1) as f64,
        phases_failed,
        phases_attempted
    );
    let secs = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "setup_s samples: scaled {}; as measured {}",
        secs(&setup_s),
        secs(&setup_raw_s)
    );
    println!(
        "open phase: send lag {}, {}; outstanding max {}",
        run.open.send_lag_us.quantile(0.5),
        run.open.send_lag_us.quantile(0.99),
        run.open.outstanding_max
    );
    println!(
        "open phase latency at {}/s from intended send time (no end-to-end bound): {}, {}",
        args.spec.open_rate,
        run.open.latency_us.quantile(0.50),
        run.open.latency_us.quantile(0.99)
    );
    println!(
        "sat phase ops/s per window: {}",
        run.sat
            .window_ops_s
            .iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let calib_q = Sample::new(run.calib_us.clone()).quantile(0.5);
    println!(
        "calibration: {calib_q} us per loopback exchange (reference {} us); sat phase as \
         measured {:.1} ops/s; open windows' p50s as measured {}, scaled {} \
         (no end-to-end bound)",
        calib::REFERENCE_US,
        sat_rate_unscaled(&run.sat),
        Sample::new(run.open_window_p50_us.clone()).quantile(0.5),
        open_p50_scaled(&run)
    );
    let (sat_ops_s, sat_q) = sat_rate(&run);
    vec![
        metric(
            "sat_ops_s",
            sat_ops_s,
            "ops/s",
            format!(
                "1e6 / ({sat_q} over the windows' us per request, each scaled to the \
                 reference speed); {} correct replies in {:.3} s, window {}",
                run.sat.correct, run.sat.elapsed_s, SAT_WINDOW
            ),
        ),
        metric(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {SETUPS} set-ups, each scaled to the reference speed"),
        ),
        metric(
            "peak_rss_mib",
            (start_rss_kib + run.server_rss_kib) as f64 / 1024.0,
            "MiB",
            format!(
                "VmRSS at program start ({start_rss_kib} KiB: binary and runtime) + peak \
                 resident KiB gained from the world's build to the end of the sat phase \
                 ({} KiB; inputs and generator buffers were resident before it); \
                 open phase n={open_n}",
                run.server_rss_kib
            ),
        ),
    ]
}

fn per_layer(
    args: &Args,
    scratch: &Path,
    calib: &mut Calibrator,
    verdicts: &mut Verdicts,
) -> Vec<Metric> {
    // Untraced: the reference the traced run and the twins are read
    // against.
    let mut s1 = setup(args, scratch, None);
    let plain = measure(args, &mut s1, calib, None);
    verdicts.run(&s1, &plain);
    let untraced_p50 = open_p50(&plain.open);
    let untraced_scaled_p50 = open_p50_scaled(&plain).or_zero();
    let calib_q = Sample::new(plain.calib_us.clone()).quantile(0.5);
    let ops = (plain.open.attempted + plain.sat.attempted).max(1) as f64;
    let (h0, m0) = plain.cache_before;
    let (h1, m1) = plain.cache_after;
    let (hits, misses) = (h1 - h0, m1 - m0);
    let refused = plain.open.refused + plain.sat.refused;
    let sat_ops = plain.sat.attempted.max(1) as f64;
    drop(s1);

    // Traced: the same rounds on a fresh set-up whose journal (if any)
    // sits on the timing decorator, with every open-phase request's span
    // kept.
    let tcp_tracer = Arc::new(Tracer::default());
    let mut s2 = setup(args, scratch, Some(&tcp_tracer));
    let traced = measure(args, &mut s2, calib, Some(&tcp_tracer));
    verdicts.run(&s2, &traced);
    let traced_scaled_p50 = open_p50_scaled(&traced).or_zero();
    let storage = s2.world.storage.clone();
    // Requests the decorator recorded journal records for, and all the
    // requests the traced set-up served (snapshots cover every phase).
    let recorded_ops = (s2.warm.attempted + traced.open.attempted).max(1) as f64;
    let traced_ops = recorded_ops + traced.sat.attempted as f64;
    let Setup {
        server,
        world,
        inputs,
        ..
    } = s2;
    drop(server);
    drop(world);

    // Twins: the warm-up and the start of the measured rounds replayed
    // in process, in the order the server got them.
    let served = inputs.served();
    let replayed = &served[..served.len().min(TWIN_REQUESTS)];
    let twin_tracer = Arc::new(Tracer::default());
    let twin = World::build(
        &inputs,
        &Durability::Wal(world::fresh_wal_dir(scratch)),
        Some(&twin_tracer),
        None,
    );
    let open_base = inputs.warm.len() as u64;
    let mux = layers::replay_mux(
        &inputs,
        &twin,
        &inputs.warm,
        replayed,
        open_base,
        &twin_tracer,
    );
    drop(twin);
    let deposits = if args.spec.kind == Kind::DepositDurable {
        let bank_tracer = Arc::new(Tracer::default());
        let twin = World::build(
            &inputs,
            &Durability::Wal(world::fresh_wal_dir(scratch)),
            Some(&bank_tracer),
            None,
        );
        let bank = twin.bank.as_ref().expect("the deposit world has a bank");
        let out = layers::replay_deposits(
            &inputs,
            bank,
            &inputs.warm,
            replayed,
            open_base,
            &bank_tracer,
        );
        write_spans(scratch, args, "deposit-twin", &bank_tracer);
        out
    } else {
        layers::DepositReplay::default()
    };
    let proxy = layers::proxy_layer(&inputs, &inputs.warm, replayed);
    for (twin, wrong) in [
        ("ServiceMux::handle", mux.disagreements),
        ("AccountingServer::deposit", deposits.disagreements),
        ("Verifier::verify", proxy.disagreements),
    ] {
        if wrong > 0 {
            verdicts.problems.push(format!(
                "{wrong} {twin} twin outcomes differ from what the requests had to get"
            ));
        }
    }
    write_spans(scratch, args, "tcp", &tcp_tracer);
    write_spans(scratch, args, "mux-twin", &twin_tracer);

    let decode = mux.decode_us.quantile(0.5);
    let handle50 = mux.handle_us.quantile(0.5);
    let encode = mux.encode_us.quantile(0.5);
    let residual = untraced_p50 - decode.or_zero() - handle50.or_zero() - encode.or_zero();
    let stage = Sample::new(tcp_tracer.durations_us("storage.stage"));
    let wait = Sample::new(tcp_tracer.durations_us("storage.wait_durable"));
    let snaps = Sample::new(
        tcp_tracer
            .durations_us("storage.install_snapshot")
            .into_iter()
            .map(|us| us / 1e3)
            .collect(),
    );
    let load = |f: fn(&trace::TimedStorage) -> u64| storage.as_deref().map_or(0, f);
    let waiters_max = load(|t| t.waiters_max.load(std::sync::atomic::Ordering::Relaxed) as u64);
    let staged_bytes = load(|t| t.staged_bytes.load(std::sync::atomic::Ordering::Relaxed));
    let snapshot_bytes = load(|t| {
        t.snapshot_bytes_total
            .load(std::sync::atomic::Ordering::Relaxed)
    });
    let snapshot_last = load(|t| {
        t.snapshot_bytes_last
            .load(std::sync::atomic::Ordering::Relaxed)
    });
    let q = |s: &Sample, q: f64| s.quantile(q);
    let mut out = Vec::new();
    let lag = plain.open.send_lag_us.quantile(0.99);
    out.push(metric(
        "loadgen.send_lag_p99_us",
        plain.open.send_lag_p99(),
        "us",
        format!("{lag}; bound {} us", loadgen::SEND_LAG_BOUND_US),
    ));
    let gen_cpu = plain.sat_gen_cpu_us as f64 / sat_ops;
    let server_cpu = plain.sat_cpu_us as f64 / sat_ops;
    out.push(metric(
        "loadgen.cpu_us_per_op",
        gen_cpu,
        "us",
        format!(
            "generator thread over the sat phase: {:.0}% of generator + server CPU",
            100.0 * gen_cpu / (gen_cpu + server_cpu).max(1e-9)
        ),
    ));
    let p50 = plain.open.latency_us.quantile(0.50);
    out.push(metric(
        "e2e.open_p50_us",
        p50.or_zero(),
        "us",
        format!(
            "{p50} over the whole untraced open phase at {}/s, from intended send time; \
             no end-to-end bound (NOTES.md)",
            args.spec.open_rate
        ),
    ));
    let p99 = plain.open.latency_us.quantile(0.99);
    out.push(metric(
        "e2e.open_p99_us",
        p99.or_zero(),
        "us",
        format!(
            "{p99} over the whole untraced open phase, from intended send time; \
             no end-to-end bound (NOTES.md)"
        ),
    ));
    out.push(metric(
        "loadgen.outstanding_max",
        plain.open.outstanding_max as f64,
        "count",
        "open phase",
    ));
    out.push(metric(
        "wire.req_decode_us_p50",
        decode.or_zero(),
        "us",
        decode.to_string(),
    ));
    out.push(metric(
        "wire.reply_encode_us_p50",
        encode.or_zero(),
        "us",
        encode.to_string(),
    ));
    out.push(metric(
        "wire.req_bytes",
        mux.req_bytes,
        "B",
        "mean request frame",
    ));
    out.push(metric(
        "wire.reply_bytes",
        mux.reply_bytes,
        "B",
        "mean reply frame",
    ));
    out.push(metric(
        "net.mux_handle_us_p50",
        handle50.or_zero(),
        "us",
        handle50.to_string(),
    ));
    let handle99 = q(&mux.handle_us, 0.99);
    out.push(metric(
        "net.mux_handle_us_p99",
        handle99.or_zero(),
        "us",
        handle99.to_string(),
    ));
    out.push(metric(
        "net.tcp_residual_us_p50",
        residual,
        "us",
        format!("open-phase p50 {untraced_p50:.3} minus decode, handle and encode p50"),
    ));
    let v50 = q(&proxy.verify_us, 0.5);
    let v99 = q(&proxy.verify_us, 0.99);
    out.push(metric(
        "proxy.verify_us_p50",
        v50.or_zero(),
        "us",
        v50.to_string(),
    ));
    out.push(metric(
        "proxy.verify_us_p99",
        v99.or_zero(),
        "us",
        v99.to_string(),
    ));
    let checks = hits + misses;
    out.push(metric(
        "proxy.seal_cache_hit_ratio",
        if checks == 0 { 0.0 } else { hits as f64 / checks as f64 },
        "ratio",
        format!("{hits} hits, {misses} misses over the open and sat phases (base {h0} hits, {m0} misses)"),
    ));
    out.push(metric(
        "proxy.seal_checks_per_op",
        checks as f64 / ops,
        "count",
        format!("{checks} cached-seal lookups / {ops} requests"),
    ));
    out.push(metric(
        "proxy.revocation_probe_ns",
        proxy.revocation_probe_ns,
        "ns",
        "RevocationDirectory::is_revoked, median of 5 passes",
    ));
    let injected = Inputs::injected(&inputs.open) + Inputs::injected(&inputs.sat);
    out.push(metric(
        "proxy.refused_frac",
        refused as f64 / ops,
        "ratio",
        format!("{refused} refused of {ops} attempted; {injected} injected to be refused"),
    ));
    let ed = q(&proxy.ed25519_verify_us, 0.5);
    out.push(metric(
        "crypto.ed25519_verify_us",
        ed.or_zero(),
        "us",
        format!("{ed} over root seals"),
    ));
    let d50 = q(&deposits.deposit_us, 0.5);
    let d99 = q(&deposits.deposit_us, 0.99);
    let ds50 = q(&deposits.self_us, 0.5);
    out.push(metric(
        "accounting.deposit_us_p50",
        d50.or_zero(),
        "us",
        d50.to_string(),
    ));
    out.push(metric(
        "accounting.deposit_us_p99",
        d99.or_zero(),
        "us",
        d99.to_string(),
    ));
    out.push(metric(
        "accounting.deposit_self_us_p50",
        ds50.or_zero(),
        "us",
        format!("{ds50}, minus storage spans"),
    ));
    let st50 = q(&stage, 0.5);
    let w50 = q(&wait, 0.5);
    let w99 = q(&wait, 0.99);
    let sn50 = q(&snaps, 0.5);
    out.push(metric(
        "storage.stage_us_p50",
        st50.or_zero(),
        "us",
        st50.to_string(),
    ));
    out.push(metric(
        "storage.wait_durable_us_p50",
        w50.or_zero(),
        "us",
        w50.to_string(),
    ));
    out.push(metric(
        "storage.wait_durable_us_p99",
        w99.or_zero(),
        "us",
        w99.to_string(),
    ));
    out.push(metric(
        "storage.bytes_per_op",
        staged_bytes as f64 / recorded_ops + snapshot_bytes as f64 / traced_ops,
        "B",
        "journal record bytes per request (traced warm-up and open phase) \
         + snapshot bytes per request (whole traced run)",
    ));
    out.push(metric(
        "storage.waiters_max",
        waiters_max as f64,
        "count",
        "concurrent wait_durable callers",
    ));
    out.push(metric(
        "storage.snapshot_install_ms_p50",
        sn50.or_zero(),
        "ms",
        sn50.to_string(),
    ));
    out.push(metric(
        "storage.snapshots",
        snaps.len() as f64,
        "count",
        "whole traced run",
    ));
    out.push(metric(
        "storage.snapshot_bytes_last",
        snapshot_last as f64,
        "B",
        "traced run",
    ));
    out.push(metric(
        "proc.cpu_us_per_op",
        server_cpu,
        "us",
        "server threads over the sat phase",
    ));
    out.push(metric(
        "proc.ctx_switches_per_op",
        plain.sat_ctx_switches as f64 / sat_ops,
        "count",
        "server threads over the sat phase",
    ));
    out.push(metric(
        "proc.tracing_overhead_pct",
        (traced_scaled_p50 / untraced_scaled_p50.max(1e-9) - 1.0) * 100.0,
        "%",
        format!(
            "traced open p50 {traced_scaled_p50:.3} us vs untraced {untraced_scaled_p50:.3} us \
             (median of window p50s, each scaled to the reference speed)"
        ),
    ));
    out.push(metric(
        "host.calibration_us",
        calib_q.or_zero(),
        "us",
        format!(
            "{calib_q} over the untraced run's readings: the host's speed (reference {} us)",
            calib::REFERENCE_US
        ),
    ));
    out
}

fn write_spans(scratch: &Path, args: &Args, what: &str, tracer: &Tracer) {
    let path = scratch.join(format!("spans-{}-{}-{what}.tsv", args.spec.name, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

/// Tests that time a live server or keep the CPUs busy run one at a
/// time: otherwise each would see the others' work as latency.
#[cfg(test)]
fn test_alone() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Puts the calling test's thread and the server's workers on one CPU,
/// as [`pin_main`] and [`pin_server`] do for a run.
#[cfg(test)]
fn colocate_for_test() {
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()));
    if let Some(tid) = tid {
        stats::pin_thread(&tid, pin_cpu());
    }
    pin_server();
}

fn main() {
    let start_rss_kib = stats::rss_kib();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                SPECS.map(|s| s.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {SCRATCH}: {e}");
        std::process::exit(2);
    }
    let pinned = pin_main();
    host_facts(&args, &scratch, pinned);
    let mut calib = match Calibrator::new() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot connect the calibration's loopback pair: {e}");
            std::process::exit(2);
        }
    };
    let mut verdicts = Verdicts::default();
    let metrics = if args.trace {
        per_layer(&args, &scratch, &mut calib, &mut verdicts)
    } else {
        end_to_end(&args, &scratch, &mut calib, &mut verdicts, start_rss_kib)
    };
    for m in &metrics {
        println!("metric {} = {} {}  [{}]", m.name, m.value, m.unit, m.note);
    }
    for p in &verdicts.problems {
        println!("INCORRECT: {p}");
    }
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        verdicts.correct(),
        verdicts.attempted,
        verdicts.failed
    );
    if !verdicts.correct() {
        std::process::exit(1);
    }
}
