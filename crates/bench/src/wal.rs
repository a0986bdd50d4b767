//! Durable-journal harness (DESIGN.md §15): what does durability cost,
//! and how much of it does group commit buy back?
//!
//! Two experiments:
//!
//! * **Append amortization** — 16 writer threads stage-and-wait 256-byte
//!   records against four backends: in-memory, WAL without fsync, WAL
//!   with one fsync per record (the naive durable baseline), and WAL
//!   with group commit. The headline gate: group commit must deliver at
//!   least 5× the per-record-fsync throughput (3× in the ci.sh smoke
//!   configuration, which runs fewer appends on a shared host). The
//!   fsync itself is the honest price of durability; the batcher's job
//!   is to spread one platter flush over a whole convoy of writers.
//! * **End-to-end deposits** — single-stream same-server check deposits
//!   through [`proxy_accounting::AccountingServer`], in-memory journal
//!   vs. the group-commit WAL, reported as p50/p99 latency and ops/s.
//!   This bounds what durability costs a real client above the
//!   microbenchmark: Ed25519 verification still dominates the deposit
//!   path, so the WAL shows up as a bounded additive term.
//!
//! Timing uses min-of-rounds with the variants interleaved inside each
//! round (the `ablate-crypto` discipline), so shared-host noise cancels
//! out of the ratio the gate checks.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use proxy_accounting::{write_check, AccountingServer};
use proxy_crypto::ed25519::SigningKey;
use proxy_storage::{FsyncMode, MemStorage, Storage, WalOptions, WalStorage};
use rand::rngs::StdRng;
use restricted_proxy::prelude::*;

use crate::{rng, window};

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Writer threads in the append sweep.
    pub threads: usize,
    /// Records each writer appends per round.
    pub appends_per_thread: usize,
    /// Payload bytes per appended record.
    pub record_bytes: usize,
    /// Interleaved rounds; every variant keeps its fastest.
    pub rounds: usize,
    /// Same-server deposits per journal variant.
    pub deposits: usize,
    /// Required group-commit speedup over fsync-per-record.
    pub required_speedup: f64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            threads: 16,
            appends_per_thread: 500,
            record_bytes: 256,
            rounds: 5,
            deposits: 1_500,
            required_speedup: 5.0,
        }
    }
}

impl Options {
    /// The ci.sh smoke configuration: fewer appends and a 3× gate, so a
    /// noisy shared host cannot flake the build while a real regression
    /// (group commit degrading toward one-fsync-per-record) still trips.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            threads: 16,
            appends_per_thread: 150,
            record_bytes: 256,
            rounds: 4,
            deposits: 300,
            required_speedup: 3.0,
        }
    }
}

/// One backend's best append round.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppendPoint {
    /// Best-round sustained appends per second across all threads.
    pub ops_per_sec: f64,
}

/// One journal variant's deposit measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepositPoint {
    /// Median deposit latency.
    pub p50_us: f64,
    /// Tail deposit latency.
    pub p99_us: f64,
    /// Sustained deposits per second.
    pub ops_per_sec: f64,
}

/// Everything the harness measured, persisted as `BENCH_wal.json`.
#[derive(Clone, Debug)]
pub struct WalReport {
    /// Hardware threads the host exposes (context for readers).
    pub host_parallelism: usize,
    /// Writer threads used.
    pub threads: usize,
    /// Appends per thread per round.
    pub appends_per_thread: usize,
    /// Payload size appended.
    pub record_bytes: usize,
    /// In-memory backend (no I/O at all): the ordering-only ceiling.
    pub mem: AppendPoint,
    /// WAL, no fsync: adds the write path but not the flush.
    pub no_fsync: AppendPoint,
    /// WAL, one fsync per record: the naive durable baseline.
    pub per_record: AppendPoint,
    /// WAL, group commit: the contended durable fast path.
    pub group_commit: AppendPoint,
    /// `group_commit / per_record` — the amortization gate.
    pub speedup: f64,
    /// The gate this run was held to.
    pub required_speedup: f64,
    /// Deposits measured per variant.
    pub deposits: usize,
    /// Deposit path over the in-memory journal.
    pub deposit_mem: DepositPoint,
    /// Deposit path over the group-commit WAL.
    pub deposit_wal: DepositPoint,
}

impl WalReport {
    /// Serializes the report (hand-rolled: no serde in the tree).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"host_parallelism\": {},\n  \"append\": {{\"threads\": {}, \"per_thread\": {}, \"record_bytes\": {}, \"mem_ops_s\": {:.0}, \"no_fsync_ops_s\": {:.0}, \"per_record_ops_s\": {:.0}, \"group_commit_ops_s\": {:.0}, \"speedup\": {:.2}, \"required_speedup\": {:.1}}},\n  \"deposit\": {{\"iters\": {}, \"mem\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"ops_s\": {:.0}}}, \"wal\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"ops_s\": {:.0}}}}}\n}}\n",
            self.host_parallelism,
            self.threads,
            self.appends_per_thread,
            self.record_bytes,
            self.mem.ops_per_sec,
            self.no_fsync.ops_per_sec,
            self.per_record.ops_per_sec,
            self.group_commit.ops_per_sec,
            self.speedup,
            self.required_speedup,
            self.deposits,
            self.deposit_mem.p50_us,
            self.deposit_mem.p99_us,
            self.deposit_mem.ops_per_sec,
            self.deposit_wal.p50_us,
            self.deposit_wal.p99_us,
            self.deposit_wal.ops_per_sec,
        )
    }

    /// Asserts the acceptance gate; called before the report may be
    /// persisted so a failing run cannot overwrite recorded results.
    ///
    /// # Panics
    ///
    /// When group commit fails its amortization target.
    pub fn check_gates(&self) {
        assert!(
            self.speedup >= self.required_speedup,
            "group-commit fsync batching regressed: {:.2}x over fsync-per-record \
             (required >= {:.1}x)",
            self.speedup,
            self.required_speedup,
        );
    }
}

/// A unique scratch directory for one WAL instance, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "proxy-aa-walbench-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wal_opts(fsync: FsyncMode) -> WalOptions {
    WalOptions { fsync }
}

/// One timed round: `threads` writers each stage-and-wait `per_thread`
/// records against `store`. Returns sustained total appends/s.
fn append_round(store: &Arc<dyn Storage>, threads: usize, per_thread: usize, record: &[u8]) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let store = Arc::clone(store);
            scope.spawn(move || {
                for _ in 0..per_thread {
                    let ticket = store.stage(record).expect("stage");
                    store.wait_durable(ticket).expect("durable");
                }
            });
        }
    });
    let total = (threads * per_thread) as f64;
    total / started.elapsed().as_secs_f64()
}

/// The four-backend append sweep, interleaved per round.
fn append_sweep(opts: &Options) -> (AppendPoint, AppendPoint, AppendPoint, AppendPoint) {
    let record = vec![0xA5u8; opts.record_bytes];
    let mut best = [0f64; 4];
    for _ in 0..opts.rounds {
        // Fresh stores (and scratch dirs) each round: every variant
        // starts from an empty log, so file length never favors the
        // later rounds.
        let mem: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let scratches = [Scratch::new(), Scratch::new(), Scratch::new()];
        let no_fsync: Arc<dyn Storage> = Arc::new(
            WalStorage::open(&scratches[0].0, wal_opts(FsyncMode::NoFsync)).expect("open wal"),
        );
        let per_record: Arc<dyn Storage> = Arc::new(
            WalStorage::open(&scratches[1].0, wal_opts(FsyncMode::PerRecord)).expect("open wal"),
        );
        let group: Arc<dyn Storage> = Arc::new(
            WalStorage::open(&scratches[2].0, wal_opts(FsyncMode::GroupCommit)).expect("open wal"),
        );
        let stores = [&mem, &no_fsync, &per_record, &group];
        for (slot, store) in stores.iter().enumerate() {
            let ops = append_round(store, opts.threads, opts.appends_per_thread, &record);
            if ops > best[slot] {
                best[slot] = ops;
            }
        }
    }
    (
        AppendPoint {
            ops_per_sec: best[0],
        },
        AppendPoint {
            ops_per_sec: best[1],
        },
        AppendPoint {
            ops_per_sec: best[2],
        },
        AppendPoint {
            ops_per_sec: best[3],
        },
    )
}

/// Builds the single-bank deposit fixture over `store`.
fn deposit_bank(store: Arc<dyn Storage>, rng: &mut StdRng) -> (AccountingServer, GrantAuthority) {
    let bank_key = SigningKey::generate(rng);
    let carol_key = SigningKey::generate(rng);
    let mut bank =
        AccountingServer::new(PrincipalId::new("bank"), GrantAuthority::Keypair(bank_key))
            .with_storage(store)
            .expect("fresh store recovers empty");
    bank.register_grantor(
        PrincipalId::new("carol"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    bank.open_account("carol-acct", vec![PrincipalId::new("carol")]);
    bank.open_account("shop-acct", vec![PrincipalId::new("shop")]);
    bank.account_mut("carol-acct")
        .expect("account exists")
        .credit(Currency::new("USD"), u64::MAX / 2);
    (bank, GrantAuthority::Keypair(carol_key))
}

/// Runs `opts.deposits` same-server deposits and reports the latency
/// distribution.
fn deposit_series(store: Arc<dyn Storage>, opts: &Options, seed: u64) -> DepositPoint {
    let mut r = rng(seed);
    let (bank, carol) = deposit_bank(store, &mut r);
    let mut lat_us = Vec::with_capacity(opts.deposits);
    let started = Instant::now();
    for no in 0..opts.deposits as u64 {
        let check = write_check(
            &PrincipalId::new("carol"),
            &carol,
            &PrincipalId::new("bank"),
            "carol-acct",
            PrincipalId::new("shop"),
            no + 1,
            Currency::new("USD"),
            1,
            window(),
            &mut r,
        );
        let t = Instant::now();
        bank.deposit(
            &check,
            &PrincipalId::new("shop"),
            "shop-acct",
            PrincipalId::new("bank"),
            Timestamp(1),
            &mut r,
        )
        .expect("deposit settles");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = started.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let idx = ((lat_us.len() - 1) as f64 * q).round() as usize;
        lat_us[idx]
    };
    DepositPoint {
        p50_us: at(0.50),
        p99_us: at(0.99),
        ops_per_sec: opts.deposits as f64 / elapsed,
    }
}

/// Runs the whole harness. The caller applies the gates via
/// [`WalReport::check_gates`], which the figures binary invokes before
/// persisting `BENCH_wal.json`.
#[must_use]
pub fn run(opts: &Options) -> WalReport {
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let (mem, no_fsync, per_record, group_commit) = append_sweep(opts);
    let speedup = group_commit.ops_per_sec / per_record.ops_per_sec;

    let deposit_mem = deposit_series(Arc::new(MemStorage::new()), opts, 11);
    let wal_dir = Scratch::new();
    let wal: Arc<dyn Storage> =
        Arc::new(WalStorage::open(&wal_dir.0, wal_opts(FsyncMode::GroupCommit)).expect("open wal"));
    let deposit_wal = deposit_series(wal, opts, 11);

    WalReport {
        host_parallelism,
        threads: opts.threads,
        appends_per_thread: opts.appends_per_thread,
        record_bytes: opts.record_bytes,
        mem,
        no_fsync,
        per_record,
        group_commit,
        speedup,
        required_speedup: opts.required_speedup,
        deposits: opts.deposits,
        deposit_mem,
        deposit_wal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_report() {
        let opts = Options {
            threads: 2,
            appends_per_thread: 20,
            record_bytes: 64,
            rounds: 1,
            deposits: 10,
            required_speedup: 0.0,
        };
        let report = run(&opts);
        assert!(report.mem.ops_per_sec > 0.0);
        assert!(report.per_record.ops_per_sec > 0.0);
        assert!(report.group_commit.ops_per_sec > 0.0);
        assert!(report.deposit_mem.p50_us > 0.0);
        assert!(report.deposit_wal.p99_us >= report.deposit_wal.p50_us);
        report.check_gates(); // 0.0 gate: must not panic
        let json = report.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"wal\""));
    }
}
