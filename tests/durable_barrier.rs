//! The event-loop server's per-wakeup durability barrier (DESIGN.md
//! §13.2, §15.3), over real TCP: pipelined deposits are acknowledged
//! only once one shared fsync covers them, a failed barrier sends no
//! success reply, and a burst costs fewer durability waits than it has
//! deposits, while a burst of authorization queries costs none. Also
//! the deferred wait's interaction with compaction, in process.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::accounting::{write_check, AccountingServer, Check};
use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthorizationServer};
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::net::{EventLoopServer, ServiceMux};
use proxy_aa::proxy::prelude::*;
use proxy_aa::storage::{
    FsyncMode, MemStorage, Recovered, Storage, StorageError, Ticket, WalOptions, WalStorage,
};
use proxy_aa::wire::frame::read_frame;
use proxy_aa::wire::{ErrorCode, Message};

/// Deposits per pipelined burst.
const BURST: u64 = 16;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

/// A unique scratch directory per test invocation; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "proxy-aa-barrier-{tag}-{}-{}",
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

/// (Re)opens the bank on `store`: deterministic keys, carol's and the
/// shop's accounts, a 10,000 USD float credited only on first boot.
fn boot(store: Arc<dyn Storage>) -> (AccountingServer, GrantAuthority) {
    let mut rng = StdRng::seed_from_u64(1);
    let bank_key = SigningKey::generate(&mut rng);
    let carol_key = SigningKey::generate(&mut rng);
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
        .with_storage(store)
        .expect("recovery");
    bank.register_grantor(
        p("carol"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    if bank.account("carol-acct").is_none() {
        bank.open_account("carol-acct", vec![p("carol")]);
        bank.open_account("shop-acct", vec![p("shop")]);
        bank.account_mut("carol-acct")
            .expect("just opened")
            .credit(usd(), 10_000);
    }
    (bank, GrantAuthority::Keypair(carol_key))
}

/// Carol's check `no` to the shop, for `no` USD.
fn carol_check(auth: &GrantAuthority, rng: &mut StdRng, no: u64) -> Check {
    write_check(
        &p("carol"),
        auth,
        &p("bank"),
        "carol-acct",
        p("shop"),
        no,
        usd(),
        no,
        window(),
        rng,
    )
}

fn deposit(check: &Check) -> Message {
    Message::CheckDeposit {
        check: check.proxy.clone(),
        depositor: p("shop"),
        to_account: "shop-acct".to_string(),
        next_hop: p("bank"),
        now: Timestamp(1),
    }
}

/// Writes every request in one `write` call, so the server finds the
/// whole burst in one wakeup, and reads replies until `want` arrived or
/// the server closed the connection.
fn pipeline(stream: &mut TcpStream, requests: &[Message], want: usize) -> Vec<Message> {
    let mut bytes = Vec::new();
    for (id, request) in (1u64..).zip(requests) {
        request.encode_frame_into(&mut bytes, id);
    }
    stream.write_all(&bytes).expect("send burst");
    let mut replies = Vec::new();
    while replies.len() < want {
        let Ok((header, body)) = read_frame(stream) else {
            break;
        };
        replies.push(Message::decode_body(header.msg_type, &body).expect("reply decodes"));
    }
    replies
}

/// The check numbers a reply batch acknowledged as settled.
fn settled(replies: &[Message]) -> Vec<u64> {
    replies
        .iter()
        .filter_map(|r| match r {
            Message::CheckSettled { check_no, .. } => Some(*check_no),
            _ => None,
        })
        .collect()
}

#[test]
fn a_failed_barrier_sends_no_success_reply_and_every_ack_survives_restart() {
    let dir = Scratch::new("crash");
    let opts = || WalOptions {
        fsync: FsyncMode::NoFsync,
    };
    let store = Arc::new(WalStorage::open(&dir.0, opts()).expect("open wal"));
    let (bank, carol) = boot(Arc::clone(&store) as Arc<dyn Storage>);
    let mux: Arc<ServiceMux> = Arc::new(ServiceMux::new().with_accounting(Arc::new(bank)));
    let server = EventLoopServer::spawn(Arc::clone(&mux), 7).expect("spawn");
    let mut rng = StdRng::seed_from_u64(2);
    let checks: Vec<Check> = (1..=2 * BURST)
        .map(|no| carol_check(&carol, &mut rng, no))
        .collect();
    let (first, second) = checks.split_at(BURST as usize);

    // A clean burst: every deposit is acknowledged.
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let requests: Vec<Message> = first.iter().map(deposit).collect();
    let mut acked = settled(&pipeline(&mut conn, &requests, first.len()));
    assert_eq!(acked, (1..=BURST).collect::<Vec<_>>());

    // The next burst crashes at its eighth record: the records before it
    // and the record itself reach the log, then the store dies.
    const CRASH_AT: u64 = 8;
    store.crash_after_appends(CRASH_AT);
    let requests: Vec<Message> = second.iter().map(deposit).collect();
    let replies = pipeline(&mut conn, &requests, second.len());
    let late = settled(&replies);
    assert!(
        late.is_empty(),
        "success replies from the failed wakeup left the server: {late:?}"
    );
    assert!(
        replies.len() < second.len(),
        "the connection was closed instead of answering the whole burst: {replies:?}"
    );
    acked.extend(late);

    // Fail-stop: a fresh connection's deposit is refused as unavailable.
    let mut fresh = TcpStream::connect(server.addr()).expect("connect");
    let extra = carol_check(&carol, &mut rng, 99);
    match pipeline(&mut fresh, &[deposit(&extra)], 1).as_slice() {
        [Message::Error { code, .. }] => assert_eq!(*code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable after the crash, got {other:?}"),
    }
    drop(server);
    drop(mux);
    drop(store);

    // Every acknowledged deposit is in the recovered ledger exactly once:
    // the balances hold the first burst plus the durable prefix of the
    // second, currency is conserved, and each acknowledged check is
    // spent (re-depositing it is refused).
    let store = Arc::new(WalStorage::open(&dir.0, opts()).expect("reopen wal"));
    let (bank, _) = boot(store as Arc<dyn Storage>);
    let durable: u64 = (1..=BURST + CRASH_AT).sum();
    let balance = |acct: &str| bank.account(acct).expect("account").balance(&usd());
    assert_eq!(balance("shop-acct"), durable);
    assert_eq!(balance("carol-acct") + balance("shop-acct"), 10_000);
    for no in acked {
        let again = bank.deposit(
            &checks[no as usize - 1],
            &p("shop"),
            "shop-acct",
            p("bank"),
            Timestamp(2),
            &mut rng,
        );
        assert!(again.is_err(), "acknowledged check {no} settled twice");
    }
    assert_eq!(balance("shop-acct"), durable);
}

/// A staged deposit is not durable until someone waits for its ticket,
/// and a compaction that runs after the operation released its journal
/// guard, but before that wait, makes it durable: the snapshot install
/// flushes every staged record. The guard may therefore drop before the
/// wait.
#[test]
fn compaction_before_the_wait_makes_a_staged_deposit_durable() {
    let dir = Scratch::new("compact");
    let opts = || WalOptions {
        fsync: FsyncMode::NoFsync,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let checks = {
        let store = Arc::new(WalStorage::open(&dir.0, opts()).expect("open wal"));
        let (bank, carol) = boot(store as Arc<dyn Storage>);
        let checks: Vec<Check> = (1..=2)
            .map(|no| carol_check(&carol, &mut rng, no))
            .collect();
        let mut stage = |check: &Check| {
            bank.deposit_staged(
                check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut rng,
            )
            .expect("deposit applies")
            .owed
            .expect("a durable server owes a ticket")
        };
        stage(&checks[0]);
        bank.compact().expect("compaction");
        // Never waited for, and no compaction after it: lost with the
        // process.
        stage(&checks[1]);
        checks
    };
    let store = Arc::new(WalStorage::open(&dir.0, opts()).expect("reopen wal"));
    let (bank, _) = boot(store as Arc<dyn Storage>);
    let shop = bank.account("shop-acct").expect("account").balance(&usd());
    assert_eq!(shop, 1, "only the deposit the compaction covered survived");
    let redeposit = |check: &Check, rng: &mut StdRng| {
        bank.deposit(check, &p("shop"), "shop-acct", p("bank"), Timestamp(2), rng)
    };
    assert!(redeposit(&checks[0], &mut rng).is_err(), "check 1 is spent");
    assert!(redeposit(&checks[1], &mut rng).is_ok(), "check 2 never was");
}

/// Forwards to an in-memory store, counting `wait_durable` calls.
#[derive(Debug, Default)]
struct CountingStorage {
    inner: MemStorage,
    waits: AtomicU64,
}

impl Storage for CountingStorage {
    fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
        self.inner.stage(record)
    }

    fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
        self.waits.fetch_add(1, Ordering::SeqCst);
        self.inner.wait_durable(ticket)
    }

    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
        self.inner.install_snapshot(state)
    }

    fn load(&self) -> Result<Recovered, StorageError> {
        self.inner.load()
    }
}

/// An authorization server "R" that lets carol read X at end-server S.
fn authz_server() -> AuthorizationServer<MapResolver> {
    let mut rng = StdRng::seed_from_u64(3);
    let mut authz = AuthorizationServer::new(
        p("R"),
        GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
        MapResolver::new(),
    );
    authz.database_mut(p("S")).set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(p("carol")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    authz
}

fn authz_query() -> Message {
    Message::AuthzQuery {
        client: p("carol"),
        presentations: Vec::new(),
        end_server: p("S"),
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        validity: window(),
        now: Timestamp(1),
    }
}

#[test]
fn one_barrier_covers_a_pipelined_burst_and_queries_need_none() {
    let store = Arc::new(CountingStorage::default());
    let (bank, carol) = boot(Arc::clone(&store) as Arc<dyn Storage>);
    let mux: Arc<ServiceMux> = Arc::new(
        ServiceMux::new()
            .with_accounting(Arc::new(bank))
            .with_authz(Arc::new(authz_server())),
    );
    let server = EventLoopServer::spawn(Arc::clone(&mux), 9).expect("spawn");
    let mut rng = StdRng::seed_from_u64(4);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");

    let requests: Vec<Message> = (1..=BURST)
        .map(|no| deposit(&carol_check(&carol, &mut rng, no)))
        .collect();
    store.waits.store(0, Ordering::SeqCst);
    let replies = pipeline(&mut conn, &requests, requests.len());
    assert_eq!(settled(&replies), (1..=BURST).collect::<Vec<_>>());
    let waits = store.waits.load(Ordering::SeqCst);
    assert!(
        (1..BURST).contains(&waits),
        "{BURST} pipelined deposits cost {waits} durability waits"
    );

    let queries = vec![authz_query(); BURST as usize];
    store.waits.store(0, Ordering::SeqCst);
    let replies = pipeline(&mut conn, &queries, queries.len());
    assert_eq!(replies.len(), queries.len());
    assert!(
        replies
            .iter()
            .all(|r| matches!(r, Message::AuthzGrant { .. })),
        "{replies:?}"
    );
    assert_eq!(store.waits.load(Ordering::SeqCst), 0);
}
