//! The three workloads: their generated inputs, the server-side world
//! each runs against, and the check of every reply.
//!
//! Everything a workload sends is made from `--seed`; the server sees
//! only the encoded request frames.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proxy_accounting::{write_check, AccountingServer};
use proxy_authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer};
use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use proxy_net::ServiceMux;
use proxy_storage::{Storage, WalOptions, WalStorage};
use proxy_wire::{ErrorCode, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use restricted_proxy::prelude::*;
use restricted_proxy::revocation::{RevocationArtifact, RevocationRegistry};

use crate::trace::{TimedStorage, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    AuthzQuery,
    CascadeVerify,
    DepositDurable,
}

/// A workload's fixed shape. Phase sizes are request counts, not
/// durations, so every run of one workload serves the same requests
/// whatever the program's speed (`deposit-durable` needs this: its
/// snapshots grow with the deposits already served).
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Offered rate of the open phase (requests/s), set from the
    /// workload's `sat_ops_s` at the commit that defined the benchmark:
    /// a quarter to a third of it, so that the host's slow stretches do
    /// not push the open phase towards saturation (see NOTES.md).
    pub open_rate: f64,
    /// Requests per second of the sat phase at that commit; sizes the
    /// sat phase to fill its share of `--seconds`.
    pub sat_rate: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        kind: Kind::AuthzQuery,
        name: "authz-query",
        open_rate: 25_000.0,
        sat_rate: 100_000.0,
    },
    Spec {
        kind: Kind::CascadeVerify,
        name: "cascade-verify",
        open_rate: 2_000.0,
        sat_rate: 5_500.0,
    },
    Spec {
        kind: Kind::DepositDurable,
        name: "deposit-durable",
        open_rate: 2_000.0,
        sat_rate: 5_000.0,
    },
];

/// Open-phase requests per round, at least: an eighth of a second of
/// arrivals at 2,000/s.
pub const ROUND_OPEN_MIN: usize = 250;
/// Rounds per run, at most.
pub const ROUNDS_MAX: usize = 200;

/// Request counts of the three phases of one run, and the rounds the
/// open and sat phases alternate in (one share of each per round).
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    pub warm: usize,
    pub open: usize,
    pub sat: usize,
    pub rounds: usize,
}

/// `items` cut into `parts` consecutive shares of near-equal length:
/// the rounds' shares of a phase.
pub fn split<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    (0..parts)
        .map(|i| &items[i * items.len() / parts..(i + 1) * items.len() / parts])
        .collect()
}

impl Spec {
    /// Half of `seconds` for each measured phase, in as many rounds as
    /// give each [`ROUND_OPEN_MIN`] open-phase requests (between 1 and
    /// [`ROUNDS_MAX`]); a warm-up of a tenth of a second's sat-rate work
    /// (at least 500 requests).
    pub fn counts(&self, seconds: f64) -> Counts {
        let open = (self.open_rate * seconds / 2.0) as usize;
        Counts {
            warm: ((self.sat_rate * 0.1) as usize).max(500),
            open,
            sat: (self.sat_rate * seconds / 2.0) as usize,
            rounds: (open / ROUND_OPEN_MIN).clamp(1, ROUNDS_MAX),
        }
    }
}

/// What a request must get back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// An `AuthzGrant` whose proxy is issued by the authorization server.
    Grant,
    /// An `EndDecision` naming `alice` (the cascade's root grantor).
    Alice,
    /// A `CheckSettled` for this check number.
    Settled(u64),
    /// An `Error` with this code: the request was injected to be refused.
    Refused(ErrorCode),
}

/// One request of a phase: which pooled frame to send, and the reply
/// it must get.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    pub frame: u32,
    pub expect: Expect,
}

/// The verdict on one reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The reply the request had to get (an accepted request, or an
    /// injected request refused with the expected code).
    Correct { refused: bool },
    /// Refused although it should have been accepted: a failed request.
    Failed(String),
    /// The program accepted what it must refuse, refused with the wrong
    /// code, or answered with wrong content: the run is incorrect.
    Violation(String),
}

pub fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

pub fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

const AUTHZ_SERVER: &str = "R";
const END_SERVER: &str = "S";
const AUTHZ_CLIENTS: usize = 8;
const AUTHZ_OBJECTS: usize = 8;
/// Depth of every presented cascade (root grant + three derivations).
pub const CASCADE_DEPTH: usize = 4;
/// Valid cascades in the pool: 4 seals each, so the pool holds 4× the
/// end-server's seal cache (`EndServer::SEAL_CACHE_CAPACITY` = 1,024).
const CASCADES: usize = 1024;
const REVOKED_CASCADES: usize = 64;
/// Serials in the end-server's revocation mirror.
pub const REVOKED_SERIALS: u64 = 1_000_000;
/// Revoked serials are drawn from `[REVOKED_BASE, REVOKED_BASE + 64M)`,
/// above every serial a valid cascade uses.
const REVOKED_BASE: u64 = 1 << 32;
/// Share of cascade presentations that carry a revoked serial.
const REVOKED_SHARE: f64 = 0.05;
const ZIPF_S: f64 = 1.0;
const PAYORS: usize = 16;
/// Share of deposits that re-present an already deposited check.
const REPLAY_SHARE: f64 = 0.02;
/// A replayed check was first deposited at least this many deposits
/// earlier.
const REPLAY_GAP: usize = 1000;
pub const NOW: Timestamp = Timestamp(1);

/// Everything generated from the seed: key material, the pool of
/// encoded request frames (request id 0), the decoded pool messages,
/// and the three phases' request streams. The stream is generated in
/// the order it is served: the warm-up, then round by round the
/// round's share of `open` and then of `sat`.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub rounds: usize,
    pub frames: Vec<Vec<u8>>,
    pub messages: Vec<Message>,
    pub warm: Vec<Item>,
    pub open: Vec<Item>,
    pub sat: Vec<Item>,
    keys: Keys,
}

enum Keys {
    Authz {
        key: SymmetricKey,
    },
    Cascade {
        alice: SigningKey,
        revocations: Vec<RevocationArtifact>,
        revoked_probe: Vec<u64>,
    },
    Deposit {
        bank: SigningKey,
        payors: Vec<SigningKey>,
        checks_per_payor: Vec<u64>,
        total_checks: usize,
    },
}

impl Inputs {
    pub fn generate(spec: Spec, seed: u64, counts: Counts) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_be7c);
        let total = counts.warm + counts.open + counts.sat;
        let (keys, frames, stream) = match spec.kind {
            Kind::AuthzQuery => authz_inputs(&mut rng, total),
            Kind::CascadeVerify => cascade_inputs(&mut rng, total),
            Kind::DepositDurable => deposit_inputs(&mut rng, total),
        };
        let messages = frames
            .iter()
            .map(|(m, _)| m.clone())
            .collect::<Vec<Message>>();
        let frames = frames.into_iter().map(|(_, f)| f).collect();
        let mut stream = stream.into_iter();
        let mut take = |n: usize| stream.by_ref().take(n).collect::<Vec<Item>>();
        let warm = take(counts.warm);
        let (mut open, mut sat) = (Vec::new(), Vec::new());
        let share = |n: usize, r: usize| (r + 1) * n / counts.rounds - r * n / counts.rounds;
        for r in 0..counts.rounds {
            open.extend(take(share(counts.open, r)));
            sat.extend(take(share(counts.sat, r)));
        }
        Inputs {
            spec,
            seed,
            rounds: counts.rounds,
            frames,
            messages,
            warm,
            open,
            sat,
            keys,
        }
    }

    /// The measured phases' items in the order they are served: round
    /// by round, the round's share of `open`, then of `sat`.
    pub fn served(&self) -> Vec<Item> {
        let open = split(&self.open, self.rounds);
        let sat = split(&self.sat, self.rounds);
        open.iter()
            .zip(&sat)
            .flat_map(|(o, s)| o.iter().chain(s.iter()))
            .copied()
            .collect()
    }

    /// Items that must be refused, over `items`.
    pub fn injected(items: &[Item]) -> usize {
        items
            .iter()
            .filter(|i| matches!(i.expect, Expect::Refused(_)))
            .count()
    }

    /// The end-server's verifying key material and revocation mirror, for
    /// the cascade workload's layer twins.
    pub fn alice_key(&self) -> Option<&SigningKey> {
        match &self.keys {
            Keys::Cascade { alice, .. } => Some(alice),
            _ => None,
        }
    }

    pub fn revocation_artifacts(&self) -> &[RevocationArtifact] {
        match &self.keys {
            Keys::Cascade { revocations, .. } => revocations,
            _ => &[],
        }
    }

    /// A sample of revoked serials, to probe the mirror with hits.
    pub fn revoked_probe(&self) -> &[u64] {
        match &self.keys {
            Keys::Cascade { revoked_probe, .. } => revoked_probe,
            _ => &[],
        }
    }

    /// The payor keys of the deposit workload (payor `i` signs checks
    /// drawn on account `acct{i}`).
    pub fn payor_keys(&self) -> &[SigningKey] {
        match &self.keys {
            Keys::Deposit { payors, .. } => payors,
            _ => &[],
        }
    }

    /// Funding of every payor account plus the replay-guard size.
    pub fn total_checks(&self) -> usize {
        match &self.keys {
            Keys::Deposit { total_checks, .. } => *total_checks,
            _ => 0,
        }
    }
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_draw(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn encoded(msg: Message) -> (Message, Vec<u8>) {
    let frame = msg.to_frame(0);
    (msg, frame)
}

type Generated = (Keys, Vec<(Message, Vec<u8>)>, Vec<Item>);

fn authz_inputs(rng: &mut StdRng, total: usize) -> Generated {
    let key = SymmetricKey::generate(rng);
    let mut frames = Vec::new();
    for c in 0..AUTHZ_CLIENTS {
        for o in 0..AUTHZ_OBJECTS {
            frames.push(encoded(Message::AuthzQuery {
                client: p(&format!("c{c}")),
                presentations: vec![],
                end_server: p(END_SERVER),
                operation: Operation::new("read"),
                object: ObjectName::new(format!("x{o}")),
                validity: window(),
                now: NOW,
            }));
        }
    }
    let stream = (0..total)
        .map(|_| Item {
            frame: rng.gen_range(0..frames.len()) as u32,
            expect: Expect::Grant,
        })
        .collect();
    (Keys::Authz { key }, frames, stream)
}

fn cascade_inputs(rng: &mut StdRng, total: usize) -> Generated {
    let alice = SigningKey::generate(rng);
    let authority = GrantAuthority::Keypair(alice.clone());
    let registry = RevocationRegistry::new(p("alice"));
    let revoked: Vec<u64> = (0..REVOKED_SERIALS)
        .map(|_| REVOKED_BASE + rng.gen_range(0..REVOKED_SERIALS * 64))
        .collect();
    registry.revoke_all(revoked.iter().copied());
    let revocations = registry.updates_since(0, &authority);
    let cascade = |root_serial: u64, first_derived: u64, rng: &mut StdRng| {
        let mut proxy = grant(
            &p("alice"),
            &authority,
            RestrictionSet::new(),
            window(),
            root_serial,
            rng,
        );
        for d in 0..CASCADE_DEPTH as u64 - 1 {
            proxy = proxy
                .derive(RestrictionSet::new(), window(), first_derived + d, rng)
                .expect("the window is fixed");
        }
        let mut challenge = [0u8; 32];
        challenge.iter_mut().for_each(|b| *b = rng.gen());
        encoded(Message::EndRequest {
            operation: Operation::new("read"),
            object: ObjectName::new("doc"),
            authenticated: vec![],
            presentations: vec![proxy.present_bearer(challenge, &p(END_SERVER))],
            now: NOW,
            amounts: vec![],
        })
    };
    let depth = CASCADE_DEPTH as u64;
    let mut frames: Vec<(Message, Vec<u8>)> = (0..CASCADES as u64)
        .map(|c| cascade(c * depth + 1, c * depth + 2, rng))
        .collect();
    // Revoked cascades: the root serial is in the mirror, the derived
    // serials are fresh.
    for r in 0..REVOKED_CASCADES as u64 {
        let serial = revoked[rng.gen_range(0..revoked.len())];
        let first = (CASCADES as u64 + r) * depth + 2;
        frames.push(cascade(serial, first, rng));
    }
    let cdf = zipf_cdf(CASCADES, ZIPF_S);
    let stream = (0..total)
        .map(|_| {
            if rng.gen::<f64>() < REVOKED_SHARE {
                Item {
                    frame: (CASCADES + rng.gen_range(0..REVOKED_CASCADES)) as u32,
                    expect: Expect::Refused(ErrorCode::VerifyFailed),
                }
            } else {
                Item {
                    frame: zipf_draw(&cdf, rng) as u32,
                    expect: Expect::Alice,
                }
            }
        })
        .collect();
    let revoked_probe = revoked.iter().step_by(97).copied().collect();
    (
        Keys::Cascade {
            alice,
            revocations,
            revoked_probe,
        },
        frames,
        stream,
    )
}

fn deposit_inputs(rng: &mut StdRng, total: usize) -> Generated {
    let bank = SigningKey::generate(rng);
    let payors: Vec<SigningKey> = (0..PAYORS).map(|_| SigningKey::generate(rng)).collect();
    // Decide the stream first: which positions re-present an earlier
    // check, and which earlier check.
    let mut stream: Vec<Item> = Vec::with_capacity(total);
    let mut fresh_positions: Vec<u32> = Vec::with_capacity(total);
    let mut checks = 0u32;
    for pos in 0..total {
        let eligible = fresh_positions.partition_point(|&f| (f as usize) + REPLAY_GAP <= pos);
        if eligible > 0 && rng.gen::<f64>() < REPLAY_SHARE {
            let target = fresh_positions[rng.gen_range(0..eligible)];
            stream.push(Item {
                frame: stream[target as usize].frame,
                expect: Expect::Refused(ErrorCode::VerifyFailed),
            });
        } else {
            fresh_positions.push(pos as u32);
            stream.push(Item {
                frame: checks,
                expect: Expect::Settled(u64::from(checks) + 1),
            });
            checks += 1;
        }
    }
    let mut checks_per_payor = vec![0u64; PAYORS];
    let frames = (0..checks as u64)
        .map(|i| {
            let payor = (i as usize) % PAYORS;
            checks_per_payor[payor] += 1;
            let check = write_check(
                &p(&format!("payor{payor}")),
                &GrantAuthority::Keypair(payors[payor].clone()),
                &p("bank"),
                &format!("acct{payor}"),
                p("shop"),
                i + 1,
                Currency::new("USD"),
                1,
                window(),
                rng,
            );
            encoded(Message::CheckDeposit {
                check: check.proxy,
                depositor: p("shop"),
                to_account: "shop".to_string(),
                next_hop: p("bank"),
                now: NOW,
            })
        })
        .collect();
    (
        Keys::Deposit {
            bank,
            payors,
            checks_per_payor,
            total_checks: checks as usize,
        },
        frames,
        stream,
    )
}

/// Where `deposit-durable` keeps its write-ahead log.
#[derive(Clone, Debug)]
pub enum Durability {
    /// A fresh WAL directory (default `WalOptions`: group commit).
    Wal(PathBuf),
    /// In memory, for the benchmark's own tests.
    #[cfg(test)]
    Mem,
}

/// The server side of one workload: the mux the event loop serves and
/// the concrete servers behind it (for cache and balance readings).
pub struct World {
    pub mux: Arc<ServiceMux<MapResolver>>,
    pub end: Option<Arc<EndServer<MapResolver>>>,
    pub bank: Option<Arc<AccountingServer>>,
    /// The timing decorator under the bank's journal, when traced.
    pub storage: Option<Arc<TimedStorage>>,
    wal_dir: Option<PathBuf>,
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A storage wrapper a test can slip under the bank's journal.
pub type Wrap<'a> = &'a dyn Fn(Arc<dyn Storage>) -> Arc<dyn Storage>;

impl World {
    /// Builds the server state for `inputs`. With a tracer, the bank's
    /// storage is wrapped in a [`TimedStorage`]; `wrap`, if given, goes
    /// under that.
    pub fn build(
        inputs: &Inputs,
        durability: &Durability,
        tracer: Option<&Arc<Tracer>>,
        wrap: Option<Wrap<'_>>,
    ) -> World {
        let mut world = World {
            mux: Arc::new(ServiceMux::new()),
            end: None,
            bank: None,
            storage: None,
            wal_dir: None,
        };
        match &inputs.keys {
            Keys::Authz { key } => {
                let mut authz = AuthorizationServer::new(
                    p(AUTHZ_SERVER),
                    GrantAuthority::SharedKey(key.clone()),
                    MapResolver::new(),
                );
                let db = authz.database_mut(p(END_SERVER));
                for o in 0..AUTHZ_OBJECTS {
                    let mut acl = Acl::new();
                    for c in 0..AUTHZ_CLIENTS {
                        acl = acl.with(
                            AclSubject::Principal(p(&format!("c{c}"))),
                            AclRights::ops(vec![Operation::new("read")]),
                        );
                    }
                    db.set(ObjectName::new(format!("x{o}")), acl);
                }
                world.mux = Arc::new(ServiceMux::new().with_authz(Arc::new(authz)));
            }
            Keys::Cascade {
                alice, revocations, ..
            } => {
                let mut end = EndServer::new(
                    p(END_SERVER),
                    MapResolver::new().with(
                        p("alice"),
                        GrantorVerifier::PublicKey(alice.verifying_key()),
                    ),
                );
                end.acls.set(
                    ObjectName::new("doc"),
                    Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
                );
                for artifact in revocations {
                    end.apply_revocation(artifact)
                        .expect("the issuer's own artifact applies");
                }
                let end = Arc::new(end);
                world.mux = Arc::new(ServiceMux::new().with_end_server(Arc::clone(&end)));
                world.end = Some(end);
            }
            Keys::Deposit {
                bank,
                payors,
                checks_per_payor,
                total_checks,
            } => {
                let base: Arc<dyn Storage> = match durability {
                    #[cfg(test)]
                    Durability::Mem => Arc::new(proxy_storage::MemStorage::new()),
                    Durability::Wal(dir) => {
                        world.wal_dir = Some(dir.clone());
                        Arc::new(
                            WalStorage::open(dir, WalOptions::default())
                                .expect("the WAL directory opens"),
                        )
                    }
                };
                let base = match wrap {
                    Some(wrap) => wrap(base),
                    None => base,
                };
                let store: Arc<dyn Storage> = match tracer {
                    Some(tracer) => {
                        let timed = Arc::new(TimedStorage::new(base, Arc::clone(tracer)));
                        world.storage = Some(Arc::clone(&timed));
                        timed
                    }
                    None => base,
                };
                // The guard refuses every deposit once full, so it is
                // sized from the generated check count.
                let mut server =
                    AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank.clone()))
                        .with_replay_capacity(2 * total_checks + 1024)
                        .with_storage(store)
                        .expect("a fresh journal opens");
                server.open_account("shop", vec![p("shop")]);
                for (i, key) in payors.iter().enumerate() {
                    let payor = p(&format!("payor{i}"));
                    server.register_grantor(
                        payor.clone(),
                        GrantorVerifier::PublicKey(key.verifying_key()),
                    );
                    server.open_account(format!("acct{i}"), vec![payor]);
                    server
                        .account_mut(&format!("acct{i}"))
                        .expect("just opened")
                        .credit(Currency::new("USD"), checks_per_payor[i]);
                }
                let bank = Arc::new(server);
                world.mux = Arc::new(ServiceMux::new().with_accounting(Arc::clone(&bank)));
                world.bank = Some(bank);
            }
        }
        world
    }

    /// Currency conservation: the shop holds one unit per settled
    /// deposit and the payors hold the rest of their funding.
    pub fn conservation(&self, inputs: &Inputs, settled: u64) -> Result<(), String> {
        let Some(bank) = &self.bank else {
            return Ok(());
        };
        let usd = Currency::new("USD");
        let shop = bank.account("shop").map_or(0, |a| a.balance(&usd));
        let payors: u64 = (0..PAYORS)
            .map(|i| {
                bank.account(&format!("acct{i}"))
                    .map_or(0, |a| a.balance(&usd))
            })
            .sum();
        let funded = inputs.total_checks() as u64;
        if shop != settled || shop + payors != funded {
            return Err(format!(
                "currency not conserved: shop {shop}, payors {payors}, funded {funded}, \
                 settled deposits {settled}"
            ));
        }
        Ok(())
    }

    /// Lifetime (hits, misses) of the seal cache on the request path.
    pub fn seal_cache_stats(&self) -> (u64, u64) {
        if let Some(end) = &self.end {
            return end.seal_cache().map_or((0, 0), VerifiedCertCache::stats);
        }
        if let Some(bank) = &self.bank {
            return bank.seal_cache().map_or((0, 0), VerifiedCertCache::stats);
        }
        (0, 0)
    }
}

/// A fresh, unique WAL directory under `root`.
pub fn fresh_wal_dir(root: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join(format!("wal-{}-{n}", std::process::id()))
}

/// Judges one reply against what its request had to get.
pub fn check_reply(expect: Expect, reply: &Message) -> Verdict {
    match (expect, reply) {
        (Expect::Refused(code), Message::Error { code: got, detail }) => {
            if *got == code {
                Verdict::Correct { refused: true }
            } else {
                Verdict::Violation(format!(
                    "injected request refused with {got:?} ({detail}), expected {code:?}"
                ))
            }
        }
        (Expect::Refused(_), other) => Verdict::Violation(format!(
            "accepted a request it must refuse: got {}",
            other.kind()
        )),
        (_, Message::Error { code, detail }) => {
            Verdict::Failed(format!("refused a valid request: {code:?} ({detail})"))
        }
        (Expect::Grant, Message::AuthzGrant { proxy }) => {
            if proxy.certs.is_empty() || *proxy.grantor() != p(AUTHZ_SERVER) {
                Verdict::Violation("grant not issued by the authorization server".into())
            } else {
                Verdict::Correct { refused: false }
            }
        }
        (Expect::Alice, Message::EndDecision { principals, .. }) => {
            if principals.contains(&p("alice")) {
                Verdict::Correct { refused: false }
            } else {
                Verdict::Violation(format!("accepted cascade names {principals:?}, not alice"))
            }
        }
        (
            Expect::Settled(no),
            Message::CheckSettled {
                check_no, amount, ..
            },
        ) => {
            if *check_no == no && *amount == 1 {
                Verdict::Correct { refused: false }
            } else {
                Verdict::Violation(format!(
                    "settled check {check_no} (amount {amount}), expected check {no}"
                ))
            }
        }
        (_, other) => Verdict::Failed(format!("wrong reply type {}", other.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_from_a_seed() {
        let _alone = crate::test_alone();
        for spec in SPECS {
            let counts = Counts {
                warm: 10,
                open: 1500,
                sat: 10,
                rounds: 2,
            };
            if spec.kind == Kind::CascadeVerify {
                // The 1M-serial mirror is slow to build in a debug test.
                continue;
            }
            let a = Inputs::generate(spec, 7, counts);
            let b = Inputs::generate(spec, 7, counts);
            assert_eq!(a.frames, b.frames);
            let key = |v: &[Item]| v.iter().map(|i| (i.frame, i.expect)).collect::<Vec<_>>();
            assert_eq!(key(&a.open), key(&b.open));
            let c = Inputs::generate(spec, 8, counts);
            assert_ne!(key(&a.open), key(&c.open));
        }
    }

    #[test]
    fn replays_point_far_back_at_settled_checks() {
        let _alone = crate::test_alone();
        let counts = Counts {
            warm: 500,
            open: 3000,
            sat: 3000,
            rounds: 3,
        };
        let inputs = Inputs::generate(SPECS[2], 3, counts);
        let mut all: Vec<Item> = inputs.warm.clone();
        all.extend(inputs.served());
        let mut first_seen = std::collections::HashMap::new();
        let mut replays = 0;
        for (pos, item) in all.iter().enumerate() {
            match item.expect {
                Expect::Settled(_) => {
                    assert!(first_seen.insert(item.frame, pos).is_none());
                }
                Expect::Refused(_) => {
                    replays += 1;
                    let first = first_seen[&item.frame];
                    assert!(pos >= first + REPLAY_GAP);
                }
                _ => unreachable!(),
            }
        }
        assert!(replays > 40, "{replays} replays in 6500 deposits");
    }
}
