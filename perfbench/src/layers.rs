//! Per-layer timings taken outside the server: each layer's public
//! functions are called from here on an in-process twin of the world,
//! replaying the workload's own request stream.

use std::sync::Arc;
use std::time::Instant;

use proxy_accounting::{account_object, debit_op, AccountingServer, Check, DepositOutcome};
use proxy_authz::EndServer;
use proxy_crypto::ed25519::{Signature, VerifyingKey};
use proxy_wire::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;
use restricted_proxy::prelude::*;
use restricted_proxy::revocation::RevocationDirectory;

use crate::stats::Sample;
use crate::trace::Tracer;
use crate::world::{check_reply, p, Expect, Inputs, Item, Kind, Verdict, World, NOW};

/// Whether `item` must be accepted (not refused) by the layer a twin
/// calls.
fn must_accept(item: &Item) -> bool {
    !matches!(item.expect, Expect::Refused(_))
}

/// What replaying the stream through `ServiceMux::handle` measured.
pub struct MuxReplay {
    pub decode_us: Sample,
    pub handle_us: Sample,
    pub encode_us: Sample,
    pub req_bytes: f64,
    pub reply_bytes: f64,
    /// Replies the twin got wrong (it must agree with the TCP run).
    pub disagreements: u64,
}

/// Serves `warm` untimed, then times decode → handle → encode for every
/// request of `timed`, through the twin's mux.
pub fn replay_mux(
    inputs: &Inputs,
    world: &World,
    warm: &[Item],
    timed: &[Item],
    id_base: u64,
    tracer: &Tracer,
) -> MuxReplay {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x7a1e);
    let mut disagreements = 0;
    for item in warm {
        let (_, msg) = Message::from_frame(&inputs.frames[item.frame as usize]).expect("own frame");
        let reply = world.mux.handle(msg, &mut rng);
        disagreements += u64::from(!matches!(
            check_reply(item.expect, &reply),
            Verdict::Correct { .. }
        ));
    }
    let (mut req_bytes, mut reply_bytes) = (0usize, 0usize);
    let mut out = Vec::with_capacity(4096);
    for (i, item) in timed.iter().enumerate() {
        let id = id_base + i as u64;
        let frame = &inputs.frames[item.frame as usize];
        let (_, msg) = tracer
            .span("wire.req_decode", Some(id), || Message::from_frame(frame))
            .expect("own frame");
        let reply = tracer.span("net.mux_handle", Some(id), || {
            world.mux.handle(msg, &mut rng)
        });
        out.clear();
        tracer.span("wire.reply_encode", Some(id), || {
            reply.encode_frame_into(&mut out, id)
        });
        req_bytes += frame.len();
        reply_bytes += out.len();
        disagreements += u64::from(!matches!(
            check_reply(item.expect, &reply),
            Verdict::Correct { .. }
        ));
    }
    let n = timed.len().max(1) as f64;
    MuxReplay {
        decode_us: Sample::new(tracer.durations_us("wire.req_decode")),
        handle_us: Sample::new(tracer.durations_us("net.mux_handle")),
        encode_us: Sample::new(tracer.durations_us("wire.reply_encode")),
        req_bytes: req_bytes as f64 / n,
        reply_bytes: reply_bytes as f64 / n,
        disagreements,
    }
}

/// What timing `AccountingServer::deposit` on the twin bank measured.
#[derive(Default)]
pub struct DepositReplay {
    pub deposit_us: Sample,
    pub self_us: Sample,
    /// Deposits whose outcome was not what the item had to get: a
    /// settlement for the item's check, or a refusal.
    pub disagreements: u64,
}

/// `AccountingServer::deposit` timed directly on a twin bank whose
/// journal sits on a [`crate::trace::TimedStorage`] sharing `tracer`:
/// total and self time (minus the storage spans inside it).
pub fn replay_deposits(
    inputs: &Inputs,
    bank: &AccountingServer,
    warm: &[Item],
    timed: &[Item],
    id_base: u64,
    tracer: &Tracer,
) -> DepositReplay {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0xde90);
    let mut disagreements = 0;
    let mut deposit = |item: &Item| {
        let Message::CheckDeposit {
            check,
            depositor,
            to_account,
            next_hop,
            now,
        } = inputs.messages[item.frame as usize].clone()
        else {
            unreachable!("the deposit workload sends only deposits")
        };
        let check = Check { proxy: check };
        let out = bank.deposit(&check, &depositor, &to_account, next_hop, now, &mut rng);
        let agrees = matches!(
            (item.expect, out),
            (Expect::Settled(_), Ok(DepositOutcome::Settled(_))) | (Expect::Refused(_), Err(_))
        );
        disagreements += u64::from(!agrees);
    };
    for item in warm {
        deposit(item);
    }
    for (i, item) in timed.iter().enumerate() {
        tracer.span("accounting.deposit", Some(id_base + i as u64), || {
            deposit(item)
        });
    }
    DepositReplay {
        deposit_us: Sample::new(tracer.durations_us("accounting.deposit")),
        self_us: Sample::new(tracer.self_times_us("accounting.deposit")),
        disagreements,
    }
}

/// One presentation of the stream with the context its server builds.
fn presentation_of(inputs: &Inputs, item: &Item) -> Option<(Presentation, RequestContext)> {
    match &inputs.messages[item.frame as usize] {
        Message::EndRequest {
            presentations,
            operation,
            object,
            ..
        } => Some((
            presentations[0].clone(),
            RequestContext::new(p("S"), operation.clone(), object.clone()).at(NOW),
        )),
        Message::CheckDeposit { check, .. } => {
            let info = Check {
                proxy: check.clone(),
            }
            .info()
            .ok()?;
            let mut ctx =
                RequestContext::new(p("bank"), debit_op(), account_object(&info.payor_account))
                    .at(NOW)
                    .consuming(info.currency.clone(), info.amount);
            ctx.authenticated = vec![p("shop"), p("bank")];
            Some((check.present_delegate(), ctx))
        }
        _ => None,
    }
}

/// Key material of the twin verifier: who may seal root certificates.
fn twin_verifier(inputs: &Inputs) -> Option<Verifier<MapResolver>> {
    match inputs.spec.kind {
        Kind::AuthzQuery => None,
        Kind::CascadeVerify => {
            let alice = inputs.alice_key()?.verifying_key();
            let mirror = Arc::new(RevocationDirectory::new());
            for artifact in inputs.revocation_artifacts() {
                mirror
                    .apply_verified(artifact)
                    .expect("the issuer's own artifact applies");
            }
            Some(
                Verifier::new(
                    p("S"),
                    MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(alice)),
                )
                .with_seal_cache(EndServer::<MapResolver>::SEAL_CACHE_CAPACITY)
                .with_revocation(mirror),
            )
        }
        Kind::DepositDurable => {
            let mut resolver = MapResolver::new();
            for (i, key) in inputs.payor_keys().iter().enumerate() {
                resolver = resolver.with(
                    p(&format!("payor{i}")),
                    GrantorVerifier::PublicKey(key.verifying_key()),
                );
            }
            Some(
                Verifier::new(p("bank"), resolver)
                    .with_seal_cache(AccountingServer::SEAL_CACHE_CAPACITY)
                    .with_revocation(Arc::new(RevocationDirectory::new())),
            )
        }
    }
}

/// What the proxy and crypto layers measured on the twin verifier.
#[derive(Default)]
pub struct ProxyLayer {
    pub verify_us: Sample,
    pub revocation_probe_ns: f64,
    pub ed25519_verify_us: Sample,
    /// Presentations the twin accepted although they had to be refused,
    /// or refused although they had to be accepted.
    pub disagreements: u64,
}

/// `Verifier::verify` over the stream (one replay guard for the whole
/// stream, as on the server), `RevocationDirectory::is_revoked` over
/// every certificate serial the stream presents, and
/// `VerifyingKey::verify` over its root seals.
pub fn proxy_layer(inputs: &Inputs, warm: &[Item], timed: &[Item]) -> ProxyLayer {
    let Some(verifier) = twin_verifier(inputs) else {
        return ProxyLayer::default();
    };
    let mut guard = MemoryReplayGuard::new();
    let mut disagreements = 0;
    for item in warm {
        if let Some((pres, ctx)) = presentation_of(inputs, item) {
            let out = verifier.verify(&pres, &ctx, &mut guard);
            disagreements += u64::from(out.is_ok() != must_accept(item));
        }
    }
    let mut verify_us = Vec::with_capacity(timed.len());
    let mut serials = Vec::new();
    let mut seals: Vec<(Vec<u8>, Signature, VerifyingKey)> = Vec::new();
    for item in timed {
        let Some((pres, ctx)) = presentation_of(inputs, item) else {
            continue;
        };
        let t = Instant::now();
        let out = verifier.verify(&pres, &ctx, &mut guard);
        verify_us.push(t.elapsed().as_secs_f64() * 1e6);
        disagreements += u64::from(out.is_ok() != must_accept(item));
        serials.extend(pres.certs.iter().map(|c| (c.grantor.clone(), c.serial)));
        let root = &pres.certs[0];
        if let (CertSeal::Ed25519(sig), Some(GrantorVerifier::PublicKey(vk))) = (
            &root.seal,
            verifier.resolver().grantor_verifier(&root.grantor),
        ) {
            if seals.len() < 2000 {
                seals.push((root.body_bytes(), *sig, vk));
            }
        }
    }
    let directory = verifier
        .revocation_directory()
        .expect("the twin verifier has a mirror");
    let issuer = serials
        .first()
        .map_or_else(|| p("alice"), |(g, _)| g.clone());
    serials.extend(inputs.revoked_probe().iter().map(|&s| (issuer.clone(), s)));
    let mut per_probe = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let hits = serials
            .iter()
            .filter(|(g, s)| directory.is_revoked(g, *s))
            .count();
        std::hint::black_box(hits);
        per_probe.push(t.elapsed().as_secs_f64() * 1e9 / serials.len().max(1) as f64);
    }
    per_probe.sort_by(f64::total_cmp);
    let ed25519_verify_us = seals
        .iter()
        .map(|(body, sig, vk)| {
            let t = Instant::now();
            let ok = vk.verify(body, sig).is_ok();
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(ok, "a generated root seal verifies");
            us
        })
        .collect();
    ProxyLayer {
        verify_us: Sample::new(verify_us),
        revocation_probe_ns: per_probe[per_probe.len() / 2],
        ed25519_verify_us: Sample::new(ed25519_verify_us),
        disagreements,
    }
}
