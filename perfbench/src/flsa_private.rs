//! `flsa_private`: the same kind of task stream through the RC1 private
//! path. Each op is the producer's `single::produce_update` followed by
//! `OutsourcedManager::submit` with the owner's verdict. Windows are
//! fixed, `ts / 604800`. Parameters are demo-scale, as in E1 and E2:
//! `DataOwner::new(96)` and `SchnorrGroup::test_group_256`.
//!
//! Set against `flsa_regulated`, it gives the paper's private versus
//! non-private ratio.

use crate::flsa_regulated::{tasks, BOUND, WEEK};
use crate::reference;
use crate::trace::Tracer;
use crate::{Rep, Scale};
use prever_core::single::{produce_update, DataOwner, OutsourcedManager};
use prever_core::UpdateOutcome;
use prever_crypto::bignum::BigUint;
use prever_ledger::Journal;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Why the workload exists.
pub const WHY: &str = "crypto: FLSA fixed-window bound on Paillier-encrypted hours with range proofs, the private counterpart of flsa_regulated";

/// Paillier prime size (demo scale).
const PRIME_BITS: usize = 96;
const OPS: usize = 500;
/// The set-up update's subject, outside the stream's workers.
const WARMUP_SUBJECT: &str = "warm-up";

/// Runs one repetition.
pub fn run(seed: u64, scale: Scale, trace: bool) -> Result<Rep, String> {
    let n_ops = match scale {
        Scale::Full => OPS,
        Scale::Small => 30,
    };
    let stream = tasks(seed, n_ops);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // Set-up: owner key generation, the manager, and the first private
    // update (on a subject of its own), which builds what a manager
    // builds once per lifetime.
    reference::begin(!trace);
    let t_setup = Instant::now();
    let mut owner = DataOwner::new(PRIME_BITS, &mut rng);
    let params = owner.public_params();
    let mut manager = OutsourcedManager::new(params.clone(), BOUND);
    let first = produce_update(&params, 0, WARMUP_SUBJECT, 0, 1, 0, &mut rng)
        .map_err(|e| format!("set-up: {e}"))?;
    match manager.submit(&first, &mut owner, &mut rng) {
        Ok(UpdateOutcome::Accepted { .. }) => {}
        other => return Err(format!("set-up update not accepted: {other:?}")),
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    reference::setup_done();

    let mut shadow: BTreeMap<(String, u64), u64> = BTreeMap::new();
    shadow.insert((WARMUP_SUBJECT.to_string(), 0), 1);
    let mut rep = Rep {
        setup_s,
        writes_nominal: n_ops,
        ..Rep::default()
    };
    let mut accepted = 0u64;
    let mut tr = Tracer::new(trace);
    tr.probe("crypto.paillier_encrypt_ns", "paillier.encrypt");
    tr.probe("crypto.paillier_decrypt_ns", "paillier.decrypt");
    let paused = reference::paused_ns();
    let t_pass = Instant::now();
    for (i, t) in stream.iter().enumerate() {
        reference::tick();
        let req = i as u64;
        let window = t.ts / WEEK;
        rep.attempted += 1;
        let t0 = Instant::now();
        let update = tr.span("core.produce_ns", req, || {
            produce_update(&params, t.id, &t.worker, window, t.hours, t.ts, &mut rng)
        });
        let outcome = match update {
            Ok(u) => tr.span("core.private_submit_ns", req, || {
                manager.submit(&u, &mut owner, &mut rng)
            }),
            Err(_) => {
                rep.failed += 1;
                continue;
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let total = shadow
            .get(&(t.worker.clone(), window))
            .copied()
            .unwrap_or(0);
        let want = total + t.hours <= BOUND;
        match outcome {
            Ok(UpdateOutcome::Accepted { .. }) if want => {
                accepted += 1;
                shadow.insert((t.worker.clone(), window), total + t.hours);
            }
            Ok(UpdateOutcome::Rejected { .. }) if !want => {}
            Ok(o) => {
                return Err(format!(
                    "task {}: verdict {o:?}, shadow window total {total} + {}h",
                    t.id, t.hours
                ))
            }
            Err(_) => {
                rep.failed += 1;
                continue;
            }
        }
        rep.writes_ns.push(ns);
        rep.writes_epoch.push(reference::epoch());
        rep.ops += 1;
    }
    rep.pass_ns = t_pass.elapsed().as_nanos() as u64 - (reference::paused_ns() - paused);
    rep.samples = reference::end();
    rep.trace = tr.finish();

    for ((worker, window), total) in &shadow {
        let acc = manager
            .accumulator(worker, *window)
            .ok_or_else(|| format!("no accumulator for ({worker}, w{window})"))?;
        let plain = owner.decrypt(acc).map_err(|e| format!("decrypt: {e}"))?;
        if plain != BigUint::from_u64(*total) {
            return Err(format!(
                "accumulator ({worker}, w{window}) decrypts to {plain:?}, shadow says {total}"
            ));
        }
    }
    // The set-up update is the manager's first acceptance.
    if manager.stats() != (accepted + 1, rep.ops - accepted) {
        return Err(format!(
            "manager counts {:?} disagree with the oracle's {accepted} accepted",
            manager.stats()
        ));
    }
    Journal::verify_chain(manager.journal().entries(), &manager.digest())
        .map_err(|e| format!("journal chain: {e}"))?;
    rep.exact
        .insert("ledger.entries", manager.journal().len() as f64);
    rep.exact
        .insert("core.accept_ratio", accepted as f64 / rep.ops.max(1) as f64);
    Ok(rep)
}
