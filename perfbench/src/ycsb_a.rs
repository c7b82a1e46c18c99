//! `ycsb_a`: YCSB-A (50% reads, 50% updates, Zipfian θ = 0.99) over the
//! plaintext reference `Pipeline` with no registered constraint.
//!
//! A write is acked only when its ledger receipt verifies:
//! `Pipeline::submit`, `Journal::digest`, `Journal::prove_inclusion`,
//! then the client-side `Journal::verify_inclusion`. A read is
//! `Database::get`. Receipt cost grows with ledger length (the Merkle
//! tree keeps only leaves, so a root or a path is O(n)); the ledger
//! starts at [`RECORDS`] entries and stays below the 4096-leaf
//! threshold of the parallel Merkle root, on the serial side, for the
//! whole stream.

use crate::reference;
use crate::trace::Tracer;
use crate::{Rep, Scale};
use prever_core::{Pipeline, Update, UpdateOutcome};
use prever_ledger::Journal;
use prever_storage::{Column, ColumnType, Key, Row, Schema, Value};
use prever_workloads::ycsb::{YcsbOp, YcsbWorkload, YcsbWorkloadKind};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// Why the workload exists.
pub const WHY: &str = "ledger receipts and storage reads: YCSB-A over the plaintext Pipeline, each write acked with a verified inclusion proof";

/// Preloaded records; also the ledger length when the stream starts.
const RECORDS: u64 = 2000;
/// The ledger must stay below this many entries (serial Merkle side).
const LEDGER_CAP: usize = 4096;
const OPS: usize = 300;
const VALUE_SIZE: usize = 100;
/// Receipts computed during set-up on preloaded entries.
const WARMUP_RECEIPTS: u64 = 16;
const TABLE: &str = "usertable";

fn sizes(scale: Scale) -> (u64, usize, u64) {
    match scale {
        Scale::Full => (RECORDS, OPS, WARMUP_RECEIPTS),
        Scale::Small => (64, 40, 2),
    }
}

fn row(k: u64, v: &[u8]) -> Row {
    Row::new(vec![Value::Uint(k), Value::Bytes(v.to_vec())])
}

/// Runs one repetition.
pub fn run(seed: u64, scale: Scale, trace: bool) -> Result<Rep, String> {
    let (records, n_ops, warmup) = sizes(scale);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wl = YcsbWorkload::new(YcsbWorkloadKind::A, records, 0.99, VALUE_SIZE);
    let preload: Vec<Vec<u8>> = (0..records).map(|_| wl.value(&mut rng)).collect();
    // An exact 50/50 mix: the generator's draws, skipping those of a
    // class already full, so the ledger length and the receipt count do
    // not vary with the seed.
    let writes_nominal = n_ops / 2;
    let mut ops: Vec<YcsbOp> = Vec::with_capacity(n_ops);
    let mut writes = 0;
    while ops.len() < n_ops {
        let op = wl.next_op(&mut rng);
        let full = if op.is_write() {
            writes == writes_nominal
        } else {
            ops.len() - writes == n_ops - writes_nominal
        };
        if !full {
            writes += usize::from(op.is_write());
            ops.push(op);
        }
    }

    // Set-up: schema, preload through the pipeline, warm-up receipts.
    reference::begin(!trace);
    let t_setup = Instant::now();
    let mut p = Pipeline::new();
    let schema = Schema::new(
        vec![
            Column::new("k", ColumnType::Uint),
            Column::new("v", ColumnType::Bytes),
        ],
        &["k"],
    )
    .map_err(|e| format!("schema: {e}"))?;
    p.create_table(TABLE, schema)
        .map_err(|e| format!("create table: {e}"))?;
    for (k, v) in preload.iter().enumerate() {
        let u = Update::new(k as u64, TABLE, row(k as u64, v), k as u64, "loader");
        p.submit(&u).map_err(|e| format!("preload: {e}"))?;
    }
    for s in 0..warmup {
        let d = p.journal().digest();
        let proof = p
            .journal()
            .prove_inclusion(s * 7 % records, d.size)
            .map_err(|e| format!("warm-up: {e}"))?;
        let entry = p
            .journal()
            .entry(s * 7 % records)
            .map_err(|e| format!("warm-up: {e}"))?;
        Journal::verify_inclusion(entry, &proof, &d)
            .map_err(|e| format!("warm-up receipt: {e}"))?;
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    reference::setup_done();

    let mut shadow: HashMap<u64, Vec<u8>> = preload
        .into_iter()
        .enumerate()
        .map(|(k, v)| (k as u64, v))
        .collect();
    let mut rep = Rep {
        setup_s,
        writes_nominal,
        reads_nominal: n_ops - writes_nominal,
        ..Rep::default()
    };
    let mut proof_hashes = 0usize;
    let mut tr = Tracer::new(trace);
    let paused = reference::paused_ns();
    let t_pass = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        reference::tick();
        let req = i as u64;
        rep.attempted += 1;
        match op {
            YcsbOp::Read(k) => {
                let key = Key(vec![Value::Uint(*k)]);
                let t0 = Instant::now();
                let got = tr.span("storage.get_ns", req, || p.database().get(TABLE, &key));
                let ns = t0.elapsed().as_nanos() as u64;
                let got = got.map_err(|e| format!("read {k}: {e}"))?;
                let want = shadow
                    .get(k)
                    .ok_or_else(|| format!("read {k}: key never written"))?;
                if got.map(|r| &r.values[1]) != Some(&Value::Bytes(want.clone())) {
                    return Err(format!("read {k}: value is not the last one written"));
                }
                rep.reads_ns.push(ns);
                rep.reads_epoch.push(reference::epoch());
            }
            YcsbOp::Update(k, v) => {
                let u = Update::new(records + req, TABLE, row(*k, v), records + req, "client");
                let t0 = Instant::now();
                let outcome = tr.span("core.submit_ns", req, || p.submit(&u));
                let seq = match outcome {
                    Ok(UpdateOutcome::Accepted { ledger_seq, .. }) => ledger_seq,
                    Ok(UpdateOutcome::Rejected { constraint }) => {
                        return Err(format!(
                            "update {k}: rejected by `{constraint}` with no constraint registered"
                        ))
                    }
                    Err(_) => {
                        rep.failed += 1;
                        continue;
                    }
                };
                let journal = p.journal();
                let digest = tr.span("ledger.digest_ns", req, || journal.digest());
                let proof = tr
                    .span("ledger.prove_ns", req, || {
                        journal.prove_inclusion(seq, digest.size)
                    })
                    .map_err(|e| format!("prove {seq}: {e}"))?;
                let entry = journal
                    .entry(seq)
                    .map_err(|e| format!("entry {seq}: {e}"))?
                    .clone();
                tr.span("ledger.verify_ns", req, || {
                    Journal::verify_inclusion(&entry, &proof, &digest)
                })
                .map_err(|e| format!("receipt for seq {seq} does not verify: {e}"))?;
                rep.writes_ns.push(t0.elapsed().as_nanos() as u64);
                rep.writes_epoch.push(reference::epoch());
                proof_hashes += proof.path.len();
                shadow.insert(*k, v.clone());
            }
            other => return Err(format!("YCSB-A generated a non-A op: {other:?}")),
        }
        rep.ops += 1;
    }
    rep.pass_ns = t_pass.elapsed().as_nanos() as u64 - (reference::paused_ns() - paused);
    rep.samples = reference::end();
    rep.trace = tr.finish();

    p.audit().map_err(|e| format!("pipeline audit: {e}"))?;
    let entries = p.journal().len();
    if entries >= LEDGER_CAP {
        return Err(format!(
            "ledger reached {entries} entries, past the serial Merkle side"
        ));
    }
    let (accepted, rejected) = p.stats();
    let rows = p.database().table(TABLE).map_err(|e| e.to_string())?.len();
    let writes = rep.writes_ns.len().max(1);
    rep.exact.insert("storage.rows", rows as f64);
    rep.exact.insert("ledger.entries", entries as f64);
    rep.exact
        .insert("ledger.proof_hashes", proof_hashes as f64 / writes as f64);
    rep.exact.insert(
        "core.accept_ratio",
        accepted as f64 / (accepted + rejected) as f64,
    );
    Ok(rep)
}
