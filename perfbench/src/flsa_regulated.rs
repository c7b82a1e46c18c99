//! `flsa_regulated`: crowdworking task completions through the plaintext
//! `Pipeline` under the FLSA 40-hours-per-week sliding-window
//! regulation (E2). The table is preloaded with history spanning many
//! weeks, then the regulation is registered, then the stream runs. Acks
//! carry the verdict and the ledger sequence number, with no proof.
//!
//! The window of one update holds a small share of the rows, yet the
//! reference evaluator scans all of them, so the constraints layer
//! dominates. Zipfian workers keep both verdicts busy.

use crate::reference;
use crate::trace::Tracer;
use crate::{Rep, Scale};
use prever_constraints::{Constraint, ConstraintScope};
use prever_core::{Pipeline, Update, UpdateOutcome};
use prever_storage::{Column, ColumnType, Row, Schema, Value};
use prever_workloads::crowdworking::{CrowdworkingConfig, CrowdworkingWorkload, TaskCompletion};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Why the workload exists.
pub const WHY: &str = "constraint checking: FLSA sliding-window regulation over a preloaded table, evaluated by a full scan per update";

/// Regulation window, seconds.
pub(crate) const WEEK: u64 = 604_800;
/// Weekly hour bound.
pub(crate) const BOUND: u64 = 40;
const PRELOAD: usize = 16_000;
const OPS: usize = 300;
const TABLE: &str = "tasks";

/// The E2 regulation.
fn regulation() -> Result<Constraint, String> {
    Constraint::parse(
        "FLSA-40h",
        ConstraintScope::Regulation,
        &format!(
            "COUNT(tasks WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) = 0 \
             OR SUM(tasks.hours WHERE tasks.worker = $worker WITHIN {WEEK} OF tasks.ts) + $hours <= {BOUND}"
        ),
    )
    .map_err(|e| format!("regulation: {e}"))
}

/// The task stream shared by both FLSA workloads.
pub(crate) fn tasks(seed: u64, n: usize) -> Vec<TaskCompletion> {
    let mut rng = StdRng::seed_from_u64(seed);
    CrowdworkingWorkload::new(CrowdworkingConfig::default()).batch(n, &mut rng)
}

fn update(t: &TaskCompletion) -> Update {
    let row = Row::new(vec![
        Value::Uint(t.id),
        Value::Str(t.worker.clone()),
        Value::Uint(t.hours),
        Value::Timestamp(t.ts),
    ]);
    Update::new(t.id, TABLE, row, t.ts, &t.worker)
}

/// Shadow of the regulated table: per worker, (ts, hours) of every row,
/// oldest first, pruned as the window slides past.
#[derive(Default)]
struct Shadow(HashMap<String, VecDeque<(u64, u64)>>);

impl Shadow {
    fn insert(&mut self, t: &TaskCompletion) {
        self.0
            .entry(t.worker.clone())
            .or_default()
            .push_back((t.ts, t.hours));
    }

    /// Hours of `worker` in the window `(ts − WEEK, ts]`. Stream
    /// timestamps increase, so rows that fall out never come back.
    fn window_sum(&mut self, worker: &str, ts: u64) -> u64 {
        let Some(q) = self.0.get_mut(worker) else {
            return 0;
        };
        while q.front().is_some_and(|&(t, _)| t + WEEK <= ts) {
            q.pop_front();
        }
        q.iter().map(|&(_, h)| h).sum()
    }
}

/// Runs one repetition.
pub fn run(seed: u64, scale: Scale, trace: bool) -> Result<Rep, String> {
    let (preload, n_ops) = match scale {
        Scale::Full => (PRELOAD, OPS),
        Scale::Small => (300, 40),
    };
    let all = tasks(seed, preload + n_ops);
    let (history, stream) = all.split_at(preload);

    // Set-up: schema, unregulated history, then the regulation.
    reference::begin(!trace);
    let t_setup = Instant::now();
    let mut p = Pipeline::new();
    let schema = Schema::new(
        vec![
            Column::new("id", ColumnType::Uint),
            Column::new("worker", ColumnType::Str),
            Column::new("hours", ColumnType::Uint),
            Column::new("ts", ColumnType::Timestamp),
        ],
        &["id"],
    )
    .map_err(|e| format!("schema: {e}"))?;
    p.create_table(TABLE, schema)
        .map_err(|e| format!("create table: {e}"))?;
    for t in history {
        p.submit(&update(t)).map_err(|e| format!("preload: {e}"))?;
    }
    p.register_constraint(regulation()?);
    let setup_s = t_setup.elapsed().as_secs_f64();
    reference::setup_done();

    let mut shadow = Shadow::default();
    history.iter().for_each(|t| shadow.insert(t));
    let mut rep = Rep {
        setup_s,
        writes_nominal: n_ops,
        ..Rep::default()
    };
    let mut accepted = 0u64;
    let mut next_seq = p.journal().len() as u64;
    let mut tr = Tracer::new(trace);
    tr.probe("constraints.check_ns", "pipeline.verify");
    tr.probe("core.incorporate_ns", "pipeline.incorporate");
    let paused = reference::paused_ns();
    let t_pass = Instant::now();
    for (i, t) in stream.iter().enumerate() {
        reference::tick();
        let u = update(t);
        rep.attempted += 1;
        let t0 = Instant::now();
        let outcome = tr.span("core.submit_ns", i as u64, || p.submit(&u));
        let ns = t0.elapsed().as_nanos() as u64;
        let want = shadow.window_sum(&t.worker, t.ts) + t.hours <= BOUND;
        match outcome {
            Ok(UpdateOutcome::Accepted { ledger_seq, .. }) => {
                if !want {
                    return Err(format!("task {}: accepted over the {BOUND}h bound", t.id));
                }
                if ledger_seq != next_seq {
                    return Err(format!(
                        "task {}: ack seq {ledger_seq}, expected {next_seq}",
                        t.id
                    ));
                }
                next_seq += 1;
                accepted += 1;
                shadow.insert(t);
            }
            Ok(UpdateOutcome::Rejected { .. }) => {
                if want {
                    return Err(format!("task {}: rejected within the {BOUND}h bound", t.id));
                }
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

    p.audit().map_err(|e| format!("pipeline audit: {e}"))?;
    let (acc_all, rej_all) = p.stats();
    if (acc_all - preload as u64, rej_all) != (accepted, rep.ops - accepted) {
        return Err(format!(
            "pipeline counts ({acc_all}, {rej_all}) disagree with the oracle's {accepted} accepted"
        ));
    }
    let rows = p.database().table(TABLE).map_err(|e| e.to_string())?.len();
    rep.exact.insert("storage.rows", rows as f64);
    rep.exact.insert("ledger.entries", p.journal().len() as f64);
    rep.exact
        .insert("core.accept_ratio", accepted as f64 / rep.ops.max(1) as f64);
    Ok(rep)
}
