//! The declared metrics and the run that measures them.
//!
//! Units carry the clock: `ref-*` units are host wall time scaled to the
//! reference kernel's speed (see [`crate::reference`]), `wall-*` units
//! are host wall time, `virtual-us` is simulator time, `count`/`ratio`/
//! `MiB` are counts. `setup_s` keeps the plain unit `s`; it is scaled
//! wall time like the other end-to-end times.

use crate::reference::Reference;
use crate::serve_pbft::HANDLER_STEMS;
use crate::stats::{median, percentile, tail_pct};
use crate::{Rep, Scale, Workload};
use std::time::Instant;

/// The clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock, scaled by the reference kernel's speed.
    Ref,
    /// Host wall clock.
    Wall,
    /// Simulator virtual time.
    Virtual,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    /// Name printed next to each value.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Ref => "ref",
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// Value.
    pub value: f64,
    /// How the value was taken, for the human-readable lines.
    pub note: String,
}

/// Untraced end-to-end metrics: (name, unit, clock).
pub const END_TO_END: [(&str, &str, Clock); 5] = [
    ("ops_per_s", "ops/ref-s", Clock::Ref),
    ("write_p50_us", "ref-us", Clock::Ref),
    ("write_tail_us", "ref-us", Clock::Ref),
    ("setup_s", "s", Clock::Ref),
    ("peak_rss_mib", "MiB", Clock::Count),
];

/// Layers timed per call in the traced run. Each gives `<stem>` (p50
/// wall-ns per call) and `<stem>.total` (wall-ns over the traced pass).
pub const CALL_STEMS: [&str; 14] = [
    "storage.get_ns",
    "core.submit_ns",
    "constraints.check_ns",
    "core.incorporate_ns",
    "ledger.digest_ns",
    "ledger.prove_ns",
    "ledger.verify_ns",
    "core.produce_ns",
    "core.private_submit_ns",
    "crypto.paillier_encrypt_ns",
    "crypto.paillier_decrypt_ns",
    "server.frame_ns",
    "consensus.timer_ns",
    "server.client_ns",
];

/// Per-repetition counts reported by the traced run: (name, unit).
/// A workload that does not touch the layer reports 0.
pub const COUNTS: [(&str, &str); 10] = [
    ("storage.rows", "count"),
    ("core.accept_ratio", "ratio"),
    ("ledger.entries", "count"),
    ("ledger.proof_hashes", "count"),
    ("consensus.msgs_per_cmd", "count"),
    ("consensus.cmds_per_batch", "count"),
    ("consensus.wal_flushes_per_cmd", "count"),
    ("consensus.wal_bytes_per_cmd", "count"),
    ("sim.events_per_cmd", "count"),
    ("server.shed", "count"),
];

/// Remaining per-layer metrics: (name, unit, clock). The read and
/// commit latencies exist on one workload each, so they are reported
/// here (0 elsewhere), from the traced run's untraced repetitions.
pub const OTHERS: [(&str, &str, Clock); 8] = [
    ("read_p50_us", "ref-us", Clock::Ref),
    ("read_tail_us", "ref-us", Clock::Ref),
    ("commit_p50_vus", "virtual-us", Clock::Virtual),
    ("commit_tail_vus", "virtual-us", Clock::Virtual),
    ("error_rate", "ratio", Clock::Count),
    ("sim.engine_ns_per_event", "wall-ns", Clock::Wall),
    ("bench.unattributed_share", "ratio", Clock::Count),
    ("bench.trace_overhead", "ratio", Clock::Count),
];

/// Share of the traced pass that layer spans must cover.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_decls() -> Vec<(String, &'static str, Clock)> {
    let mut out = Vec::new();
    let stems = CALL_STEMS
        .iter()
        .copied()
        .chain(HANDLER_STEMS.iter().map(|(_, s)| *s));
    for stem in stems {
        out.push((stem.to_string(), "wall-ns", Clock::Wall));
        out.push((format!("{stem}.total"), "wall-ns", Clock::Wall));
    }
    out.extend(
        COUNTS
            .iter()
            .map(|(n, u)| (n.to_string(), *u, Clock::Count)),
    );
    out.extend(OTHERS.iter().map(|(n, u, c)| (n.to_string(), *u, *c)));
    out
}

/// Every end-to-end metric name with its unit.
pub fn end_to_end_decls() -> Vec<(String, &'static str, Clock)> {
    END_TO_END
        .iter()
        .map(|(n, u, c)| (n.to_string(), *u, *c))
        .collect()
}

/// A finished run.
pub struct Report {
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Operations attempted over every repetition.
    pub attempted: u64,
    /// Operations failed over every repetition.
    pub failed: u64,
    /// Wall `ops_per_s` of each untraced repetition, in run order.
    pub rep_ops_per_s: Vec<f64>,
    /// Stream scale factor of each untraced repetition, in run order.
    pub rep_scale: Vec<f64>,
    /// Mean stream slice times of each untraced repetition.
    pub rep_slices: Vec<crate::reference::Timing>,
    /// The traced repetition the per-layer values come from.
    pub traced: Option<Rep>,
}

/// A repetition's scale factors: reference over measured slice time.
#[derive(Clone, Copy, Debug)]
struct Factors {
    /// For set-up ([`Reference::Alloc`]).
    setup: f64,
    /// For the whole stream (the workload's [`crate::reference::Scaling`]).
    stream: f64,
}

/// Untraced repetitions always measured, however short `seconds` is.
const MIN_REPS: usize = 3;

/// Checks that a traced pass's layer self times (wall-ns only) sum to
/// the time its top-level spans cover, lie inside the pass, and cover
/// it within [`ACCOUNTING_TOLERANCE`]. Returns the unattributed share.
fn accounting(rep: &Rep) -> Result<f64, String> {
    let tr = rep
        .trace
        .as_ref()
        .expect("traced repetition carries its trace");
    let self_sum: u64 = tr.self_ns.values().sum();
    if self_sum > rep.pass_ns || self_sum != tr.attributed_ns {
        return Err(format!(
            "layer self times {self_sum} ns do not partition the {} ns spans cover inside the {} ns pass",
            tr.attributed_ns, rep.pass_ns
        ));
    }
    let unattributed = 1.0 - self_sum as f64 / rep.pass_ns as f64;
    if unattributed > ACCOUNTING_TOLERANCE {
        return Err(format!(
            "layer spans cover {:.1}% of the traced pass, below the {:.0}% tolerance",
            100.0 * (1.0 - unattributed),
            100.0 * (1.0 - ACCOUNTING_TOLERANCE)
        ));
    }
    Ok(unattributed)
}

/// Runs `w` for `seconds`, repeating set-up and stream on fresh state.
/// When tracing, traced and untraced repetitions alternate so both see
/// the same host conditions. Fails on an oracle violation, on counts
/// that differ between repetitions, or on a traced pass whose layer
/// spans do not account for its wall time.
///
/// Each untraced repetition runs reference-kernel slices (see
/// [`crate::reference`]). Set-up time is multiplied by the
/// [`Reference::Alloc`] factor of the slices before and after it; each
/// stream operation's latency by the factor of the two slices around it,
/// under the workload's [`crate::reference::Scaling`]; `ops_per_s` is
/// divided by the time-weighted mean of those factors. Traced
/// repetitions run no slices and are not scaled. End-to-end values are
/// medians over untraced repetitions. Per-layer wall-ns values are
/// unscaled and come from the traced repetition with the median
/// `ops_per_s`.
pub fn execute(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Report, String> {
    prever_obs::set_enabled(false);
    let start = Instant::now();
    let rep = |tracing: bool| -> Result<(Rep, Factors), String> {
        let r = (w.run)(seed, scale, tracing)?;
        let f = Factors {
            setup: r.samples.setup.factor(&[Reference::Alloc]),
            stream: r.samples.stream_factor(w.stream),
        };
        Ok((r, f))
    };
    let mut reps: Vec<(Rep, Factors)> = vec![rep(false)?];
    // Peak memory of set-up plus one pass: later repetitions reuse a
    // heap whose size depends on how many of them fit in the budget.
    let peak_rss_mib = crate::peak_rss_mib();
    let fp = reps[0].0.fingerprint();
    let (mut attempted, mut failed) = (reps[0].0.attempted, reps[0].0.failed);
    let mut traced: Vec<(Rep, f64)> = Vec::new();
    while reps.len() < MIN_REPS
        || (trace && traced.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = trace && traced.len() < reps.len();
        let (r, factor) = rep(tracing)?;
        if r.fingerprint() != fp {
            return Err(format!(
                "repetition {} counts differ from repetition 0 with the same seed",
                reps.len() + traced.len()
            ));
        }
        attempted += r.attempted;
        failed += r.failed;
        if !tracing {
            reps.push((r, factor));
            continue;
        }
        let unattributed = accounting(&r)?;
        traced.push((r, unattributed));
    }
    let n_traced = traced.len();
    let scaled_rate = |r: &Rep, f: &Factors| r.ops_per_s() / f.stream;
    // Traced repetitions run no reference slices: compare wall rates.
    let traced_rates: Vec<f64> = traced.iter().map(|(r, _)| r.ops_per_s()).collect();
    let traced_rate = median(&traced_rates);
    let traced = traced.into_iter().min_by(|a, b| {
        let d = |x: &(Rep, f64)| (x.0.ops_per_s() - traced_rate).abs();
        d(a).total_cmp(&d(b))
    });
    let decls = if trace {
        per_layer_decls()
    } else {
        end_to_end_decls()
    };
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, note: String| {
        let (_, unit, clock) = decls
            .iter()
            .find(|(d, _, _)| d == name)
            .expect("every printed metric is declared");
        metrics.push(Metric {
            name: name.to_string(),
            unit,
            clock: *clock,
            value,
            note,
        });
    };
    let n = reps.len();
    let over = format!("median of {n} reps, scaled");
    let ops_per_s = median(
        &reps
            .iter()
            .map(|(r, f)| scaled_rate(r, f))
            .collect::<Vec<_>>(),
    );
    // Median over repetitions of each one's latency percentile, µs, each
    // operation scaled by the factor of the slices around it.
    let lat = |pick: fn(&Rep) -> (&Vec<u64>, &Vec<u32>), p: f64| {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|(r, _)| {
                let (ns, epochs) = pick(r);
                let mut v: Vec<u64> = ns
                    .iter()
                    .zip(epochs)
                    .map(|(&x, &e)| (x as f64 * r.samples.local(w.stream, e as usize)) as u64)
                    .collect();
                v.sort_unstable();
                percentile(&v, p) as f64 / 1e3
            })
            .collect();
        median(&per_rep)
    };
    let (writes, reads) = (reps[0].0.writes_ns.len(), reps[0].0.reads_ns.len());
    match &traced {
        None => {
            let wt = tail_pct(reps[0].0.writes_nominal);
            put("ops_per_s", ops_per_s, over.clone());
            put(
                "write_p50_us",
                lat(|r| (&r.writes_ns, &r.writes_epoch), 50.0),
                format!("{over}, {writes} writes/rep"),
            );
            put(
                "write_tail_us",
                lat(|r| (&r.writes_ns, &r.writes_epoch), wt),
                format!("p{wt} of {writes} writes/rep, {over}"),
            );
            let setup: Vec<f64> = reps.iter().map(|(r, f)| r.setup_s * f.setup).collect();
            put("setup_s", median(&setup), over.clone());
            put(
                "peak_rss_mib",
                peak_rss_mib,
                "VmHWM after set-up and the first pass".into(),
            );
        }
        Some((t, unattributed)) => {
            let tr = t
                .trace
                .as_ref()
                .expect("traced repetition carries its trace");
            let from = "median traced pass";
            for stem in CALL_STEMS
                .iter()
                .copied()
                .chain(HANDLER_STEMS.iter().map(|(_, s)| *s))
            {
                let (p50, total) = tr.calls.get(stem).copied().unwrap_or((0.0, 0.0));
                put(stem, p50, format!("p50 per call, {from}"));
                put(
                    &format!("{stem}.total"),
                    total,
                    format!("sum over the {from}"),
                );
            }
            for (name, _) in COUNTS {
                let v = t.exact.get(name).copied().unwrap_or(0.0);
                put(name, v, "exact, every rep".into());
            }
            let rt = tail_pct(reps[0].0.reads_nominal);
            put(
                "read_p50_us",
                lat(|r| (&r.reads_ns, &r.reads_epoch), 50.0),
                format!("{over}, {reads} reads/rep"),
            );
            put(
                "read_tail_us",
                lat(|r| (&r.reads_ns, &r.reads_epoch), rt),
                format!("p{rt} of {reads} reads/rep, {over}"),
            );
            let mut commits = t.commit_vus.clone();
            commits.sort_unstable();
            let ct = tail_pct(commits.len());
            let note = |p: f64| format!("p{p} of {} commits, identical every rep", commits.len());
            put(
                "commit_p50_vus",
                percentile(&commits, 50.0) as f64,
                note(50.0),
            );
            put("commit_tail_vus", percentile(&commits, ct) as f64, note(ct));
            let rate = failed as f64 / attempted as f64;
            put("error_rate", rate, format!("{failed} of {attempted} ops"));
            let engine = tr.self_ns.get("sim.run").copied().unwrap_or(0) as f64;
            let per_event = engine / t.events.max(1) as f64;
            put(
                "sim.engine_ns_per_event",
                per_event,
                format!("sim.run self time / events, {from}"),
            );
            let note = format!("tolerance {ACCOUNTING_TOLERANCE}");
            put("bench.unattributed_share", *unattributed, note);
            let untraced: Vec<f64> = reps.iter().map(|(r, _)| r.ops_per_s()).collect();
            let overhead = median(&untraced) / traced_rate;
            let note = format!("median wall ops_per_s of {n} untraced / of {n_traced} traced reps");
            put("bench.trace_overhead", overhead, note);
        }
    }
    Ok(Report {
        metrics,
        attempted,
        failed,
        rep_ops_per_s: reps.iter().map(|(r, _)| r.ops_per_s()).collect(),
        rep_scale: reps.iter().map(|(_, f)| f.stream).collect(),
        rep_slices: reps.iter().map(|(r, _)| r.samples.stream_mean()).collect(),
        traced: traced.map(|(t, _)| t),
    })
}
