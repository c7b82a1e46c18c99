//! # prever-perfbench
//!
//! The repository's end-to-end benchmark. One command runs one
//! workload through the public APIs of the PReVer crates, checks every
//! output against an oracle kept in this crate, and prints each metric
//! with its unit and clock. An untraced run (`--trace 0`) gives the
//! end-to-end metrics; a traced run (`--trace 1`) wraps every call into
//! a layer in a span and gives the per-layer metrics.
//!
//! Every workload replays a fixed-size operation stream that is a pure
//! function of `--seed`. A run repeats *set-up + stream* on fresh state
//! until `--seconds` have passed and reports the median over
//! repetitions of wall-clock values scaled to the reference kernel's
//! speed (see [`metrics::execute`] and [`reference`]); the exact counts
//! of every repetition must agree bit for bit, or the run fails.

#![forbid(unsafe_code)]

pub mod flsa_private;
pub mod flsa_regulated;
pub mod metrics;
pub mod reference;
pub mod serve_pbft;
pub mod stats;
pub mod trace;
pub mod ycsb_a;

use reference::{Reference, Scaling};
use std::collections::BTreeMap;
use trace::Trace;

/// Stream sizes: `Full` for runs, `Small` for the crate's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The published sizes.
    Full,
    /// A few dozen operations, for tests.
    Small,
}

/// The outcome of one repetition (fresh set-up, then the stream).
#[derive(Default)]
pub struct Rep {
    /// Wall seconds spent building state before the stream.
    pub setup_s: f64,
    /// Wall-ns of the measured stream.
    pub pass_ns: u64,
    /// Operations completed.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, timed out or gave up. A
    /// rejection by the regulation is a correct outcome, not a failure.
    pub failed: u64,
    /// Wall-ns latency of each write.
    pub writes_ns: Vec<u64>,
    /// [`reference::epoch`] when each write was recorded.
    pub writes_epoch: Vec<u32>,
    /// Nominal writes per repetition (fixes the tail percentile).
    pub writes_nominal: usize,
    /// Wall-ns latency of each read.
    pub reads_ns: Vec<u64>,
    /// [`reference::epoch`] when each read was recorded.
    pub reads_epoch: Vec<u32>,
    /// Nominal reads per repetition.
    pub reads_nominal: usize,
    /// Virtual-µs commit latency of each command (serving stack only).
    pub commit_vus: Vec<u64>,
    /// Per-layer counts. Deterministic: every repetition with the same
    /// seed must produce a bit-identical map.
    pub exact: BTreeMap<&'static str, f64>,
    /// Simulator events dispatched during the stream (serving stack).
    pub events: u64,
    /// The traced pass, when tracing.
    pub trace: Option<Trace>,
    /// Reference-kernel slices (none in a traced repetition).
    pub samples: reference::Samples,
}

impl Rep {
    /// Completed operations per wall-second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.pass_ns as f64 / 1e9)
    }

    /// The exact counts with the virtual-time commit percentiles: the
    /// fingerprint two repetitions with one seed must share.
    pub fn fingerprint(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .exact
            .iter()
            .map(|(k, x)| (k.to_string(), x.to_bits()))
            .collect();
        let mut commits = self.commit_vus.clone();
        commits.sort_unstable();
        let tail = stats::tail_pct(commits.len());
        v.push(("commit_p50_vus".into(), stats::percentile(&commits, 50.0)));
        v.push(("commit_tail_vus".into(), stats::percentile(&commits, tail)));
        v.push(("ops".into(), self.ops));
        v.push(("attempted".into(), self.attempted));
        v.push(("failed".into(), self.failed));
        v.push(("events".into(), self.events));
        v
    }
}

/// One benchmark workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Runs one repetition: set-up, the stream (traced when asked),
    /// then the oracles. `Err` is an oracle violation.
    pub run: fn(seed: u64, scale: Scale, trace: bool) -> Result<Rep, String>,
    /// How the stream's times are scaled (set-up is always scaled by
    /// [`Reference::Alloc`]).
    pub stream: Scaling,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ycsb_a",
        why: ycsb_a::WHY,
        run: ycsb_a::run,
        // Slope 1.05 on the calibration VM.
        stream: Scaling {
            parts: &[Reference::Alloc, Reference::Compute],
            sensitivity: 1.0,
        },
    },
    Workload {
        name: "flsa_regulated",
        why: flsa_regulated::WHY,
        run: flsa_regulated::run,
        // Slope 0.61 on the calibration VM: the scan slows down less than
        // any single part.
        stream: Scaling {
            parts: &[Reference::Alloc, Reference::Read, Reference::Compute],
            sensitivity: 0.6,
        },
    },
    Workload {
        name: "flsa_private",
        why: flsa_private::WHY,
        run: flsa_private::run,
        // Slope 1.09 to 1.13 on the calibration VM.
        stream: Scaling {
            parts: &[Reference::Alloc],
            sensitivity: 1.0,
        },
    },
    Workload {
        name: "serve_pbft",
        why: serve_pbft::WHY,
        run: serve_pbft::run,
        // Slope 1.05 to 1.07 on the calibration VM.
        stream: Scaling {
            parts: &[Reference::Alloc],
            sensitivity: 1.0,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
