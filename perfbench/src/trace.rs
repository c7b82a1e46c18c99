//! In-memory span recording for the traced run.
//!
//! Spans are opened from the benchmark's own code around each call
//! into a layer's public API. Each keeps its name, start, end, parent
//! and request id; nothing is written until the run ends. Work timed by
//! the program's own `prever_obs` spans (e.g. `pipeline.verify`) is
//! read from their histograms as a before/after delta around each
//! benchmark span and recorded as a child of that span, so layer self
//! times stay a partition of the traced wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. `probe` marks a child read from a program
/// histogram: its length is exact, its placement inside the parent
/// is not.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Metric stem of the layer call, e.g. `storage.get_ns`.
    pub name: &'static str,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Request id (operation index; 0 for per-event spans).
    pub req: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// True for a child derived from a program histogram.
    pub probe: bool,
}

impl SpanRec {
    /// Wall-ns duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A program histogram read around benchmark spans.
struct Probe {
    name: &'static str,
    hist: Arc<prever_obs::Histogram>,
}

/// An open span: its index and the probe sums at entry.
struct Open {
    idx: usize,
    sums: Vec<u64>,
}

/// Span recorder; inert (one branch per call) when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<Open>,
    probes: Vec<Probe>,
}

/// What a traced pass recorded, summarised as soon as the pass ends so
/// later oracle work cannot leak into the program histograms read here.
pub struct Trace {
    /// Per layer stem: (p50 wall-ns per call, total wall-ns).
    pub calls: BTreeMap<&'static str, (f64, f64)>,
    /// Per layer stem: self wall-ns (duration minus children).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall-ns covered by top-level spans.
    pub attributed_ns: u64,
    /// Every span, in open order.
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder that times nothing.
    fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// A recorder that keeps every span. Enables the program's own
    /// `prever_obs` recording and clears its registry so probes cover
    /// this pass only.
    pub fn new(on: bool) -> Self {
        if on {
            prever_obs::global().reset();
            prever_obs::set_enabled(true);
        }
        Tracer {
            on,
            ..Tracer::off()
        }
    }

    /// Registers the program histogram `program_span` as a child layer
    /// named `name` of whichever benchmark span encloses its records.
    pub fn probe(&mut self, name: &'static str, program_span: &str) {
        if self.on {
            self.probes.push(Probe {
                name,
                hist: prever_obs::histogram(program_span),
            });
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        let parent = self.stack.last().map(|o| o.idx);
        let sums = self.probes.iter().map(|p| p.hist.sum()).collect();
        self.spans.push(SpanRec {
            name,
            parent,
            req,
            start_ns: 0,
            end_ns: 0,
            probe: false,
        });
        self.stack.push(Open { idx, sums });
        self.spans[idx].start_ns = self.now_ns();
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        let (idx, start, req) = (
            open.idx,
            self.spans[open.idx].start_ns,
            self.spans[open.idx].req,
        );
        self.spans[idx].end_ns = end;
        // Program time recorded inside this span, minus what nested
        // benchmark spans already claimed as their own children.
        for (i, sum0) in open.sums.iter().enumerate() {
            let name = self.probes[i].name;
            let delta = self.probes[i].hist.sum() - sum0;
            let claimed: u64 = self.spans[idx + 1..]
                .iter()
                .filter(|s| s.probe && s.name == name)
                .map(SpanRec::dur_ns)
                .sum();
            let own = delta.saturating_sub(claimed);
            if own > 0 {
                self.spans.push(SpanRec {
                    name,
                    parent: Some(idx),
                    req,
                    start_ns: start,
                    end_ns: start + own,
                    probe: true,
                });
            }
        }
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Stops recording and summarises; `None` when off.
    pub fn finish(self) -> Option<Trace> {
        if !self.on {
            return None;
        }
        let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.probe) {
            durs.entry(s.name).or_default().push(s.dur_ns());
        }
        let mut calls: BTreeMap<&'static str, (f64, f64)> = durs
            .into_iter()
            .map(|(k, mut v)| {
                v.sort_unstable();
                let total: u64 = v.iter().sum();
                (k, (crate::stats::percentile(&v, 50.0) as f64, total as f64))
            })
            .collect();
        for p in &self.probes {
            if p.hist.count() > 0 {
                calls.insert(p.name, (p.hist.quantile(0.5) as f64, p.hist.sum() as f64));
            }
        }
        prever_obs::set_enabled(false);
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut self_ns = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *self_ns.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child[i]);
        }
        let attributed_ns = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRec::dur_ns)
            .sum();
        Some(Trace {
            calls,
            self_ns,
            attributed_ns,
            spans: self.spans,
        })
    }
}

impl Trace {
    /// Writes every span as tab-separated `id parent req name start end probe`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tprobe")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.probe as u8
            )?;
        }
        w.flush()
    }
}
