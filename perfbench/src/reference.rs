//! The reference kernel: fixed work, independent of the program, run in
//! short slices between the workload's operations to read how fast the
//! host runs at that moment.
//!
//! On a shared host the same binary and seed run up to 1.6x slower for
//! seconds to minutes at a time: other tenants contend for caches and
//! memory, and CPU time equals wall time, so it does not show as steal.
//! Wall times are multiplied by a slice's reference time over its
//! measured time around them, which gives the time the work would have
//! taken with the kernel at its reference speed.
//!
//! A slice runs before set-up, after set-up, between two operations of
//! the stream once [`SLICE_EVERY`] of wall time has passed since the
//! last one, and after the stream. Its time is taken out of every wall
//! clock the workload reads ([`paused_ns`]), so no timed operation
//! contains a slice; the operation after a slice may find colder
//! caches. Traced repetitions run no slices.
//!
//! Work of different kinds slows by different amounts, so a slice has
//! three parts, and each workload's stream is scaled by the parts that
//! matched it, raised to its measured sensitivity ([`Scaling`]):
//! - [`Reference::Alloc`]: buffer fills of varying length (memory
//!   writes) plus a small string-keyed `BTreeMap` built and probed
//!   (allocation and pointer chasing). Every set-up is scaled by it.
//! - [`Reference::Read`]: dependent loads over a 256 KiB table.
//! - [`Reference::Compute`]: register-only 6-limb multiplications.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which part of the kernel a value is scaled by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Memory writes, allocation and pointer chasing.
    Alloc,
    /// Read-only dependent loads.
    Read,
    /// Register-only multiply-accumulate.
    Compute,
}

impl Reference {
    /// The part's wall-ns per slice at reference speed: its median on
    /// the 2-vCPU Xeon VM the benchmark was calibrated on. Scaled values
    /// are wall values as they would read at this slice time.
    pub fn reference_ns(self) -> f64 {
        match self {
            Reference::Alloc => 300_000.0,
            Reference::Read => 300_000.0,
            Reference::Compute => 200_000.0,
        }
    }

    /// Name printed in the output.
    pub fn name(self) -> &'static str {
        match self {
            Reference::Alloc => "alloc",
            Reference::Read => "read",
            Reference::Compute => "compute",
        }
    }
}

/// How a stream's wall values are scaled: by the factor of `parts`
/// together, raised to `sensitivity`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scaling {
    /// The kernel parts whose slice times are summed.
    pub parts: &'static [Reference],
    /// How strongly the stream's wall time follows those slices: the
    /// slope of log wall time on log slice time over repetitions, as
    /// measured on the calibration VM.
    pub sensitivity: f64,
}

/// Wall time between two slices in the stream.
pub const SLICE_EVERY: Duration = Duration::from_millis(10);

/// Buffer fills per slice.
const FILLS: u64 = 2_750;
/// Longest fill, in words.
const FILL_WORDS: usize = 528;
/// Map inserts (and as many lookups) per slice.
const MAP_OPS: u64 = 250;
/// Distinct map keys.
const MAP_KEYS: u64 = 500;
/// Table words (256 KiB).
const TABLE_WORDS: usize = 1 << 15;
/// Dependent loads per slice.
const LOADS: u64 = 12_000;
/// 6-limb multiplications per slice.
const MULS: u64 = 4_000;

/// Mean wall-ns of a phase's slices, per part.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// [`Reference::Alloc`] part.
    pub alloc_ns: f64,
    /// [`Reference::Read`] part.
    pub read_ns: f64,
    /// [`Reference::Compute`] part.
    pub compute_ns: f64,
}

impl Timing {
    /// Mean wall-ns of part `r`.
    pub fn of(self, r: Reference) -> f64 {
        match r {
            Reference::Alloc => self.alloc_ns,
            Reference::Read => self.read_ns,
            Reference::Compute => self.compute_ns,
        }
    }

    /// Scale factor for the parts `parts` together: their summed
    /// reference times over their summed measured times; 1 when no slice
    /// ran.
    pub fn factor(self, parts: &[Reference]) -> f64 {
        let ns: f64 = parts.iter().map(|&r| self.of(r)).sum();
        if ns > 0.0 {
            parts.iter().map(|r| r.reference_ns()).sum::<f64>() / ns
        } else {
            1.0
        }
    }
}

/// The slices of one repetition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    /// Mean of the slices just before and just after set-up.
    pub setup: Timing,
    /// The stream's slices, from the one that ends set-up to the one
    /// after the last operation: (program-clock ns since the first, the
    /// slice's times). Operation `i` of the stream ran between slices
    /// `epoch - 1` and `epoch`, where `epoch` is what [`epoch`] returned
    /// when it was recorded.
    pub stream: Vec<(f64, Timing)>,
}

impl Samples {
    /// Factor between stream slices `k - 1` and `k`, from the mean of
    /// the two; 1 without slices.
    pub fn local(&self, scaling: Scaling, k: usize) -> f64 {
        if self.stream.len() < 2 {
            return 1.0;
        }
        let k = k.clamp(1, self.stream.len() - 1);
        let (a, b) = (self.stream[k - 1].1, self.stream[k].1);
        Timing {
            alloc_ns: (a.alloc_ns + b.alloc_ns) / 2.0,
            read_ns: (a.read_ns + b.read_ns) / 2.0,
            compute_ns: (a.compute_ns + b.compute_ns) / 2.0,
        }
        .factor(scaling.parts)
        .powf(scaling.sensitivity)
    }

    /// Factor for the whole stream: the local factors weighted by the
    /// program time between their slices; 1 without slices.
    pub fn stream_factor(&self, scaling: Scaling) -> f64 {
        let (mut weighted, mut total) = (0.0, 0.0);
        for k in 1..self.stream.len() {
            let dt = self.stream[k].0 - self.stream[k - 1].0;
            weighted += dt * self.local(scaling, k);
            total += dt;
        }
        if total > 0.0 {
            weighted / total
        } else {
            1.0
        }
    }

    /// Mean stream slice times.
    pub fn stream_mean(&self) -> Timing {
        let mut sum = Sum::default();
        self.stream.iter().for_each(|(_, t)| sum.add(*t));
        sum.mean()
    }
}

/// Running sums of one phase: slice times and slice count.
#[derive(Clone, Copy, Default)]
struct Sum(Timing, u32);

impl Sum {
    fn add(&mut self, t: Timing) {
        self.0.alloc_ns += t.alloc_ns;
        self.0.read_ns += t.read_ns;
        self.0.compute_ns += t.compute_ns;
        self.1 += 1;
    }

    fn mean(self) -> Timing {
        let n = f64::from(self.1.max(1));
        Timing {
            alloc_ns: self.0.alloc_ns / n,
            read_ns: self.0.read_ns / n,
            compute_ns: self.0.compute_ns / n,
        }
    }
}

struct Sampler {
    on: bool,
    armed: bool,
    buf: Vec<u64>,
    table: Vec<u64>,
    last: Instant,
    paused_ns: u64,
    setup: Sum,
    /// Wall clock at the slice that ends set-up.
    stream_origin: Instant,
    /// `paused_ns` at the end of that slice.
    stream_paused: u64,
    stream: Vec<(f64, Timing)>,
}

impl Sampler {
    fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        Sampler {
            on: false,
            armed: false,
            buf: vec![0; FILL_WORDS],
            table: (0..TABLE_WORDS).map(|_| xorshift(&mut x)).collect(),
            last: Instant::now(),
            paused_ns: 0,
            setup: Sum::default(),
            stream_origin: Instant::now(),
            stream_paused: 0,
            stream: Vec::new(),
        }
    }

    /// Program-clock ns since the slice that ended set-up.
    fn program_ns(&self) -> f64 {
        let wall = self.stream_origin.elapsed().as_nanos() as f64;
        wall - (self.paused_ns - self.stream_paused) as f64
    }

    /// Runs a stream slice and records it.
    fn stream_slice(&mut self) {
        let at = self.program_ns();
        let t = self.slice();
        self.stream.push((at, t));
    }

    /// Runs one slice.
    fn slice(&mut self) -> Timing {
        let t = Instant::now();
        black_box(fill(&mut self.buf, black_box(FILLS)));
        black_box(map(black_box(MAP_OPS)));
        let alloc = t.elapsed();
        let t = Instant::now();
        black_box(walk(&self.table, black_box(LOADS)));
        let read = t.elapsed();
        let t = Instant::now();
        black_box(muls(black_box(MULS)));
        let compute = t.elapsed();
        self.paused_ns += (alloc + read + compute).as_nanos() as u64;
        self.last = Instant::now();
        Timing {
            alloc_ns: alloc.as_nanos() as f64,
            read_ns: read.as_nanos() as f64,
            compute_ns: compute.as_nanos() as f64,
        }
    }
}

thread_local! {
    static SAMPLER: RefCell<Sampler> = RefCell::new(Sampler::new());
}

/// Starts a repetition; with `on`, runs the slice before set-up.
pub fn begin(on: bool) {
    SAMPLER.with(|s| {
        let mut s = s.borrow_mut();
        s.on = on;
        s.armed = false;
        s.paused_ns = 0;
        s.setup = Sum::default();
        s.stream.clear();
        if on {
            let t = s.slice();
            s.setup.add(t);
        }
    });
}

/// Ends set-up: runs the slice that closes set-up and opens the stream.
pub fn setup_done() {
    SAMPLER.with(|s| {
        let mut s = s.borrow_mut();
        if s.on {
            let t = s.slice();
            s.setup.add(t);
            s.stream_origin = Instant::now();
            s.stream_paused = s.paused_ns;
            s.stream.push((0.0, t));
            s.armed = true;
        }
    });
}

/// Between two operations of the stream: runs a slice when
/// [`SLICE_EVERY`] has passed since the last one.
pub fn tick() {
    SAMPLER.with(|s| {
        let mut s = s.borrow_mut();
        if s.armed && s.last.elapsed() >= SLICE_EVERY {
            s.stream_slice();
        }
    });
}

/// Stream slices so far: an operation recorded now lies between slices
/// `epoch() - 1` and `epoch()` (see [`Samples::stream`]).
pub fn epoch() -> u32 {
    SAMPLER.with(|s| s.borrow().stream.len() as u32)
}

/// Wall-ns spent in slices since [`begin`]. Subtract it from a wall
/// clock read during the repetition.
pub fn paused_ns() -> u64 {
    SAMPLER.with(|s| s.borrow().paused_ns)
}

/// Ends the stream: runs the closing slice and returns the samples.
pub fn end() -> Samples {
    SAMPLER.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            return Samples::default();
        }
        s.stream_slice();
        s.armed = false;
        Samples {
            setup: s.setup.mean(),
            stream: std::mem::take(&mut s.stream),
        }
    })
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Fills prefixes of 16 to 527 words.
fn fill(buf: &mut [u64], n: u64) -> u64 {
    let mut acc = 0;
    for i in 0..n {
        let b = &mut buf[..16 + (i as usize % (FILL_WORDS - 16))];
        b.fill(i);
        acc += black_box(&*b)[3];
    }
    acc
}

/// Inserts `n` pseudo-random string keys, then looks `n` keys up.
fn map(n: u64) -> u64 {
    let mut m = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..n {
        m.insert(format!("w{}", xorshift(&mut x) % MAP_KEYS), i);
    }
    (0..n)
        .filter_map(|i| m.get(&format!("w{}", i % MAP_KEYS)))
        .sum()
}

/// `n` loads, each at an index that depends on the last value read.
fn walk(table: &[u64], n: u64) -> u64 {
    let mut i = 1usize;
    let mut acc = 0u64;
    for _ in 0..n {
        let v = table[i];
        acc = acc.wrapping_add(v);
        i = (v ^ acc) as usize & (table.len() - 1);
    }
    acc
}

/// `n` chained 6-by-6-limb multiplications, folded back to 6 limbs.
fn muls(n: u64) -> u64 {
    let mut a = [0x1234_5678_9abc_def1u64, 3, 5, 7, 11, 13];
    let b = [0xfedc_ba98_7654_3211u64, 17, 19, 23, 29, 31];
    for _ in 0..n {
        let mut r = [0u64; 12];
        for i in 0..6 {
            let mut carry = 0u128;
            for j in 0..6 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(r[i + j]) + carry;
                r[i + j] = t as u64;
                carry = t >> 64;
            }
            r[i + 6] = carry as u64;
        }
        for i in 0..6 {
            a[i] = r[i] ^ r[i + 6];
        }
        a[0] |= 1;
    }
    a[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_bracket_each_phase_and_are_counted_as_paused() {
        begin(true);
        let after_begin = paused_ns();
        assert!(after_begin > 0);
        setup_done();
        let t = Instant::now();
        while t.elapsed() < SLICE_EVERY * 3 {
            tick();
        }
        let in_stream = epoch();
        let s = end();
        assert!(in_stream >= 3, "{s:?}");
        assert_eq!(s.stream.len(), in_stream as usize + 1);
        assert!(paused_ns() > after_begin);
        // Program time excludes the slices: about SLICE_EVERY apart.
        let gaps: Vec<f64> = s.stream.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps[..gaps.len() - 1]
            .iter()
            .all(|&g| g >= SLICE_EVERY.as_nanos() as f64 * 0.99));
        let each: [&'static [Reference]; 3] = [
            &[Reference::Alloc],
            &[Reference::Read],
            &[Reference::Compute],
        ];
        for parts in each {
            let one = Scaling {
                parts,
                sensitivity: 1.0,
            };
            let f = s.stream_factor(one);
            assert!(f.is_finite() && f > 0.0);
            let half = Scaling {
                sensitivity: 0.5,
                ..one
            };
            let l = s.local(one, 1);
            assert!((s.local(half, 1) - l.sqrt()).abs() < 1e-9 * l);
        }
        let both = s.setup.factor(&[Reference::Alloc, Reference::Compute]);
        assert!(both.is_finite() && both > 0.0);
    }

    #[test]
    fn traced_repetitions_run_no_slices() {
        begin(false);
        setup_done();
        tick();
        assert_eq!(paused_ns(), 0);
        let s = end();
        assert_eq!(s, Samples::default());
        let scaling = Scaling {
            parts: &[Reference::Alloc],
            sensitivity: 1.0,
        };
        assert_eq!(s.stream_factor(scaling), 1.0);
        assert_eq!(s.local(scaling, 3), 1.0);
    }
}
