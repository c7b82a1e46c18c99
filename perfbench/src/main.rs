//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, clock, how it was
//! taken), a metadata line, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero,
//! printing no result, on bad arguments or any failed check.

use prever_perfbench::metrics::{execute, Report};
use prever_perfbench::reference::Reference;
use prever_perfbench::{workload, Scale, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"{} ({cores} cpus, linux {kernel})\"",
        cpu.replace('"', "'")
    )
}

/// Names of reference parts, joined with `+`.
fn parts(r: &[Reference]) -> String {
    r.iter().map(|p| p.name()).collect::<Vec<_>>().join("+")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = match execute(w, args.seed, args.seconds, args.trace, Scale::Full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: check failed: {e}",
                w.name, args.seed
            );
            return ExitCode::from(1);
        }
    };
    if let Some(t) = report.traced.as_ref().and_then(|r| r.trace.as_ref()) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.tsv", w.name));
        match t.write_tsv(&path) {
            Ok(()) => println!("# spans: {} written to {}", t.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        for (layer, ns) in &t.self_ns {
            println!("# self {layer:<40} {ns} wall-ns");
        }
        let client = t.self_ns.get("server.client_ns").copied().unwrap_or(0);
        println!(
            "# system wall-ns (spans minus the load generator's server.client_ns): {}",
            t.attributed_ns - client
        );
    }
    println!("# workload {}: {}", w.name, w.why);
    let per_rep: Vec<String> = report
        .rep_ops_per_s
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    println!("# wall ops_per_s per untraced rep: {}", per_rep.join(" "));
    let scale: Vec<String> = report.rep_scale.iter().map(|v| format!("{v:.3}")).collect();
    println!(
        "# stream scale factor ({} reference) per untraced rep: {}",
        parts(w.stream.parts),
        scale.join(" ")
    );
    let slices: Vec<String> = report
        .rep_slices
        .iter()
        .map(|t| format!("{:.0}/{:.0}/{:.0}", t.alloc_ns, t.read_ns, t.compute_ns))
        .collect();
    println!(
        "# stream slice wall-ns alloc/read/compute per untraced rep: {}",
        slices.join(" ")
    );
    for m in &report.metrics {
        println!(
            "{:<40} {:>16.4} {:<12} clock={:<8} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.name(),
            m.note
        );
    }
    let meta = prever_bench::meta::metadata_json(
        "ref-us+wall-ns+virtual-us+count",
        &[
            ("workload", format!("\"{}\"", w.name)),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", (args.trace as u8).to_string()),
            ("reps", report.rep_ops_per_s.len().to_string()),
            ("stream_reference", format!("\"{}\"", parts(w.stream.parts))),
            ("stream_sensitivity", w.stream.sensitivity.to_string()),
            (
                "reference_ns",
                format!(
                    "{{\"alloc\": {}, \"read\": {}, \"compute\": {}}}",
                    Reference::Alloc.reference_ns(),
                    Reference::Read.reference_ns(),
                    Reference::Compute.reference_ns()
                ),
            ),
            ("machine", machine()),
        ],
    );
    println!("# meta {meta}");
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
