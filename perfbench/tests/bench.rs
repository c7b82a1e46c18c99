//! The benchmark's own checks, at a small size: printed metric names and
//! units equal those declared in `BENCHMARK.json`, and every exact count
//! repeats bit for bit across two runs with one seed.

use prever_perfbench::metrics::{end_to_end_decls, execute, per_layer_decls};
use prever_perfbench::{Scale, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The quoted string value following each `"key":` in `text`, in order.
fn values_of(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&pat) {
        rest = rest[at + pat.len()..]
            .trim_start()
            .strip_prefix(':')
            .expect("key followed by a colon")
            .trim_start();
        let body = rest.strip_prefix('"').expect("string value");
        let end = body.find('"').expect("closed string");
        out.push(body[..end].to_string());
        rest = &body[end..];
    }
    out
}

/// The text of the JSON array under `"key"`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("array");
    let mut depth = 0;
    for (i, ch) in json[open..].char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unclosed {key}");
}

fn declared(key: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let s = section(&json, key);
    values_of(s, "name")
        .into_iter()
        .zip(values_of(s, "unit"))
        .collect()
}

fn decls(
    v: Vec<(String, &'static str, prever_perfbench::metrics::Clock)>,
) -> Vec<(String, String)> {
    v.into_iter().map(|(n, u, _)| (n, u.to_string())).collect()
}

#[test]
fn workloads_and_reasons_match_benchmark_json() {
    let json = benchmark_json();
    let s = section(&json, "workloads");
    let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let whys: Vec<String> = WORKLOADS.iter().map(|w| w.why.to_string()).collect();
    assert_eq!(values_of(s, "name"), names);
    assert_eq!(values_of(s, "why"), whys);
}

#[test]
fn printed_metrics_equal_declared_metrics() {
    assert_eq!(declared("end_to_end"), decls(end_to_end_decls()));
    assert_eq!(declared("per_layer"), decls(per_layer_decls()));
    for w in &WORKLOADS {
        for (trace, want) in [(false, end_to_end_decls()), (true, per_layer_decls())] {
            let report = execute(w, 7, 0.0, trace, Scale::Small)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, decls(want), "{} trace={trace}", w.name);
            assert_eq!(report.failed, 0, "{}", w.name);
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{}",
                w.name
            );
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    for w in &WORKLOADS {
        let a = (w.run)(11, Scale::Small, false).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let b = (w.run)(11, Scale::Small, false).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(!a.exact.is_empty(), "{} reports exact counts", w.name);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name);
    }
}
