//! The benchmark's own checks: metric grammar, `BENCHMARK.json` against
//! the registry, the result line, exact quantiles, and the timing
//! wrapper's transparency.

use std::path::Path;

#[path = "support/json.rs"]
mod json;

use bytecache_perfbench::metrics::{
    result_line, valid_name, valid_unit, MetricDef, Values, END_TO_END, PER_LAYER,
    WORKLOAD_SPECIFIC,
};
use bytecache_perfbench::stats::{quantile_sorted, Rng};
use bytecache_perfbench::workloads::lossy_retx::{self, Cell, Params, ARMS, CHANNELS};
use bytecache_perfbench::{run, Config, Scale, Workload};
use json::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn metric_names_and_units_follow_the_grammar() {
    let all: Vec<&MetricDef> = END_TO_END
        .iter()
        .chain(WORKLOAD_SPECIFIC)
        .chain(PER_LAYER)
        .collect();
    for d in &all {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
    }
    let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "a metric name is used twice");
    for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    for bad in ["", "m s", "a:b", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad:?} accepted");
    }
}

fn check_list(doc: &Json, key: &str, defs: &[MetricDef], with_bound: bool) {
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"));
    assert_eq!(
        list.len(),
        defs.len(),
        "{key} lists every registered metric"
    );
    for (m, d) in list.iter().zip(defs) {
        let Json::Obj(fields) = m else {
            panic!("{key} entries are objects")
        };
        let mut keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        keys.sort_unstable();
        let expected: &[&str] = if with_bound {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        assert_eq!(keys, expected, "keys of {key} entry {}", d.name);
        assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "unit of {}",
            d.name
        );
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(d.better.label()),
            "direction of {}",
            d.name
        );
        if with_bound {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", d.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let doc = benchmark_json();
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    check_list(&doc, "end_to_end", END_TO_END, true);
    check_list(&doc, "per_layer", PER_LAYER, false);
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    let largest = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(
                !why.contains('\n') && why.len() <= 200,
                "why is one short line"
            );
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn result_line_prints_every_metric_with_its_unit() {
    let mut values = Values::default();
    for (i, d) in END_TO_END.iter().enumerate() {
        values.set(d.name, 0.125 + i as f64);
    }
    let line = result_line(true, 10, 1, END_TO_END, &values).expect("complete");
    let doc = json::parse(&line).expect("result line is JSON");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    let Some(Json::Obj(m)) = doc.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(m.len(), END_TO_END.len());
    for (i, d) in END_TO_END.iter().enumerate() {
        let e = &m[d.name];
        assert_eq!(e.get("unit").and_then(Json::as_str), Some(d.unit));
        assert_eq!(
            e.get("value").and_then(Json::as_f64),
            Some(0.125 + i as f64)
        );
    }
    let mut partial = Values::default();
    partial.set("host_mib_s", 1.0);
    assert!(result_line(true, 1, 0, END_TO_END, &partial).is_err());
    values.set("setup_s", f64::NAN);
    assert!(result_line(true, 1, 0, END_TO_END, &values).is_err());
}

#[test]
#[should_panic(expected = "not registered")]
fn unregistered_metrics_cannot_be_recorded() {
    Values::default().set("made_up", 1.0);
}

#[test]
fn quantile_matches_a_brute_force_sort() {
    let mut rng = Rng::new(7);
    for trial in 0..300 {
        let n = 1 + trial % 57;
        let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64() % 40).collect();
        v.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            // The smallest sample with at least q·n samples at or below it.
            let brute = *v
                .iter()
                .filter(|&&x| v.iter().filter(|&&y| y <= x).count() as f64 >= q * n as f64)
                .min()
                .expect("non-empty");
            assert_eq!(quantile_sorted(&v, q), Some(brute), "n={n} q={q} v={v:?}");
        }
    }
    assert_eq!(quantile_sorted(&[], 0.5), None);
}

#[test]
fn timing_wrapper_is_transparent() {
    let input = lossy_retx::setup(5, &Params::for_scale(Scale::Tiny));
    for arm in 0..ARMS.len() {
        for channel in 0..CHANNELS.len() {
            let cell = Cell {
                arm,
                channel,
                seed: 9,
                object: 0,
            };
            let cfg = lossy_retx::scenario(&input, cell);
            let off = lossy_retx::run_cell(&cfg, None, false);
            let on = lossy_retx::run_cell(&cfg, Some(std::time::Instant::now()), false);
            assert!(off.spans.is_none());
            assert!(!on.spans.as_ref().expect("spans").spans().is_empty());
            let plain = lossy_retx::digest_text(&off.result);
            assert_eq!(
                plain,
                lossy_retx::digest_text(&on.result),
                "arm {arm} channel {channel}"
            );
            let reference = bytecache_experiments::run_scenario(&cfg);
            assert_eq!(
                plain,
                lossy_retx::digest_text(&reference),
                "matches run_scenario"
            );
        }
    }
}

#[test]
fn every_workload_reports_every_metric_at_tiny_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 0.01,
                trace,
                scale: Scale::Tiny,
                span_dir: None,
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{} failed operations", workload.name());
            let defs = if trace { PER_LAYER } else { END_TO_END };
            result_line(true, out.attempted, out.failed, defs, &out.values)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            for d in END_TO_END {
                let v = out.values.get(d.name).expect("end-to-end metric");
                assert!(v > 0.0, "{} {} is {v}", workload.name(), d.name);
            }
            assert_eq!(out.values.get("failed_frac"), Some(0.0));
            assert_eq!(out.spans.is_empty(), !trace);
        }
    }
}
