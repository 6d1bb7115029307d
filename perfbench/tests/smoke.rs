//! Smoke tests of the benchmark binary at tiny scale: every metric the
//! benchmark definition names is emitted with its unit, spans nest inside
//! their cell, exact counts repeat, and the seed reaches only the cells it
//! is meant to.

use obs::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["steady", "migrate", "served"];

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Run the benchmark for one second and parse its result line.
fn run(test: &str, workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir(test))
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Value::parse(last).expect("the result line is JSON");
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}: {last}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {last}");
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
    result
}

/// Metric name → unit, as the benchmark definition lists them.
fn declared(kind: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
    let def = Value::parse(&text).expect("BENCHMARK.json is JSON");
    def[kind]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("a name").to_string();
            (name, m["unit"].as_str().expect("a unit").to_string())
        })
        .collect()
}

fn emitted(result: &Value) -> BTreeMap<String, String> {
    result["metrics"]
        .as_object()
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m["value"].as_f64().is_some_and(f64::is_finite),
                "{name} has no value"
            );
            (
                name.clone(),
                m["unit"].as_str().expect("a unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for w in WORKLOADS {
        let e2e = run("metrics", w, 1, false);
        assert_eq!(
            emitted(&e2e),
            declared("end_to_end"),
            "{w}: end-to-end metrics"
        );
        let layers = run("metrics", w, 1, true);
        assert_eq!(
            emitted(&layers),
            declared("per_layer"),
            "{w}: per-layer metrics"
        );
    }
}

#[test]
fn cell_spans_hold_their_children() {
    run("spans", "migrate", 3, true);
    let text =
        std::fs::read_to_string(out_dir("spans").join("spans-migrate.jsonl")).expect("spans file");
    let spans: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).expect("span JSON"))
        .collect();
    let dur = |s: &Value| s["end_ns"].as_f64().unwrap() - s["start_ns"].as_f64().unwrap();
    let cells: Vec<&Value> = spans.iter().filter(|s| s["name"] == "cell").collect();
    assert!(!cells.is_empty(), "the traced batches record cell spans");
    for cell in cells {
        let children: Vec<&Value> = spans.iter().filter(|s| s["parent"] == cell["id"]).collect();
        assert!(children.iter().any(|s| s["name"] == "nas.iterate"));
        for c in &children {
            assert_eq!(
                c["group"], cell["group"],
                "a child span carries its cell's id"
            );
            assert!(c["start_ns"].as_f64() >= cell["start_ns"].as_f64());
            assert!(c["end_ns"].as_f64() <= cell["end_ns"].as_f64());
        }
        let sum: f64 = children.iter().map(|s| dur(s)).sum();
        assert!(
            sum <= dur(cell),
            "children of {} exceed their cell",
            cell["group"]
        );
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    let counts = |r: &Value| -> Vec<(String, f64)> {
        let names = [
            "ccnuma.accesses",
            "ccnuma.page_migrations",
            "ccnuma.fastpath.replays",
            "ccnuma.fastpath.misses",
            "ccnuma.fastpath.replay_ratio",
            "omp.regions",
            "upmlib.pages_moved",
        ];
        names
            .iter()
            .map(|n| {
                (
                    n.to_string(),
                    r["metrics"][*n]["value"].as_f64().expect("a count"),
                )
            })
            .collect()
    };
    let first = run("counts", "migrate", 1, true);
    let second = run("counts", "migrate", 2, true);
    assert_eq!(counts(&first), counts(&second));
    assert!(
        counts(&first).iter().all(|(_, v)| *v > 0.0),
        "migrate moves pages and replays regions"
    );
}

fn plan(workload: &str, seed: u64) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--plan",
        ])
        .output()
        .expect("running perfbench --plan");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn the_seed_changes_only_the_fresh_cells() {
    assert_eq!(
        plan("steady", 1),
        plan("steady", 2),
        "steady has no seeded input"
    );
    for w in ["migrate", "served"] {
        let (a, b) = (plan(w, 1), plan(w, 2));
        let split = |p: &[String]| -> (Vec<String>, Vec<String>) {
            p.iter().cloned().partition(|l| l.starts_with("cell "))
        };
        let ((cells_a, fresh_a), (cells_b, fresh_b)) = (split(&a), split(&b));
        assert_eq!(
            cells_a, cells_b,
            "{w}: the offline cells do not depend on the seed"
        );
        assert_eq!(fresh_a.len(), fresh_b.len());
        for (x, y) in fresh_a.iter().zip(&fresh_b) {
            assert_ne!(x, y, "{w}: the seed picks the fresh cells");
            let strip = |s: &str| s.split('#').next().unwrap().to_string();
            assert_eq!(
                strip(x),
                strip(y),
                "{w}: only the random-placement seed differs"
            );
            assert!(x.contains("rand-"), "{w}: fresh cells use random placement");
        }
    }
    assert_eq!(plan("migrate", 7), plan("migrate", 7), "one seed, one plan");
}
