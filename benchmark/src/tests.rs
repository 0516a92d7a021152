//! Smoke and drift tests: every workload runs end to end at a fraction of its
//! declared length, and what it prints is what `BENCHMARK.json` declares.

use std::path::PathBuf;

use super::*;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// The text of the JSON array stored under `key` in [`CONTRACT`].
fn array(key: &str) -> &'static str {
    let start = CONTRACT
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &CONTRACT[start..];
    &body[..body.find(']').expect("the array closes")]
}

/// Every string stored under `field` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let tag = format!("\"{field}\": \"");
    text.match_indices(&tag)
        .map(|(at, _)| {
            let value = &text[at + tag.len()..];
            value[..value.find('"').expect("the string closes")].to_string()
        })
        .collect()
}

fn declared(key: &str) -> Vec<(String, String)> {
    let text = array(key);
    strings(text, "name")
        .into_iter()
        .zip(strings(text, "unit"))
        .collect()
}

fn args(workload: &'static WorkloadInfo, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.05,
        trace,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/benchmark-out/tests"),
    }
}

fn run_workload(workload: &'static WorkloadInfo, seed: u64, trace: bool) -> Report {
    run(&args(workload, seed, trace))
}

#[test]
fn the_tables_are_what_benchmark_json_declares() {
    let table = |defs: &[metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
    let workloads = array("workloads");
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let whys: Vec<_> = WORKLOADS.iter().map(|w| w.why.to_string()).collect();
    assert_eq!(strings(workloads, "name"), names);
    assert_eq!(strings(workloads, "why"), whys);
    assert!((2..=8).contains(&names.len()));
    assert!(whys.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
    assert!(declared("end_to_end").contains(&("setup_s".into(), "s".into())));
}

#[test]
fn every_workload_runs_untraced_and_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let report = run_workload(w, 3, false);
        assert!(report.correct(), "{}: {:?}", w.name, report.notes);
        assert!(report.attempted >= 1, "{}", w.name);
        for d in END_TO_END {
            let v = report.get(d.name);
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{} reports {} = {v:?}",
                w.name,
                d.name
            );
        }
        let line = report.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}

#[test]
fn every_workload_runs_traced_and_separates_the_layers() {
    for w in WORKLOADS {
        let report = run_workload(w, 4, true);
        assert!(report.correct(), "{}: {:?}", w.name, report.notes);
        let line = report.result_line(PER_LAYER);
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        // The spans nest, and the file holds one line per span.
        let path = args(w, 4, true).out.join(format!("trace_{}.jsonl", w.name));
        let lines = std::fs::read_to_string(&path).expect("the trace was written");
        assert_eq!(
            lines.lines().count() as f64,
            report.get("trace.spans").unwrap()
        );
        assert!(lines.lines().all(|l| l.contains("\"self_ns\": ")));
        // The layers separate as the README predicts.
        let stages = report.get("host.chain_stages_per_frame").unwrap();
        assert_eq!(
            stages,
            if w.name == "chain3" { 3.0 } else { 1.0 },
            "{}",
            w.name
        );
        let resolved = report.get("host.resolved_cache_hit_share").unwrap();
        match w.name {
            "cold_churn" => assert_eq!(resolved, 0.0),
            "payload_sum" => {
                let share = report.get("jamvm.model_exec_share_of_handler").unwrap();
                assert!(share > 0.9, "payload_sum exec share {share}");
            }
            _ => assert_eq!(resolved, 1.0, "{}", w.name),
        }
        let drops = report.get("fabric.dropped").unwrap();
        let nacks = report.get("host.nacks_posted").unwrap();
        if w.name == "warm_stream" {
            // Its traced run adds the threaded pass over a faulted link.
            let hung = report.get("fleet.pipeline_hung").unwrap_or(0.0);
            assert!(
                hung == 1.0 || (drops > 0.0 && nacks > 0.0),
                "no fault was seen"
            );
        } else {
            assert_eq!((drops, nacks), (0.0, 0.0), "{}", w.name);
        }
    }
}

#[test]
fn one_seed_repeats_every_modelled_number_and_another_seed_changes_them() {
    let modelled = |r: &Report| -> Vec<(String, u64)> {
        END_TO_END
            .iter()
            .filter(|d| d.name.starts_with("model_"))
            .map(|d| (d.name.to_string(), r.get(d.name).unwrap().to_bits()))
            .collect()
    };
    for w in WORKLOADS {
        let first = run_workload(w, 7, false);
        let again = run_workload(w, 7, false);
        let other = run_workload(w, 8, false);
        assert_eq!(modelled(&first), modelled(&again), "{}", w.name);
        assert_ne!(modelled(&first), modelled(&other), "{}", w.name);
        assert!(other.correct(), "{}: {:?}", w.name, other.notes);
    }
}

#[test]
fn flags_are_checked_where_they_enter() {
    let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from));
    let ok = parse("--workload chain3 --seed 9 --seconds 2.5 --trace 1 --out /tmp/x").unwrap();
    assert_eq!(
        (ok.workload.name, ok.seed, ok.seconds, ok.trace),
        ("chain3", 9, 2.5, true)
    );
    assert_eq!(ok.out, PathBuf::from("/tmp/x"));
    for bad in [
        "",
        "--workload nope",
        "--workload chain3 --seed -1",
        "--workload chain3 --seconds 0",
        "--workload chain3 --seconds 61",
        "--workload chain3 --trace 2",
        "--workload chain3 --scale 1",
        "--workload",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}
