//! The benchmark's own maths: percentiles, open-loop accounting and the
//! reference comparisons.

use std::collections::HashMap;

use perfbench::check::{diff_tables, kv_reference, CfModel, ValueHistory};
use perfbench::report::{result_json, Metrics, END_TO_END, PER_LAYER};
use perfbench::stats::{lateness_ns, match_replies, median, percentile, Schedule};
use sdg_apps::cf::CfReference;
use sdg_apps::workloads::{ratings, KvRequest};

#[test]
fn percentile_uses_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.5), Some(50));
    assert_eq!(percentile(&v, 0.99), Some(99));
    assert_eq!(percentile(&v, 1.0), Some(100));
    assert_eq!(percentile(&v, 0.0), Some(1));
    assert_eq!(percentile(&v, 0.001), Some(1));
    // Between ranks the next sample up is taken, never an interpolation.
    assert_eq!(percentile(&[10u64, 20, 30], 0.5), Some(20));
    assert_eq!(percentile(&[10u64, 20, 30, 40], 0.5), Some(20));
    assert_eq!(percentile(&[10u64, 20, 30, 40], 0.51), Some(30));
    assert_eq!(percentile(&[7u64], 0.99), Some(7));
    assert_eq!(percentile::<u64>(&[], 0.5), None);
    // Out-of-range shares clamp.
    assert_eq!(percentile(&v, 2.0), Some(100));
    assert_eq!(percentile(&v, -1.0), Some(1));
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn schedule_spaces_requests_evenly() {
    let s = Schedule::new(100_000.0);
    assert_eq!(s.due_ns(0), 0);
    assert_eq!(s.due_ns(1), 10_000);
    assert_eq!(s.due_ns(100_000), 1_000_000_000);
    assert_eq!(s.count_within(2.4), 240_000);
    // A rate that does not divide a second rounds each due time, without
    // drift accumulating over the run.
    let s = Schedule::new(3.0);
    assert_eq!(s.due_ns(1), 333_333_333);
    assert_eq!(s.due_ns(3), 1_000_000_000);
    assert_eq!(Schedule::new(4_080.0).count_within(1.0), 4_080);
}

#[test]
fn lateness_counts_only_sends_after_the_due_time() {
    assert_eq!(lateness_ns(1_000, 900), 0);
    assert_eq!(lateness_ns(1_000, 1_000), 0);
    assert_eq!(lateness_ns(1_000, 1_250), 250);
}

#[test]
fn latency_counts_from_the_due_time() {
    // Request 1 was due at 0 but the generator stalled and sent it at
    // 5 ms; its reply at 6 ms is 6 ms late for the client, not 1 ms.
    let asks = [(1, 0), (2, 10_000_000)];
    let replies = [(1, 6_000_000), (2, 10_500_000)];
    let m = match_replies(&asks, &replies);
    assert_eq!(m.latencies_ns, vec![500_000, 6_000_000]);
    assert_eq!((m.missing, m.duplicates, m.unexpected), (0, 0, 0));
}

#[test]
fn replies_are_matched_exactly_once() {
    let asks = [(1, 100), (2, 100), (3, 100)];
    // Request 2 answered twice, request 3 never, and 9 was never asked.
    let replies = [(2, 400), (1, 300), (2, 200), (9, 500)];
    let m = match_replies(&asks, &replies);
    assert_eq!(m.missing, 1);
    assert_eq!(m.duplicates, 1);
    assert_eq!(m.unexpected, 1);
    // The first receipt of a duplicated reply is the one timed.
    assert_eq!(m.latencies_ns, vec![100, 200]);
}

#[test]
fn kv_reference_keeps_the_last_write() {
    let reqs = vec![
        KvRequest::Put {
            key: 1,
            value: "a".into(),
        },
        KvRequest::Get { key: 1 },
        KvRequest::Put {
            key: 2,
            value: "b".into(),
        },
        KvRequest::Put {
            key: 1,
            value: "c".into(),
        },
        KvRequest::Get { key: 3 },
    ];
    let table = kv_reference(&reqs);
    assert_eq!(table.len(), 2);
    assert_eq!(table[&1], "c");
    assert_eq!(table[&2], "b");

    let history = ValueHistory::from_requests(&reqs);
    assert!(history.allows(1, "a"));
    assert!(history.allows(1, "c"));
    assert!(!history.allows(1, "b"));
    assert!(!history.allows(3, "a"));
}

#[test]
fn table_diff_counts_each_kind_of_wrong_key() {
    let want: HashMap<i64, &str> = [(1, "a"), (2, "b"), (3, "c")].into_iter().collect();
    assert_eq!(diff_tables(&want, &want).total(), 0);
    let got: HashMap<i64, &str> = [(1, "a"), (2, "x"), (4, "d")].into_iter().collect();
    let d = diff_tables(&got, &want);
    assert_eq!((d.missing, d.extra, d.differing), (1, 1, 1));
    assert_eq!(d.total(), 3);
}

#[test]
fn cf_model_matches_the_apps_reference() {
    let stream = ratings(600, 20, 30, 5);
    let mut fast = CfModel::new();
    let mut slow = CfReference::new();
    for r in &stream {
        fast.add_rating(*r);
        slow.add_rating(*r);
    }
    for user in 0..22 {
        assert_eq!(fast.recommend(user), slow.recommend(user), "user {user}");
    }
    assert!(!fast.recommend(0).is_empty());
}

#[test]
fn result_line_lists_every_metric_with_its_unit() {
    let mut m = Metrics::default();
    m.set("items_per_s", 1234.5);
    m.set("p50_ms", 0.25);
    m.set("p50_ms", 0.5);
    let line = result_json(true, 10, 0, &m, END_TO_END);
    assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"#));
    assert!(line.contains(r#""items_per_s": {"value": 1234.5, "unit": "1/s"}"#));
    assert!(line.contains(r#""p50_ms": {"value": 0.5, "unit": "ms"}"#));
    // Unset metrics read 0 rather than going missing.
    assert!(line.contains(r#""setup_s": {"value": 0, "unit": "s"}"#));
    assert!(line.ends_with("}}"));
}

/// `BENCHMARK.json` names the metrics the program prints, with the same
/// units.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches(r#""unit": "#).count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
