//! Cross-crate failure-recovery integration tests (§5 end to end).

use std::time::Duration;

use sdg::apps::kv::KvApp;
use sdg::prelude::*;

fn ft_config(interval: Duration) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::default();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = interval;
    cfg.checkpoint.backup_fanout = 2;
    cfg
}

fn total_count(app: &KvApp) -> i64 {
    let mut total = 0;
    let replicas = app
        .deployment()
        .metrics()
        .state_by_id(app.state())
        .map_or(0, |s| s.instances as usize);
    for replica in 0..replicas {
        app.deployment()
            .with_state(app.state(), replica as u32, |s| {
                s.as_table().unwrap().for_each(|_, v| {
                    total += v.as_int().unwrap();
                });
            })
            .unwrap();
    }
    total
}

#[test]
fn repeated_failures_of_different_partitions_stay_exact() {
    let app = KvApp::start(3, ft_config(Duration::from_secs(3600))).unwrap();
    let mut expected = 0i64;
    for round in 0..3u32 {
        for n in 0..300i64 {
            app.bump(n % 60).unwrap();
        }
        expected += 300;
        assert!(app.quiesce(Duration::from_secs(30)));
        app.deployment()
            .reconfigure(ReconfigRequest::Checkpoint)
            .unwrap();

        // Post-checkpoint traffic lives only in upstream buffers.
        for n in 0..150i64 {
            app.bump(n % 60).unwrap();
        }
        expected += 150;
        assert!(app.quiesce(Duration::from_secs(30)));

        // Fail a different partition each round.
        let report = app
            .deployment()
            .reconfigure(ReconfigRequest::FailAndRecover {
                state: app.state(),
                replica: round % 3,
            })
            .unwrap();
        assert!(app.quiesce(Duration::from_secs(30)));
        assert_eq!(
            total_count(&app),
            expected,
            "round {round}: replayed {} items",
            report.replayed
        );
    }
    assert_eq!(app.deployment().stats().errors, 0);
    app.shutdown();
}

#[test]
fn explicit_checkpoint_trims_all_buffers_under_default_striping() {
    // Default config: 16 lock stripes per partition, of which a partition
    // of 2 reaches only 8. The checkpoint vector must still cover every
    // item applied before the cut, so the explicit checkpoint trims the
    // upstream buffers to nothing and the failure replays nothing.
    let app = KvApp::start(2, ft_config(Duration::from_secs(3600))).unwrap();
    let stripes = app
        .deployment()
        .metrics()
        .state_by_id(app.state())
        .unwrap()
        .stripes;
    assert_eq!(stripes, 16, "default striping");
    for n in 0..2_000i64 {
        app.bump(n % 500).unwrap();
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .unwrap();
    assert_eq!(app.deployment().metrics().checkpoints.buffered_bytes, 0);
    let report = app
        .deployment()
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: app.state(),
            replica: 0,
        })
        .unwrap();
    assert_eq!(report.replayed, 0);
    assert!(app.quiesce(Duration::from_secs(30)));
    assert_eq!(total_count(&app), 2_000);
    assert_eq!(app.deployment().stats().errors, 0);
    app.shutdown();
}

#[test]
fn periodic_checkpoints_bound_replay_volume() {
    // With frequent checkpoints, the trimmed upstream buffers make the
    // replay after a failure small.
    let app = KvApp::start(2, ft_config(Duration::from_millis(150))).unwrap();
    for n in 0..2_000i64 {
        app.bump(n % 40).unwrap();
        if n % 500 == 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    // Let at least one periodic checkpoint cover everything.
    std::thread::sleep(Duration::from_millis(400));

    let report = app
        .deployment()
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: app.state(),
            replica: 0,
        })
        .unwrap();
    assert!(app.quiesce(Duration::from_secs(30)));
    assert_eq!(total_count(&app), 2_000);
    assert!(
        report.replayed < 2_000,
        "periodic checkpoints must trim buffers (replayed {})",
        report.replayed
    );
    app.shutdown();
}

#[test]
fn recovery_under_concurrent_load_preserves_counts() {
    let app = std::sync::Arc::new(KvApp::start(2, ft_config(Duration::from_secs(3600))).unwrap());
    for n in 0..500i64 {
        app.bump(n % 50).unwrap();
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .unwrap();

    // A feeder keeps submitting while the failure and recovery happen.
    let feeder = {
        let app = std::sync::Arc::clone(&app);
        std::thread::spawn(move || {
            let mut handle = app.deployment().ingest_handle().unwrap();
            for n in 0..1_000i64 {
                handle
                    .submit("bump", record! {"k" => Value::Int(n % 50)})
                    .unwrap();
            }
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    app.deployment()
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: app.state(),
            replica: 1,
        })
        .unwrap();
    feeder.join().unwrap();
    assert!(app.quiesce(Duration::from_secs(60)));

    assert_eq!(total_count(&app), 1_500, "no update lost or duplicated");
    let app = std::sync::Arc::try_unwrap(app).ok().expect("feeder joined");
    app.shutdown();
}

#[test]
fn state_survives_multiple_checkpoint_cycles() {
    let app = KvApp::start(2, ft_config(Duration::from_millis(100))).unwrap();
    for n in 0..1_000i64 {
        app.put(n, &format!("v{n}")).unwrap();
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    // Several checkpoint cycles pass; dirty-state consolidation must never
    // corrupt the table.
    std::thread::sleep(Duration::from_millis(500));
    for n in 0..1_000i64 {
        assert_eq!(
            app.get(n, Duration::from_secs(5)).unwrap(),
            Some(Value::str(format!("v{n}"))),
            "key {n}"
        );
    }
    assert_eq!(app.deployment().stats().errors, 0);
    app.shutdown();
}
