//! End-to-end exercises of the campaign service: submission, progress,
//! backpressure, shedding, cancellation, deadlines, malformed input, panic
//! isolation, and drain-then-restart recovery.
//!
//! Everything runs against a real listener on a loopback port; the only
//! in-process shortcut is the restart test, which drives the [`Supervisor`]
//! directly so two daemon "lifetimes" can share one state directory.

use std::time::Duration;

use fidelity_serve::client::Client;
use fidelity_serve::journal::{Journal, JournalEvent};
use fidelity_serve::server::{serve, ServeHandle};
use fidelity_serve::supervisor::{JobState, ServeConfig, SubmitOutcome, Supervisor};
use fidelity_serve::JobSpec;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fidelity-serve-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn daemon(name: &str, queue_cap: usize) -> (ServeHandle, Client) {
    daemon_with(name, queue_cap, Vec::new())
}

fn daemon_with(
    name: &str,
    queue_cap: usize,
    chaos: Vec<fidelity_core::resilience::ChaosSpec>,
) -> (ServeHandle, Client) {
    let sup = Supervisor::start(ServeConfig {
        state_dir: scratch(name),
        queue_cap,
        workers: 1,
        campaign_threads: 2,
        chaos,
    })
    .unwrap();
    let handle = serve(sup, "127.0.0.1:0").unwrap();
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

/// A campaign that finishes in well under a second.
fn tiny(seed: u64) -> String {
    format!("{{\"network\":\"lstm\",\"samples\":2,\"seed\":{seed}}}")
}

/// A campaign that runs for several seconds (cancellable mid-flight).
fn slow(seed: u64, priority: i32) -> String {
    format!("{{\"network\":\"lstm\",\"samples\":1500,\"seed\":{seed},\"priority\":{priority}}}")
}

fn id_of(body: &str) -> String {
    let key = "\"id\":\"";
    let start = body.find(key).expect("no id in body") + key.len();
    body[start..].split('"').next().unwrap().to_owned()
}

/// Polls healthz until at least one job is running (bounded).
fn wait_running(client: &Client) {
    for _ in 0..200 {
        let h = client.healthz().unwrap();
        if h.body.contains("\"running\":1") {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("no job reached the running state");
}

#[test]
fn submit_poll_stream_and_graceful_shutdown() {
    let (handle, client) = daemon("e2e", 4);

    let health = client.healthz().unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

    let reply = client.submit(&tiny(7)).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = id_of(&reply.body);

    let status = client
        .wait_terminal(&id, 600, Duration::from_millis(50))
        .unwrap();
    assert!(status.contains("\"state\":\"done\""), "{status}");
    assert!(status.contains("\"summary\":{"), "{status}");
    assert!(status.contains("\"fit_total\":"), "{status}");
    assert!(status.contains("\"masked_probability\":"), "{status}");

    // The event stream replays the last snapshot (or the final status) even
    // after completion, so late subscribers still get one line.
    let line = client.stream_one_event(&id).unwrap();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");

    let list = client.list().unwrap();
    assert!(list.body.starts_with('[') && list.body.contains(&id));

    let reply = client.shutdown().unwrap();
    assert_eq!(reply.status, 202);
    handle.wait();
    assert!(client.healthz().is_err(), "daemon still listening");
}

#[test]
fn identical_specs_are_single_flight() {
    let (handle, client) = daemon("dedup", 4);

    let first = client.submit(&tiny(11)).unwrap();
    assert_eq!(first.status, 202);
    let id = id_of(&first.body);

    // Same spec again while queued/running: attaches, never a second run.
    let second = client.submit(&tiny(11)).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(
        second.body.contains("\"attached\":true") || second.body.contains("\"state\":\"done\""),
        "{}",
        second.body
    );
    assert_eq!(id_of(&second.body), id);

    client
        .wait_terminal(&id, 600, Duration::from_millis(50))
        .unwrap();

    // After completion the recorded result answers instantly.
    let third = client.submit(&tiny(11)).unwrap();
    assert_eq!(third.status, 200);
    assert!(third.body.contains("\"state\":\"done\""), "{}", third.body);

    // A different seed is a different campaign.
    let other = client.submit(&tiny(12)).unwrap();
    assert_eq!(other.status, 202);
    assert_ne!(id_of(&other.body), id);

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn full_queue_rejects_then_sheds_by_priority() {
    let (handle, client) = daemon("overload", 1);

    // Occupy the worker, then the single queue slot.
    let a = client.submit(&slow(21, 0)).unwrap();
    assert_eq!(a.status, 202, "{}", a.body);
    wait_running(&client);
    let b = client.submit(&slow(22, 0)).unwrap();
    assert_eq!(b.status, 202, "{}", b.body);
    let b_id = id_of(&b.body);

    // Equal priority at a full queue: explicit backpressure.
    let c = client.submit(&slow(23, 0)).unwrap();
    assert_eq!(c.status, 429, "{}", c.body);
    assert!(c.body.contains("retry_after_secs"), "{}", c.body);

    // Higher priority: the weakest queued job is shed, visibly.
    let d = client.submit(&slow(24, 5)).unwrap();
    assert_eq!(d.status, 202, "{}", d.body);
    assert!(
        d.body.contains(&format!("\"shed\":\"{b_id}\"")),
        "{}",
        d.body
    );
    let shed_status = client.status(&b_id).unwrap();
    assert!(
        shed_status.body.contains("\"state\":\"shed\""),
        "{}",
        shed_status.body
    );
    assert!(
        shed_status.body.contains("overload"),
        "{}",
        shed_status.body
    );

    // Cancel what is left and drain.
    client.cancel(&id_of(&a.body)).unwrap();
    client.cancel(&id_of(&d.body)).unwrap();
    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn cancellation_is_cooperative_and_checkpointed() {
    let (handle, client) = daemon("cancel", 4);
    let state_dir = scratch("cancel");

    let reply = client.submit(&slow(31, 0)).unwrap();
    assert_eq!(reply.status, 202);
    let id = id_of(&reply.body);
    wait_running(&client);
    std::thread::sleep(Duration::from_millis(300)); // let some cells commit

    let cancel = client.cancel(&id).unwrap();
    assert_eq!(cancel.status, 202, "{}", cancel.body);
    let status = client
        .wait_terminal(&id, 200, Duration::from_millis(50))
        .unwrap();
    assert!(status.contains("\"state\":\"cancelled\""), "{status}");

    // The drain left a resumable checkpoint behind.
    let ckpt = state_dir.join(format!("job-{id}.ckpt"));
    assert!(ckpt.is_file(), "missing checkpoint {}", ckpt.display());

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn deadline_expiry_is_reported_as_expired() {
    let (handle, client) = daemon("deadline", 4);

    let body =
        "{\"network\":\"lstm\",\"samples\":1500,\"seed\":41,\"deadline_ms\":100,\"retries\":0}";
    let reply = client.submit(body).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = id_of(&reply.body);

    let status = client
        .wait_terminal(&id, 400, Duration::from_millis(50))
        .unwrap();
    assert!(status.contains("\"state\":\"expired\""), "{status}");
    assert!(status.contains("deadline"), "{status}");

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn malformed_and_hostile_requests_get_clean_errors() {
    use std::io::{Read, Write};

    let (handle, client) = daemon("hostile", 4);

    // Bad JSON, unknown fields, unknown values: 400 with the reason.
    for body in [
        "not json",
        "{\"network\":\"lstm\",\"sample\":1}",
        "{\"network\":\"vgg\"}",
        "{\"network\":\"lstm\",\"mac_tier\":\"bitwise\"}",
    ] {
        let reply = client.request("POST", "/campaigns", Some(body)).unwrap();
        assert_eq!(reply.status, 400, "body `{body}` → {}", reply.body);
        assert!(reply.body.contains("\"error\""), "{}", reply.body);
    }

    // Unknown routes and wrong methods.
    assert_eq!(client.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(client.status("doesnotexist").unwrap().status, 404);
    assert_eq!(
        client.request("PUT", "/campaigns", None).unwrap().status,
        405
    );
    assert_eq!(
        client.request("DELETE", "/healthz", None).unwrap().status,
        405
    );

    // Oversized body: 413, bounded memory.
    let huge = format!(
        "{{\"network\":\"lstm\",\"pad\":\"{}\"}}",
        "x".repeat(80 * 1024)
    );
    let reply = client.request("POST", "/campaigns", Some(&huge)).unwrap();
    assert_eq!(reply.status, 413, "{}", reply.body);

    // Protocol garbage on a raw socket: 400, not a hang or a crash.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut out = String::new();
    let _ = raw.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");

    // The daemon is still healthy after all of it.
    assert_eq!(client.healthz().unwrap().status, 200);
    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn worker_panics_are_isolated_and_reported() {
    use fidelity_core::resilience::{ChaosMode, ChaosSpec};

    // Learn a real (node, category) cell of the tiny campaign, then boot a
    // daemon whose campaigns panic on that cell's first sample.
    let probe = JobSpec::from_json_str(&tiny(51)).unwrap();
    let (engine, trace, metric) = probe.deploy().unwrap();
    let accel = fidelity_accel::presets::nvdla_like();
    let result = fidelity_core::campaign::run_campaign(
        &engine,
        &trace,
        &accel,
        metric.as_ref(),
        &probe.campaign_spec(2),
    )
    .unwrap();
    let target = &result.cells[0];
    let chaos = vec![ChaosSpec {
        node: target.node,
        category: target.category,
        mode: ChaosMode::PanicAtSample(0),
    }];

    let (handle, client) = daemon_with("chaos", 4, chaos);
    let reply = client.submit(&tiny(51)).unwrap();
    assert_eq!(reply.status, 202);
    let id = id_of(&reply.body);
    let status = client
        .wait_terminal(&id, 600, Duration::from_millis(50))
        .unwrap();

    // The panicking cell is confined: the campaign completes within its
    // failure budget and the failure count is reported, not swallowed.
    assert!(status.contains("\"state\":\"done\""), "{status}");
    assert!(status.contains("\"cell_failures\":1"), "{status}");
    assert_eq!(client.healthz().unwrap().status, 200);

    client.shutdown().unwrap();
    handle.wait();
}

#[test]
fn drain_and_restart_loses_no_accepted_job() {
    let dir = scratch("restart");
    let cfg = || ServeConfig {
        state_dir: dir.clone(),
        queue_cap: 4,
        workers: 1,
        campaign_threads: 2,
        chaos: Vec::new(),
    };

    // Lifetime 1: accept a slow job and a queued job, then drain mid-run.
    // The job is deliberately long (well past the drain point even when
    // parallel tests contend for the CPU) so the drain always lands
    // mid-campaign rather than after an early finish.
    let long = "{\"network\":\"lstm\",\"samples\":6000,\"seed\":61}";
    let sup = Supervisor::start(cfg()).unwrap();
    let slow_spec = JobSpec::from_json_str(long).unwrap();
    let tiny_spec = JobSpec::from_json_str(&tiny(62)).unwrap();
    let (slow_id, outcome) = sup.submit(slow_spec.clone()).unwrap();
    assert_eq!(outcome, SubmitOutcome::Accepted);
    let (tiny_id, outcome) = sup.submit(tiny_spec.clone()).unwrap();
    assert_eq!(outcome, SubmitOutcome::Accepted);
    for _ in 0..200 {
        if sup
            .status_json(&slow_id)
            .unwrap()
            .contains("\"state\":\"running\"")
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    std::thread::sleep(Duration::from_millis(250)); // let cells checkpoint
    sup.shutdown_and_drain();
    drop(sup);

    // Lifetime 2: both jobs recover from the journal and finish.
    let sup = Supervisor::start(cfg()).unwrap();
    assert_eq!(sup.recovered_jobs(), 2, "{}", sup.healthz_json());
    for id in [&slow_id, &tiny_id] {
        for attempt in 0..2400 {
            let status = sup.status_json(id).unwrap();
            if status.contains("\"state\":\"done\"") {
                break;
            }
            assert!(attempt < 2399, "job {id} never finished: {status}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    // Zero duplicated results: resubmitting answers from the record.
    let (_, outcome) = sup.submit(slow_spec).unwrap();
    assert_eq!(outcome, SubmitOutcome::AlreadyDone);
    let recovered_status = sup.status_json(&slow_id).unwrap();
    sup.shutdown_and_drain();

    // The recovered result matches an uninterrupted run of the same spec
    // in a fresh daemon (same summary digits, bit for bit).
    let fresh_dir = scratch("restart-fresh");
    let sup = Supervisor::start(ServeConfig {
        state_dir: fresh_dir,
        queue_cap: 4,
        workers: 1,
        campaign_threads: 2,
        chaos: Vec::new(),
    })
    .unwrap();
    let (id, _) = sup.submit(JobSpec::from_json_str(long).unwrap()).unwrap();
    for attempt in 0..2400 {
        if sup.status_json(&id).unwrap().contains("\"state\":\"done\"") {
            break;
        }
        assert!(attempt < 2399, "fresh job never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    let fresh_status = sup.status_json(&id).unwrap();
    sup.shutdown_and_drain();

    assert_eq!(
        summary_of(&recovered_status),
        summary_of(&fresh_status),
        "recovered vs fresh summaries differ"
    );
}

#[test]
fn recovery_requeues_more_jobs_than_the_queue_cap() {
    // A pre-crash daemon can have `queue_cap` queued jobs plus running
    // ones, all of which fold back to queued on recovery — every one of
    // them was accepted, so every one must requeue even past the cap.
    let dir = scratch("over-cap-recovery");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let specs: Vec<JobSpec> = (71..75)
        .map(|seed| JobSpec::from_json_str(&tiny(seed)).unwrap())
        .collect();
    let mut journal = Journal::create(&dir.join("jobs.journal")).unwrap();
    for spec in &specs {
        journal
            .append(&JournalEvent::Submit {
                id: spec.job_id(),
                spec_json: spec.to_canonical_json(),
            })
            .unwrap();
    }
    drop(journal);

    let sup = Supervisor::start(ServeConfig {
        state_dir: dir,
        queue_cap: 1,
        workers: 1,
        campaign_threads: 2,
        chaos: Vec::new(),
    })
    .unwrap();
    assert_eq!(sup.recovered_jobs(), specs.len(), "{}", sup.healthz_json());
    for spec in &specs {
        let id = spec.job_id();
        for attempt in 0..2400 {
            let status = sup.status_json(&id).unwrap();
            if status.contains("\"state\":\"done\"") {
                break;
            }
            assert!(attempt < 2399, "recovered job {id} never ran: {status}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    sup.shutdown_and_drain();
}

#[test]
fn resubmit_at_full_queue_stays_terminal_not_wedged() {
    let sup = Supervisor::start(ServeConfig {
        state_dir: scratch("resubmit-full"),
        queue_cap: 1,
        workers: 1,
        campaign_threads: 2,
        chaos: Vec::new(),
    })
    .unwrap();

    // Occupy the worker, then cancel a queued job to get a terminal entry.
    let (a_id, outcome) = sup
        .submit(JobSpec::from_json_str(&slow(81, 0)).unwrap())
        .unwrap();
    assert_eq!(outcome, SubmitOutcome::Accepted);
    for attempt in 0..200 {
        if sup
            .status_json(&a_id)
            .unwrap()
            .contains("\"state\":\"running\"")
        {
            break;
        }
        assert!(attempt < 199, "job never started");
        std::thread::sleep(Duration::from_millis(25));
    }
    let (b_id, outcome) = sup
        .submit(JobSpec::from_json_str(&slow(82, 0)).unwrap())
        .unwrap();
    assert_eq!(outcome, SubmitOutcome::Accepted);
    assert_eq!(sup.cancel(&b_id), Some(JobState::Cancelled));

    // Refill the single queue slot, then resubmit the cancelled job into
    // the full queue: a clean Busy, with the terminal state untouched —
    // never a phantom entry marked queued but absent from the queue.
    let (c_id, outcome) = sup
        .submit(JobSpec::from_json_str(&slow(83, 0)).unwrap())
        .unwrap();
    assert_eq!(outcome, SubmitOutcome::Accepted);
    let (again, outcome) = sup
        .submit(JobSpec::from_json_str(&slow(82, 0)).unwrap())
        .unwrap();
    assert_eq!(again, b_id);
    assert!(matches!(outcome, SubmitOutcome::Busy { .. }), "{outcome:?}");
    let status = sup.status_json(&b_id).unwrap();
    assert!(status.contains("\"state\":\"cancelled\""), "{status}");

    // The id is not wedged: once space frees, resubmission really requeues.
    assert_eq!(sup.cancel(&c_id), Some(JobState::Cancelled));
    let (_, outcome) = sup
        .submit(JobSpec::from_json_str(&slow(82, 0)).unwrap())
        .unwrap();
    assert_eq!(outcome, SubmitOutcome::Accepted);
    let status = sup.status_json(&b_id).unwrap();
    assert!(
        status.contains("\"state\":\"queued\"") || status.contains("\"state\":\"running\""),
        "{status}"
    );

    sup.cancel(&a_id);
    sup.cancel(&b_id);
    sup.shutdown_and_drain();
}

#[test]
fn unparseable_recovered_spec_aborts_boot_and_preserves_the_journal() {
    // A journal whose records no longer parse (say, after a format change)
    // must abort recovery with the original journal intact on disk — not
    // truncate it first and lose durably journaled jobs.
    let dir = scratch("bad-spec-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("jobs.journal");
    let mut journal = Journal::create(&path).unwrap();
    journal
        .append(&JournalEvent::Submit {
            id: "deadbeef".to_owned(),
            spec_json: r#"{"network":"vgg"}"#.to_owned(),
        })
        .unwrap();
    drop(journal);
    let before = std::fs::read(&path).unwrap();

    let err = Supervisor::start(ServeConfig {
        state_dir: dir,
        queue_cap: 4,
        workers: 1,
        campaign_threads: 2,
        chaos: Vec::new(),
    })
    .unwrap_err();
    assert!(err.contains("deadbeef"), "{err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "failed boot rewrote the journal"
    );
}

fn summary_of(status: &str) -> String {
    let key = "\"summary\":{";
    let start = status.find(key).expect("no summary") + key.len() - 1;
    let mut depth = 0usize;
    for (i, b) in status[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return status[start..=start + i].to_owned();
                }
            }
            _ => {}
        }
    }
    panic!("unterminated summary in {status}");
}
