//! Operational-telemetry integration drills: the `/metrics` exporter under
//! concurrent scrapes mid-campaign, end-to-end trace-id propagation from
//! HTTP admission to the rendered report, and readiness flipping to 503
//! while the daemon drains.

use std::sync::Arc;
use std::time::Duration;

use fidelity::obs::json::{self, Json};
use fidelity::obs::prom;
use fidelity::serve::{jobtrace, serve, Client, ServeConfig, Supervisor};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fidelity-obs-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn boot(state: &std::path::Path) -> (fidelity::serve::ServeHandle, Client) {
    let sup = Supervisor::start(ServeConfig {
        state_dir: state.to_path_buf(),
        queue_cap: 8,
        workers: 1,
        campaign_threads: 2,
        chaos: Vec::new(),
    })
    .expect("supervisor boots");
    let handle = serve(sup, "127.0.0.1:0").expect("listener binds");
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

fn id_of(body: &str) -> String {
    let key = "\"id\":\"";
    let start = body.find(key).expect("no id in body") + key.len();
    body[start..].split('"').next().unwrap().to_owned()
}

#[test]
fn concurrent_metrics_scrapes_parse_and_stay_monotone() {
    // Timing must be armed for the latency histograms, as `fidelity serve`
    // arms it; tests share a process, so set it outright.
    fidelity::obs::set_timing(true);
    let state = scratch("scrape");
    let (handle, client) = boot(&state);

    // Enough samples that the campaign is still running while the
    // scrapers hammer /metrics.
    let reply = client
        .submit("{\"network\":\"lstm\",\"samples\":600,\"seed\":11}")
        .expect("submit");
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = id_of(&reply.body);

    let addr = handle.addr().to_string();
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = Client::new(addr);
                let mut last_submitted = 0.0f64;
                let mut last_injections = 0.0f64;
                let mut scrapes = 0usize;
                for _ in 0..20 {
                    let reply = client
                        .request("GET", "/metrics", None)
                        .expect("metrics scrape");
                    assert_eq!(reply.status, 200);
                    // Strict parse mid-campaign: cumulative histogram
                    // buckets, counts, and types must all hold together
                    // even while workers race the scrape.
                    let dump = prom::parse(&reply.body)
                        .unwrap_or_else(|e| panic!("scrape {scrapes} unparsable: {e}"));
                    let submitted = dump.scalar("serve_jobs_submitted").unwrap_or(0.0);
                    let injections = dump.scalar("campaign_injections").unwrap_or(0.0);
                    assert!(
                        submitted >= last_submitted,
                        "serve_jobs_submitted went backwards: {last_submitted} -> {submitted}"
                    );
                    assert!(
                        injections >= last_injections,
                        "campaign_injections went backwards: {last_injections} -> {injections}"
                    );
                    last_submitted = submitted;
                    last_injections = injections;
                    scrapes += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                scrapes
            })
        })
        .collect();
    for s in scrapers {
        assert_eq!(s.join().expect("scraper thread"), 20);
    }

    let status = client
        .wait_terminal(&id, 2400, Duration::from_millis(25))
        .expect("job finishes");
    assert!(status.contains("\"state\":\"done\""), "{status}");

    // The scrape route instrumented itself: at least 80 requests counted,
    // and with timing armed the latency histogram observed them.
    let reply = client
        .request("GET", "/metrics", None)
        .expect("final scrape");
    let dump = prom::parse(&reply.body).expect("final scrape parses");
    assert!(dump.scalar("serve_http_requests_metrics").unwrap_or(0.0) >= 80.0);
    assert!(
        dump.histogram_count("serve_http_latency_us_metrics")
            .unwrap_or(0.0)
            >= 80.0
    );
    // The fault-cone walk's counters are exported from the first
    // deployment on, whether or not a job took the delta path yet.
    assert!(dump.scalar("dnn_cone_dense_fallback").is_some());
    assert!(dump.scalar("dnn_cone_masked").is_some());
    let _ = client.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn trace_id_propagates_from_admission_to_report() {
    let state = scratch("traceid");
    let (handle, client) = boot(&state);

    let reply = client
        .submit("{\"network\":\"lstm\",\"samples\":25,\"seed\":5}")
        .expect("submit");
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = id_of(&reply.body);
    let status = client
        .wait_terminal(&id, 1200, Duration::from_millis(25))
        .expect("job finishes");
    assert!(status.contains("\"state\":\"done\""), "{status}");

    // The id in the journal is the job id the trace id derives from: the
    // whole chain is deterministic, so it can be recomputed from the
    // journal alone.
    let journal = std::fs::read_to_string(state.join("jobs.journal")).expect("journal");
    assert!(journal.contains(&id), "journal lost the job id");
    let want = jobtrace::trace_id(&id);

    let trace = client
        .request("GET", &format!("/campaigns/{id}/trace"), None)
        .expect("trace route");
    assert_eq!(trace.status, 200, "{}", trace.body);
    let (mut admits, mut run_spans, mut worker_cells, mut terminals) = (0, 0, 0, 0);
    for line in trace.body.lines().filter(|l| !l.is_empty()) {
        let v = json::parse(line).expect("trace line parses");
        assert_eq!(
            v.get("trace").and_then(Json::as_str),
            Some(want.as_str()),
            "wrong trace id on: {line}"
        );
        match v.get("ev").and_then(Json::as_str) {
            Some("job.admit") => admits += 1,
            Some("job.span") if v.get("phase").and_then(Json::as_str) == Some("run") => {
                run_spans += 1;
            }
            Some("cell.done") if v.get("worker").and_then(Json::as_u64).is_some() => {
                worker_cells += 1;
            }
            Some("job.terminal") => terminals += 1,
            _ => {}
        }
    }
    assert!(admits >= 1, "no job.admit record");
    assert!(run_spans >= 1, "no run span");
    assert!(worker_cells >= 1, "no worker-attributed cell records");
    assert!(terminals >= 1, "no job.terminal record");

    // `fidelity report --trace` renders the same file into a span tree
    // keyed by the trace id, with the terminal state and phase times.
    let summary = fidelity::obs::report::summarize_file(&jobtrace::trace_path(&state, &id))
        .expect("trace summarizes");
    let job = summary.jobs.get(&want).expect("job keyed by trace id");
    assert_eq!(job.state, "done");
    assert!(job.attempts >= 1);
    assert!(!summary.is_lossy(), "trace reported lossy");
    let rendered = format!("{summary}");
    assert!(
        rendered.contains(&want),
        "report lost the trace id:\n{rendered}"
    );
    assert!(
        rendered.contains("queue_wait"),
        "no phase tree:\n{rendered}"
    );

    let _ = client.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn healthz_flips_to_503_when_draining() {
    let state = scratch("drain");
    let (handle, client) = boot(&state);

    let ready = client.healthz().expect("healthz up");
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert!(ready.body.contains("\"status\":\"ok\""), "{}", ready.body);
    assert!(ready.body.contains("\"accepting\":true"), "{}", ready.body);
    assert!(ready.body.contains("\"workers_alive\":"), "{}", ready.body);

    // Drain the supervisor directly (the listener stays up, which is the
    // point: a draining daemon still answers, but not-ready).
    let sup: Arc<Supervisor> = handle.supervisor();
    sup.shutdown_and_drain();

    let draining = client.healthz().expect("healthz while draining");
    assert_eq!(draining.status, 503, "{}", draining.body);
    assert!(
        draining.body.contains("\"status\":\"draining\""),
        "{}",
        draining.body
    );
    assert!(
        draining.body.contains("\"accepting\":false"),
        "{}",
        draining.body
    );

    handle.stop();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state);
}
