//! The hard crash drill: `kill -9` the daemon mid-campaign, restart it on
//! the same state directory, and verify nothing was lost and nothing was
//! invented — the recovered job finishes with checkpoint bytes identical to
//! an uninterrupted `fidelity analyze` of the same spec, which pins the
//! masking probabilities (they are pure functions of the checkpointed cell
//! tallies) to the same values bit for bit.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use fidelity::serve::Client;

const NETWORK: &str = "lstm";
const SAMPLES: &str = "1200";
const SEED: &str = "91";

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fidelity-serve-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Spawns `fidelity serve` on an ephemeral port and waits for its
/// "listening on" line. stdout keeps draining on a thread so the child
/// never blocks on a full pipe.
fn spawn_daemon(state: &std::path::Path) -> (Child, Client) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fidelity"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state",
            state.to_str().unwrap(),
            "--workers",
            "1",
            "--jobs",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().unwrap();
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("daemon stdout");
        assert!(n > 0, "daemon exited before listening");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.trim().to_owned();
        }
        if let Some(rest) = line.trim().strip_prefix("smoke: listening on ") {
            break rest.trim().to_owned();
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, Client::new(addr))
}

fn submit_spec() -> String {
    format!("{{\"network\":\"{NETWORK}\",\"samples\":{SAMPLES},\"seed\":{SEED}}}")
}

fn id_of(body: &str) -> String {
    let key = "\"id\":\"";
    let start = body.find(key).expect("no id in body") + key.len();
    body[start..].split('"').next().unwrap().to_owned()
}

/// Rows committed to the job's wave log (one per finished stratum): its
/// `w` records, each after a 16-digit checksum and a space.
fn committed_cells(ckpt: &std::path::Path) -> usize {
    let is_row = |l: &str| l.get(17..).is_some_and(|p| p.starts_with("w "));
    std::fs::read_to_string(ckpt).map_or(0, |s| s.lines().filter(|l| is_row(l)).count())
}

#[test]
fn sigkill_mid_campaign_restart_recovers_bit_identical() {
    let state = scratch("state");
    std::fs::create_dir_all(&state).unwrap();

    // Lifetime 1: accept the job, let some cells commit, then SIGKILL —
    // no drain, no flush, the worst-case crash.
    let (mut child, client) = spawn_daemon(&state);
    let reply = client.submit(&submit_spec()).expect("submit");
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = id_of(&reply.body);
    let ckpt = state.join(format!("job-{id}.ckpt"));
    let mut progressed = false;
    for _ in 0..2400 {
        if committed_cells(&ckpt) >= 2 {
            progressed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(progressed, "no cells committed before the kill window");
    let done_already = client
        .status(&id)
        .is_ok_and(|r| r.body.contains("\"state\":\"done\""));
    assert!(!done_already, "job finished before the kill; raise SAMPLES");
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Lifetime 2: the journal replays, the job re-enqueues, the campaign
    // resumes from the checkpoint and completes.
    let (mut child, client) = spawn_daemon(&state);
    let mut final_status = String::new();
    for _ in 0..4800 {
        let reply = client.status(&id).expect("status after restart");
        assert_eq!(reply.status, 200, "job lost after restart: {}", reply.body);
        if reply.body.contains("\"state\":\"done\"") {
            final_status = reply.body;
            break;
        }
        assert!(
            !reply.body.contains("\"state\":\"failed\""),
            "recovered job failed: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!final_status.is_empty(), "recovered job never finished");
    assert!(
        final_status.contains("\"masked_probability\":"),
        "{final_status}"
    );
    let recovered = std::fs::read(&ckpt).expect("recovered checkpoint");

    // Zero duplicated results: the same spec now answers from the record.
    let again = client.submit(&submit_spec()).expect("resubmit");
    assert_eq!(again.status, 200, "{}", again.body);
    assert!(again.body.contains("\"state\":\"done\""), "{}", again.body);

    // Trace continuity across the crash: both daemon generations stamped
    // the same deterministic trace id into the same per-job trace file,
    // and the pid field proves at least two distinct processes wrote it.
    let trace = client
        .request("GET", &format!("/campaigns/{id}/trace"), None)
        .expect("trace route");
    assert_eq!(trace.status, 200, "{}", trace.body);
    let want = fidelity::serve::jobtrace::trace_id(&id);
    let mut pids = std::collections::BTreeSet::new();
    let mut recover_events = 0usize;
    for line in trace.body.lines().filter(|l| !l.is_empty()) {
        let v = fidelity::obs::json::parse(line).expect("trace line parses");
        assert_eq!(
            v.get("trace").and_then(fidelity::obs::json::Json::as_str),
            Some(want.as_str()),
            "trace id changed across generations: {line}"
        );
        if let Some(pid) = v.get("pid").and_then(fidelity::obs::json::Json::as_u64) {
            pids.insert(pid);
        }
        if v.get("ev").and_then(fidelity::obs::json::Json::as_str) == Some("job.recover") {
            recover_events += 1;
        }
    }
    assert!(
        pids.len() >= 2,
        "expected records from both daemon generations, saw pids {pids:?}"
    );
    assert!(recover_events >= 1, "no job.recover event after restart");

    let shutdown = client.shutdown().expect("shutdown");
    assert_eq!(shutdown.status, 202);
    child.wait().expect("clean exit");

    // Ground truth: an uninterrupted CLI run of the identical spec. The
    // checkpoint encodes every cell's outcome tallies, so byte equality
    // here IS equality of all masking probabilities.
    let cli_ckpt = scratch("uninterrupted.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_fidelity"))
        .args([
            "analyze",
            "--network",
            NETWORK,
            "--samples",
            SAMPLES,
            "--seed",
            SEED,
            "--checkpoint",
            cli_ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("cli analyze runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let uninterrupted = std::fs::read(&cli_ckpt).expect("cli checkpoint");
    assert_eq!(
        recovered, uninterrupted,
        "recovered checkpoint differs from the uninterrupted run"
    );
}
