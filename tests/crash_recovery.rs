//! Torn-state recovery properties: a checkpoint or job journal truncated at
//! ANY byte offset — the exact artifact of a crash or `kill -9` mid-write —
//! must yield either a clean resume or a clean, named error. Never a wrong
//! result, never a panic. Corruption that is not a torn tail is a named
//! error too, never a silent resume from wrong counts: a single flipped bit
//! anywhere either fails its record's checksum or, on the final newline,
//! turns the last record into a torn tail.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use fidelity::core::campaign::{run_campaign, CampaignResult};
use fidelity::core::resilience::CheckpointSpec;
use fidelity::obs::progress::ProgressSpec;
use fidelity::obs::record_log;
use fidelity::obs::trace::{SinkHandle, TraceEvent, TraceSink};
use fidelity::serve::journal::{replay_bytes, Journal, JournalEvent, HEADER};
use fidelity::serve::JobSpec;
use fidelity_par::CancelToken;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fidelity-crash-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A fixed-count campaign: one wave of 2 samples per stratum.
const SPEC: &str = "{\"network\":\"lstm\",\"samples\":2,\"seed\":13}";

/// An adaptive campaign of several waves.
const ADAPTIVE_SPEC: &str = "{\"network\":\"lstm\",\"seed\":13,\"epsilon\":0.2}";

/// Serializes this file's campaigns: one test reads the process-global
/// `campaign.injections` counter. Taken by each test, not by the helpers.
fn campaigns() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The uninterrupted fixed-count run's checkpoint bytes — the ground truth
/// every recovered run must reproduce exactly.
fn reference_ckpt() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| reference_for(SPEC, "reference.ckpt"))
}

/// The same for the adaptive campaign.
fn adaptive_reference_ckpt() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| reference_for(ADAPTIVE_SPEC, "adaptive-reference.ckpt"))
}

fn reference_for(job: &str, name: &str) -> Vec<u8> {
    let path = scratch(name);
    let _ = std::fs::remove_file(&path);
    run_to_checkpoint(job, &path, 2, None).unwrap();
    std::fs::read(&path).unwrap()
}

/// Runs a small campaign with its checkpoint at `path` (resuming whatever
/// the file already holds), on `threads` workers, with an optional trace
/// outlet.
fn run_to_checkpoint(
    job: &str,
    path: &std::path::Path,
    threads: usize,
    outlet: Option<(SinkHandle, CancelToken)>,
) -> Result<CampaignResult, String> {
    let job = JobSpec::from_json_str(job).unwrap();
    let (engine, trace, metric) = job.deploy().unwrap();
    let accel = fidelity::accel::presets::nvdla_like();
    let mut spec = job.campaign_spec(threads);
    spec.resilience.checkpoint = Some(CheckpointSpec::resuming(path));
    if let Some((sink, token)) = outlet {
        spec.progress = Some(ProgressSpec {
            render: false,
            sink: Some(sink),
            ..ProgressSpec::default()
        });
        spec.resilience.cancel = Some(token);
    }
    run_campaign(&engine, &trace, &accel, metric.as_ref(), &spec).map_err(|e| e.to_string())
}

/// Truncates `reference` at `frac` of its length and resumes from the cut:
/// the campaign either completes to the reference bytes or fails with a
/// named checkpoint error.
fn resume_from_cut(
    job: &str,
    reference: fn() -> &'static [u8],
    frac: f64,
    tag: &str,
) -> Result<(), TestCaseError> {
    let _serial = campaigns();
    let reference = reference();
    let cut = ((reference.len() as f64) * frac) as usize;
    let what = format!("cut {cut}");
    resume_from_damage(job, reference, &reference[..cut], &what, tag)
}

/// Flips bit `bit` of the byte at `frac` of `reference`'s length and
/// resumes from the damaged file, with the same two allowed outcomes.
fn resume_from_flip(
    job: &str,
    reference: fn() -> &'static [u8],
    frac: f64,
    bit: u8,
    tag: &str,
) -> Result<(), TestCaseError> {
    let _serial = campaigns();
    let reference = reference();
    let at = ((reference.len() as f64) * frac) as usize;
    let mut damaged = reference.to_vec();
    damaged[at] ^= 1 << bit;
    let what = format!("bit {bit} of byte {at}");
    resume_from_damage(job, reference, &damaged, &what, tag)
}

/// Resumes from `damaged`: the campaign either completes to `reference`
/// byte for byte or fails with an error naming the checkpoint.
fn resume_from_damage(
    job: &str,
    reference: &[u8],
    damaged: &[u8],
    what: &str,
    tag: &str,
) -> Result<(), TestCaseError> {
    let path = scratch(&format!("damaged-{tag}.ckpt"));
    std::fs::write(&path, damaged).unwrap();
    match run_to_checkpoint(job, &path, 2, None) {
        Ok(_) => {
            let recovered = std::fs::read(&path).unwrap();
            prop_assert_eq!(
                recovered.as_slice(),
                reference,
                "resume from {} diverged",
                what
            );
        }
        Err(e) => {
            prop_assert!(
                e.contains("checkpoint"),
                "{} produced an unnamed error: {}",
                what,
                e
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

fn journal_fixture() -> &'static (Vec<u8>, Vec<JournalEvent>) {
    static FIX: OnceLock<(Vec<u8>, Vec<JournalEvent>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let events = vec![
            JournalEvent::Submit {
                id: "aaaa000011112222".to_owned(),
                spec_json: "{\"network\":\"lstm\",\"samples\":2}".to_owned(),
            },
            JournalEvent::Start {
                id: "aaaa000011112222".to_owned(),
            },
            JournalEvent::Fail {
                id: "aaaa000011112222".to_owned(),
                reason: "line\nbreak and \"quotes\"".to_owned(),
            },
            JournalEvent::Submit {
                id: "bbbb000011112222".to_owned(),
                spec_json: "{\"network\":\"yolo\",\"samples\":3}".to_owned(),
            },
            JournalEvent::Done {
                id: "bbbb000011112222".to_owned(),
                summary_json: "{\"fit_total\":1.5}".to_owned(),
            },
            JournalEvent::Cancel {
                id: "cccc000011112222".to_owned(),
            },
            JournalEvent::Shed {
                id: "dddd000011112222".to_owned(),
            },
        ];
        let path = scratch("journal-fixture.journal");
        let mut j = Journal::create(&path).unwrap();
        for ev in &events {
            j.append(ev).unwrap();
        }
        drop(j);
        (std::fs::read(&path).unwrap(), events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint truncated at any byte: the resumed campaign either
    /// completes with byte-identical final checkpoint contents, or fails
    /// with a clean checkpoint error. No third outcome.
    #[test]
    fn truncated_checkpoint_resumes_or_errors_cleanly(frac in 0.0f64..1.0) {
        resume_from_cut(SPEC, reference_ckpt, frac, "fixed")?;
    }

    /// The same property for the wave log of an adaptive campaign, whose
    /// cuts land in closed waves, open waves, and the certificate footer.
    #[test]
    fn truncated_adaptive_checkpoint_resumes_or_errors_cleanly(frac in 0.0f64..1.0) {
        resume_from_cut(ADAPTIVE_SPEC, adaptive_reference_ckpt, frac, "adaptive")?;
    }

    /// One bit flipped at any byte of a fixed-count checkpoint: the resumed
    /// campaign reproduces the reference bytes or fails naming the
    /// checkpoint. A silent wrong resume is the one forbidden outcome.
    #[test]
    fn bit_flipped_checkpoint_resumes_or_errors_cleanly(frac in 0.0f64..1.0, bit in 0u8..8) {
        resume_from_flip(SPEC, reference_ckpt, frac, bit, "fixed-flip")?;
    }

    /// The same for the adaptive wave log.
    #[test]
    fn bit_flipped_adaptive_checkpoint_resumes_or_errors_cleanly(
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        resume_from_flip(ADAPTIVE_SPEC, adaptive_reference_ckpt, frac, bit, "adaptive-flip")?;
    }

    /// One bit flipped at any byte of the journal: replay returns the exact
    /// events or a `corrupt journal` error. The one exception is the final
    /// newline: without it the last record is a torn tail by the log's own
    /// rule, so replay returns every event before it.
    #[test]
    fn bit_flipped_journal_replays_exactly_or_errors_cleanly(frac in 0.0f64..1.0, bit in 0u8..8) {
        let (bytes, events) = journal_fixture();
        let at = ((bytes.len() as f64) * frac) as usize;
        let mut damaged = bytes.clone();
        damaged[at] ^= 1 << bit;
        let want = if at + 1 == bytes.len() { &events[..events.len() - 1] } else { &events[..] };
        match replay_bytes(&damaged) {
            Ok(replayed) => prop_assert_eq!(
                replayed.as_slice(),
                want,
                "bit {} of byte {} replayed wrong events",
                bit,
                at
            ),
            Err(e) => prop_assert!(
                e.contains("corrupt journal"),
                "bit {} of byte {} produced an unnamed error: {}",
                bit,
                at,
                e
            ),
        }
    }

    /// Journal truncated at any byte: replay yields an exact prefix of the
    /// recorded events (torn tail dropped) or a clean corruption error with
    /// a line number. Never wrong events, never a panic.
    #[test]
    fn truncated_journal_replays_a_prefix_or_errors_cleanly(frac in 0.0f64..1.0) {
        let (bytes, events) = journal_fixture();
        let cut = ((bytes.len() as f64) * frac) as usize;
        match replay_bytes(&bytes[..cut]) {
            Ok(replayed) => {
                prop_assert!(replayed.len() <= events.len());
                prop_assert_eq!(
                    replayed.as_slice(),
                    &events[..replayed.len()],
                    "cut {} replayed non-prefix events",
                    cut
                );
            }
            Err(e) => {
                prop_assert!(
                    e.contains("corrupt journal"),
                    "cut {} produced an unnamed error: {}",
                    cut,
                    e
                );
            }
        }
    }
}

/// Every single-byte boundary of the journal header itself is covered
/// exhaustively — the region proptest sampling can miss.
#[test]
fn journal_header_truncations_all_error_cleanly() {
    let (bytes, _) = journal_fixture();
    for cut in 0..=HEADER.len() + 1 {
        let out = replay_bytes(&bytes[..cut.min(bytes.len())]);
        match out {
            Ok(events) => assert!(events.is_empty(), "cut {cut} invented events"),
            Err(e) => assert!(e.contains("corrupt journal"), "cut {cut}: {e}"),
        }
    }
}

/// `log` with each record's payload passed through `edit` and framed again
/// by the shared writer: corruption that a checksum cannot see.
fn edit_records(log: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
    let (header, records) = record_log::read(log).unwrap();
    let mut out = Vec::new();
    record_log::write_header(&mut out, &header).unwrap();
    for record in records {
        record_log::write_record(&mut out, &edit(record.unwrap().1)).unwrap();
    }
    out
}

/// The bytes of `log` up to and including the record `payload`.
fn through_record(log: &[u8], payload: &str) -> usize {
    let text = std::str::from_utf8(log).unwrap();
    text.find(&format!(" {payload}\n")).unwrap() + payload.len() + 2
}

/// A committed row whose `masked` count was corrupted (one digit) no longer
/// sums to its samples: resume refuses it with a named error instead of
/// continuing from wrong counts, as the offline verifier does. Rebuilt
/// through the shared writer, the row reaches those checks; spliced in
/// unframed, it fails its checksum first.
#[test]
fn resume_rejects_a_corrupted_masked_count() {
    let _serial = campaigns();
    let reference = adaptive_reference_ckpt();
    let text = std::str::from_utf8(reference).unwrap();
    let row = text
        .lines()
        .filter_map(|l| l.get(17..))
        .find(|p| p.starts_with("w "))
        .unwrap();
    let mut fields: Vec<String> = row.split(' ').map(str::to_owned).collect();
    let masked: u64 = fields[3].parse().unwrap();
    fields[3] = (masked ^ 1).to_string();
    let bad_row = fields.join(" ");
    let corrupted = edit_records(reference, |p| {
        if p == row {
            bad_row.clone()
        } else {
            p.to_owned()
        }
    });
    // Keep the first two waves closed, so the resume has waves left to run.
    let cut = through_record(&corrupted, "wdone 1");
    let path = scratch("corrupt-masked.ckpt");
    std::fs::write(&path, &corrupted[..cut]).unwrap();
    let err = run_to_checkpoint(ADAPTIVE_SPEC, &path, 2, None).unwrap_err();
    assert!(
        err.contains("corrupt checkpoint") && err.contains("outcomes do not sum"),
        "unexpected error: {err}"
    );
    let verify = fidelity::core::adaptive::verify_checkpoint(&corrupted[..])
        .unwrap_err()
        .to_string();
    assert!(verify.contains("outcomes do not sum"), "{verify}");

    // The same digit spliced into the raw bytes fails its checksum.
    let spliced = text.replacen(row, &bad_row, 1);
    let cut = through_record(spliced.as_bytes(), "wdone 1");
    std::fs::write(&path, &spliced.as_bytes()[..cut]).unwrap();
    let err = run_to_checkpoint(ADAPTIVE_SPEC, &path, 2, None).unwrap_err();
    assert!(
        err.contains("corrupt checkpoint") && err.contains("checksum mismatch"),
        "unexpected error: {err}"
    );
    let verify = fidelity::core::adaptive::verify_checkpoint(spliced.as_bytes())
        .unwrap_err()
        .to_string();
    assert!(verify.contains("checksum mismatch"), "{verify}");
    let _ = std::fs::remove_file(&path);
}

/// A flipped hex digit in a closed wave's RNG state still parses as a row
/// whose counts add up, so only the record's checksum can catch it: the
/// resume fails by name instead of continuing from the wrong stream.
#[test]
fn resume_rejects_a_flipped_rng_state_digit() {
    let _serial = campaigns();
    let reference = adaptive_reference_ckpt();
    let text = std::str::from_utf8(reference).unwrap();
    // The last hex digit of the first row, in wave 0, which `wdone 0`
    // closes.
    let mut end = 0;
    let digit = text
        .split_inclusive('\n')
        .find_map(|line| {
            end += line.len();
            let row = line.get(17..).is_some_and(|p| p.starts_with("w "));
            row.then_some(end - 2)
        })
        .unwrap();
    let mut damaged = reference.to_vec();
    damaged[digit] = if damaged[digit] == b'0' { b'1' } else { b'0' };
    let cut = through_record(&damaged, "wdone 1");
    let path = scratch("corrupt-rng.ckpt");
    std::fs::write(&path, &damaged[..cut]).unwrap();
    let err = run_to_checkpoint(ADAPTIVE_SPEC, &path, 2, None).unwrap_err();
    assert!(
        err.contains("corrupt checkpoint") && err.contains("checksum mismatch at line"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Cancels its token once the campaign has finished `after` strata.
struct CancelAfter {
    after: usize,
    done: std::sync::atomic::AtomicUsize,
    token: CancelToken,
}

impl TraceSink for CancelAfter {
    fn record(&self, event: &TraceEvent<'_>) {
        if event.name == "cell.done"
            && self.done.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 == self.after
        {
            self.token.cancel();
        }
    }
}

/// A fixed-count campaign cancelled after k committed rows resumes and runs
/// only the remaining strata: the injection counter moves by exactly their
/// quotas, and the result and checkpoint equal the uninterrupted run's.
#[test]
fn cancelled_fixed_campaign_resumes_only_the_remaining_strata() {
    const K: usize = 5;
    let _serial = campaigns();
    let reference = reference_ckpt();
    let path = scratch("cancel-after-k.ckpt");
    let _ = std::fs::remove_file(&path);
    let token = CancelToken::new();
    let sink = Arc::new(CancelAfter {
        after: K,
        done: std::sync::atomic::AtomicUsize::new(0),
        token: token.clone(),
    });
    // One worker, so exactly K rows are committed when the cancel lands.
    let err = run_to_checkpoint(SPEC, &path, 1, Some((SinkHandle(sink), token))).unwrap_err();
    assert!(
        err.contains("cancelled after 5/"),
        "unexpected error: {err}"
    );
    let partial =
        fidelity::core::resilience::parse_checkpoint(std::fs::read(&path).unwrap().as_slice())
            .unwrap();
    assert_eq!(partial.cells.len(), K, "rows committed before the cancel");

    let injections = fidelity::obs::metrics::counter("campaign.injections");
    let before = injections.get();
    let resumed = run_to_checkpoint(SPEC, &path, 1, None).unwrap();
    let strata = resumed.cells.len();
    assert_eq!(
        injections.get() - before,
        ((strata - K) * 2) as u64,
        "resume must run only the {} strata without a row",
        strata - K
    );
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint in either retired format, the per-cell `fidelity-ckpt v1`
/// or the unframed wave log `fidelity-ackpt v1`, is refused by name.
#[test]
fn retired_checkpoint_format_is_rejected_by_name() {
    let _serial = campaigns();
    let path = scratch("retired.ckpt");
    for (header, body) in [
        (
            "fidelity-ckpt v1",
            "fingerprint 1132b12866b1fcae\ncell 0 0 d:bb:i bb:i 2 2 0 0 0 h_init\ndone 0\n",
        ),
        (
            "fidelity-ackpt v1",
            "fingerprint 1132b12866b1fcae\nplan fixed 2 1\nstratum 0 0 d:bb:i bb:i 3ff0000000000000 h_init\nwave 0\n",
        ),
    ] {
        std::fs::write(&path, format!("{header}\n{body}")).unwrap();
        let err = run_to_checkpoint(SPEC, &path, 2, None).unwrap_err();
        assert!(
            err.contains(&format!("unsupported checkpoint format `{header}`")),
            "unexpected error: {err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
