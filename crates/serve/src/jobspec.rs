//! Job specifications: the JSON body of `POST /campaigns`.
//!
//! A [`JobSpec`] names everything that identifies a campaign — network,
//! precision, sample count, seed, adaptive plan, range bounding — plus
//! service-side policy that does *not* affect results (priority, deadline,
//! retries, thread count). The split matters: the identity fields feed the
//! job fingerprint, which keys single-flight deduplication and the on-disk
//! checkpoint, while policy fields can differ between two submissions that
//! still attach to the same run.
//!
//! Deployment mirrors the `fidelity analyze` CLI exactly (same workload
//! constructors, same seed defaults, same engine configuration), so a
//! campaign run by the service produces bit-identical checkpoints and
//! masking probabilities to an uninterrupted CLI run of the same spec.

use fidelity_core::adaptive::AdaptivePlan;
use fidelity_core::campaign::CampaignSpec;
use fidelity_dnn::precision::Precision;
use fidelity_obs::fnv::Fnv64;
use fidelity_obs::json::{escape_into, number_into, Json};
use fidelity_workloads::{deploy, Deployment, NETWORKS};

/// Workload seed `fidelity analyze` uses when `--seed` is absent.
const DEFAULT_WORKLOAD_SEED: u64 = 42;
/// Campaign seed `fidelity analyze` uses when `--seed` is absent.
const DEFAULT_CAMPAIGN_SEED: u64 = 0xF1DE;

/// One campaign job, as submitted over the API.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload name (`inception`, `resnet`, `mobilenet`, `yolo`,
    /// `transformer`, `lstm`).
    pub network: String,
    /// Numeric precision (`fp16`, `fp32`, `int16`, `int8`).
    pub precision: String,
    /// Injection samples per cell.
    pub samples: usize,
    /// RNG seed. `None` reproduces the CLI defaults (workload seed 42,
    /// campaign seed `0xF1DE`).
    pub seed: Option<u64>,
    /// Keep per-injection events (costs memory and checkpoint bytes).
    pub record_events: bool,
    /// Range-bounding slack, when range detectors are deployed.
    pub bounding: Option<f32>,
    /// Campaign worker threads; `0` takes the server default. Results are
    /// bit-identical for any value.
    pub threads: usize,
    /// Queue priority; higher runs first. Under overload a full queue sheds
    /// its lowest-priority entry to admit higher-priority work.
    pub priority: i32,
    /// Whole-job wall-clock deadline in milliseconds, enforced by the
    /// supervisor (cooperative cancellation), and also plumbed into the
    /// per-injection watchdog of the campaign's `ResilienceSpec`.
    pub deadline_ms: Option<u64>,
    /// Job-level retries after a failed attempt (each resumes from the
    /// job's checkpoint, backing off exponentially).
    pub retries: usize,
    /// Batched fault-cone evaluation, on for any value `> 0` (`0` = off,
    /// the dense resume). Policy, not identity: the batched and dense paths produce bit-identical results,
    /// so two submissions differing only here share one execution.
    pub batch: usize,
    /// Adaptive-planner FIT-bound target ε. `Some` switches the campaign
    /// to confidence-driven wave sampling; identity (changes which
    /// injections run), so it feeds the fingerprint.
    pub epsilon: Option<f64>,
    /// Adaptive confidence level (0.90, 0.95, or 0.99). Identity alongside
    /// `epsilon`; ignored unless `epsilon` is set.
    pub confidence: Option<f64>,
    /// Adaptive total-injection ceiling. Identity alongside `epsilon`;
    /// ignored unless `epsilon` is set.
    pub max_injections: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            network: String::new(),
            precision: "fp16".to_owned(),
            samples: 200,
            seed: None,
            record_events: false,
            bounding: None,
            threads: 0,
            priority: 0,
            deadline_ms: None,
            retries: 2,
            batch: 0,
            epsilon: None,
            confidence: None,
            max_injections: None,
        }
    }
}

/// Fields earlier versions accepted and this one no longer does, each with
/// the value, if any, under which it meant what this version always does:
/// the per-cell CI target (`target_ci`) went with the per-cell executor, and
/// the MAC tier (`mac_tier`) with the `fast` kernels, leaving `bitwise`.
const RETIRED_FIELDS: &[(&str, Option<&str>)] =
    &[("target_ci", None), ("mac_tier", Some("bitwise"))];

/// Upper bound on `deadline_ms`: ten years. Rules out timer-arithmetic
/// overflow in the supervisor and keeps the canonical-JSON `f64` encoding
/// of the field exact (the bound is well under 2^53).
const MAX_DEADLINE_MS: u64 = 10 * 365 * 24 * 60 * 60 * 1000;

impl JobSpec {
    /// Parses a spec from a JSON request body. Unknown fields are rejected —
    /// a typo in `"samples"` must not silently run a 200-sample default.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let Json::Obj(map) = v else {
            return Err("job spec must be a JSON object".to_owned());
        };
        let mut spec = JobSpec::default();
        for (key, val) in map {
            match key.as_str() {
                "network" => {
                    spec.network = val
                        .as_str()
                        .ok_or_else(|| "`network` must be a string".to_owned())?
                        .to_owned();
                }
                "precision" => {
                    spec.precision = val
                        .as_str()
                        .ok_or_else(|| "`precision` must be a string".to_owned())?
                        .to_owned();
                }
                "samples" => spec.samples = usize_field(val, key)?,
                "seed" => spec.seed = Some(u64_field(val, key)?),
                "record_events" => spec.record_events = bool_field(val, key)?,
                "bounding" => {
                    spec.bounding = Some(val.as_f64().ok_or_else(|| bad(key, "a number"))? as f32);
                }
                "threads" => spec.threads = usize_field(val, key)?,
                "priority" => {
                    let n = val.as_f64().ok_or_else(|| bad(key, "an integer"))?;
                    if n < f64::from(i32::MIN) || n > f64::from(i32::MAX) {
                        return Err(bad(key, "an i32"));
                    }
                    spec.priority = n as i32;
                }
                "deadline_ms" => spec.deadline_ms = Some(u64_field(val, key)?),
                "retries" => spec.retries = usize_field(val, key)?,
                "batch" => spec.batch = usize_field(val, key)?,
                "epsilon" => {
                    spec.epsilon = Some(val.as_f64().ok_or_else(|| bad(key, "a number"))?);
                }
                "confidence" => {
                    spec.confidence = Some(val.as_f64().ok_or_else(|| bad(key, "a number"))?);
                }
                "max_injections" => spec.max_injections = Some(usize_field(val, key)?),
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from raw JSON text (journal recovery path).
    ///
    /// # Errors
    ///
    /// Propagates JSON and field errors.
    pub fn from_json_str(s: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&fidelity_obs::json::parse(s)?)
    }

    /// Parses a spec read back from the job journal. Unlike a submission,
    /// a field that an earlier version accepted and this one retired is
    /// dropped rather than rejected, so a state directory written by that
    /// version still recovers. A dropped field set to anything but the
    /// value this version always runs is returned, so the caller can refuse
    /// to *run* the job under changed semantics.
    ///
    /// # Errors
    ///
    /// Propagates JSON and field errors other than retired fields.
    pub fn from_journal_str(s: &str) -> Result<(JobSpec, Option<&'static str>), String> {
        let mut v = fidelity_obs::json::parse(s)?;
        let mut retired = None;
        if let Json::Obj(map) = &mut v {
            for &(field, current) in RETIRED_FIELDS {
                let Some(old) = map.remove(field) else {
                    continue;
                };
                if current.is_none_or(|c| old.as_str() != Some(c)) {
                    retired = Some(field);
                }
            }
        }
        Ok((JobSpec::from_json(&v)?, retired))
    }

    fn validate(&self) -> Result<(), String> {
        if self.network.is_empty() {
            return Err("`network` is required".to_owned());
        }
        if !NETWORKS.iter().any(|(name, _)| *name == self.network) {
            let names: Vec<&str> = NETWORKS.iter().map(|(name, _)| *name).collect();
            return Err(format!(
                "unknown network `{}` (expected one of {})",
                self.network,
                names.join(", ")
            ));
        }
        if let Err(e) = self.precision.parse::<Precision>() {
            return Err(format!(
                "{e} (expected one of {})",
                Precision::NAMES.join(", ")
            ));
        }
        if self.samples == 0 {
            return Err("`samples` must be at least 1".to_owned());
        }
        if self.deadline_ms.is_some_and(|d| d > MAX_DEADLINE_MS) {
            return Err(format!(
                "`deadline_ms` must be at most {MAX_DEADLINE_MS} (ten years)"
            ));
        }
        if self.epsilon.is_none() && (self.confidence.is_some() || self.max_injections.is_some()) {
            return Err("`confidence`/`max_injections` require `epsilon`".to_owned());
        }
        if let Some(plan) = self.adaptive_plan() {
            plan.validated_z().map_err(|e| e.to_string())?;
            if self.record_events {
                return Err("`epsilon` (adaptive) excludes `record_events`".to_owned());
            }
        }
        Ok(())
    }

    /// The adaptive plan implied by the spec, when `epsilon` is set.
    pub fn adaptive_plan(&self) -> Option<AdaptivePlan> {
        let epsilon = self.epsilon?;
        let mut plan = AdaptivePlan::new(epsilon);
        if let Some(c) = self.confidence {
            plan.confidence = c;
        }
        if let Some(m) = self.max_injections {
            plan.max_injections = m;
        }
        Some(plan)
    }

    /// Canonical single-line JSON encoding: stable field order, defaults
    /// included. The journal stores this; [`JobSpec::from_json_str`] must
    /// round-trip it exactly.
    pub fn to_canonical_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"network\":");
        escape_into(&mut s, &self.network);
        s.push_str(",\"precision\":");
        escape_into(&mut s, &self.precision);
        push_num(&mut s, "samples", self.samples as f64);
        if let Some(seed) = self.seed {
            push_num(&mut s, "seed", seed as f64);
        }
        s.push_str(",\"record_events\":");
        s.push_str(if self.record_events { "true" } else { "false" });
        if let Some(b) = self.bounding {
            push_num(&mut s, "bounding", f64::from(b));
        }
        push_num(&mut s, "threads", self.threads as f64);
        push_num(&mut s, "priority", f64::from(self.priority));
        if let Some(d) = self.deadline_ms {
            push_num(&mut s, "deadline_ms", d as f64);
        }
        push_num(&mut s, "retries", self.retries as f64);
        push_num(&mut s, "batch", self.batch as f64);
        if let Some(e) = self.epsilon {
            push_num(&mut s, "epsilon", e);
        }
        if let Some(c) = self.confidence {
            push_num(&mut s, "confidence", c);
        }
        if let Some(m) = self.max_injections {
            push_num(&mut s, "max_injections", m as f64);
        }
        s.push('}');
        s
    }

    /// FNV-1a over the identity fields only. Two specs with equal
    /// fingerprints run the same campaign and may share one execution
    /// (single-flight); policy fields (priority, deadline, retries,
    /// threads) are deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.bytes(self.network.as_bytes())
            .bytes(self.precision.as_bytes())
            .bytes(&(self.samples as u64).to_le_bytes())
            .bytes(&self.seed.unwrap_or(u64::MAX).to_le_bytes())
            .bytes(&[u8::from(self.record_events), u8::from(self.seed.is_some())])
            // The slot of the retired per-cell CI target, always unset:
            // keeps every job id stable across versions.
            .bytes(&u64::MAX.to_le_bytes())
            .bytes(&self.bounding.map_or(u32::MAX, f32::to_bits).to_le_bytes())
            // The slot of the retired MAC tier, always the bitwise kernels
            // every job runs, for the same reason. `batch` is policy
            // (bit-identical by construction) and deliberately excluded.
            .bytes(b"bitwise");
        // Adaptive plan is identity: it decides which injections run.
        if let Some(plan) = self.adaptive_plan() {
            h.bytes(&[1u8])
                .bytes(&plan.epsilon.to_bits().to_le_bytes())
                .bytes(&plan.confidence.to_bits().to_le_bytes())
                .bytes(&(plan.max_injections as u64).to_le_bytes());
        }
        h.finish()
    }

    /// The job id: the fingerprint in hex. Doubles as the checkpoint file
    /// stem, so a restarted daemon finds the right checkpoint by id alone.
    pub fn job_id(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// The workload seed, with the CLI's `analyze` default.
    pub fn workload_seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_WORKLOAD_SEED)
    }

    /// The campaign seed, with the CLI's `analyze` default.
    pub fn campaign_seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_CAMPAIGN_SEED)
    }

    /// Deploys the workload exactly as `fidelity analyze` does, through
    /// [`fidelity_workloads::deploy`].
    ///
    /// # Errors
    ///
    /// Returns deployment errors as text.
    pub fn deploy(&self) -> Result<Deployment, String> {
        let precision = self.precision.parse()?;
        deploy(
            &self.network,
            self.workload_seed(),
            precision,
            self.bounding,
        )
    }

    /// Builds the identity half of a [`CampaignSpec`] — the fields covered
    /// by the checkpoint fingerprint. Resilience policy (checkpoint path,
    /// cancellation, watchdog) is layered on by the supervisor.
    pub fn campaign_spec(&self, default_threads: usize) -> CampaignSpec {
        CampaignSpec {
            samples_per_cell: self.samples,
            seed: self.campaign_seed(),
            threads: if self.threads == 0 {
                default_threads.max(1)
            } else {
                self.threads
            },
            record_events: self.record_events,
            resilience: Default::default(),
            progress: None,
            batch: self.batch,
            adaptive: self.adaptive_plan(),
        }
    }
}

fn bad(key: &str, expected: &str) -> String {
    format!("`{key}` must be {expected}")
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| bad(key, "a non-negative integer"))?;
    usize::try_from(n).map_err(|_| bad(key, "a usize"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| bad(key, "a non-negative integer"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(key, "a boolean")),
    }
}

fn push_num(out: &mut String, key: &str, v: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    number_into(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_obs::json::parse;

    fn tiny() -> JobSpec {
        JobSpec {
            network: "lstm".to_owned(),
            samples: 4,
            seed: Some(7),
            ..JobSpec::default()
        }
    }

    #[test]
    fn canonical_json_round_trips() {
        let specs = [
            tiny(),
            JobSpec {
                network: "yolo".to_owned(),
                precision: "int8".to_owned(),
                samples: 11,
                seed: None,
                record_events: true,
                bounding: Some(1.5),
                threads: 3,
                priority: -2,
                deadline_ms: Some(12_000),
                retries: 0,
                batch: 16,
                epsilon: None,
                confidence: None,
                max_injections: None,
            },
            JobSpec {
                network: "resnet".to_owned(),
                epsilon: Some(0.005),
                confidence: Some(0.99),
                max_injections: Some(50_000),
                ..tiny()
            },
        ];
        for spec in specs {
            let text = spec.to_canonical_json();
            let back = JobSpec::from_json_str(&text).unwrap();
            assert_eq!(back, spec, "round-trip through {text}");
        }
    }

    #[test]
    fn unknown_fields_and_values_are_rejected() {
        for body in [
            r#"{"network":"lstm","sample":4}"#,  // typo'd field
            r#"{"network":"vgg"}"#,              // unknown network
            r#"{"network":"lstm","samples":0}"#, // zero samples
            r#"{"network":"lstm","precision":"bf16"}"#,
            r#"{"network":"lstm","target_ci":0.05}"#, // retired field
            r#"{"network":"lstm","mac_tier":"bitwise"}"#, // retired field
            r#"{"samples":4}"#,                       // missing network
            r#"[1,2,3]"#,                             // not an object
        ] {
            let v = parse(body).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "accepted: {body}");
        }
        let v = parse(r#"{"network":"lstm","mac_tier":"bitwise"}"#).unwrap();
        assert_eq!(
            JobSpec::from_json(&v).unwrap_err(),
            "unknown field `mac_tier`"
        );
    }

    #[test]
    fn journal_replay_drops_retired_fields_only() {
        let (spec, retired) =
            JobSpec::from_journal_str(r#"{"network":"lstm","samples":4,"target_ci":0.05}"#)
                .unwrap();
        assert_eq!(retired, Some("target_ci"));
        assert_eq!((spec.network.as_str(), spec.samples), ("lstm", 4));
        let (_, retired) = JobSpec::from_journal_str(r#"{"network":"lstm"}"#).unwrap();
        assert_eq!(retired, None);
        // Every job the previous version journaled names its MAC tier; the
        // bitwise tier is what every job runs now, so it drops silently and
        // the job keeps its id.
        let (spec, retired) = JobSpec::from_journal_str(
            r#"{"network":"lstm","samples":4,"seed":7,"mac_tier":"bitwise"}"#,
        )
        .unwrap();
        assert_eq!(retired, None);
        assert_eq!(spec, tiny());
        assert_eq!(spec.fingerprint(), tiny().fingerprint());
        let (_, retired) =
            JobSpec::from_journal_str(r#"{"network":"lstm","mac_tier":"fast"}"#).unwrap();
        assert_eq!(retired, Some("mac_tier"));
        assert!(JobSpec::from_journal_str(r#"{"network":"lstm","sample":4}"#).is_err());
    }

    #[test]
    fn absurd_deadlines_are_rejected() {
        // Above the ten-year bound (but exactly representable as f64, so
        // the failure is the validation, not the number parse).
        let v = parse(r#"{"network":"lstm","deadline_ms":1000000000000}"#).unwrap();
        let err = JobSpec::from_json(&v).unwrap_err();
        assert!(err.contains("deadline_ms"), "{err}");
        let v = parse(r#"{"network":"lstm","deadline_ms":60000}"#).unwrap();
        assert_eq!(JobSpec::from_json(&v).unwrap().deadline_ms, Some(60_000));
    }

    #[test]
    fn fingerprint_covers_identity_not_policy() {
        let a = tiny();
        let mut policy = a.clone();
        policy.priority = 9;
        policy.deadline_ms = Some(1);
        policy.retries = 0;
        policy.threads = 8;
        policy.batch = 64; // batched evaluation is bit-identical → policy
        assert_eq!(a.fingerprint(), policy.fingerprint());
        let mut reseeded = a.clone();
        reseeded.seed = Some(8);
        assert_ne!(a.fingerprint(), reseeded.fingerprint());
        let mut samples = a.clone();
        samples.samples = 5;
        assert_ne!(a.fingerprint(), samples.fingerprint());
        let mut unseeded = a.clone();
        unseeded.seed = None;
        assert_ne!(a.fingerprint(), unseeded.fingerprint());
        let mut adaptive = a.clone();
        adaptive.epsilon = Some(0.01); // decides which injections run → identity
        assert_ne!(a.fingerprint(), adaptive.fingerprint());
        let mut tighter = adaptive.clone();
        tighter.epsilon = Some(0.001);
        assert_ne!(adaptive.fingerprint(), tighter.fingerprint());
    }

    /// Job ids key checkpoints and the journal across daemon versions, so
    /// the fingerprint of a fixed and an adaptive spec is pinned.
    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(tiny().fingerprint(), 0x4cd1_760d_16d0_f639);
        let adaptive = JobSpec {
            epsilon: Some(0.01),
            ..tiny()
        };
        assert_eq!(adaptive.fingerprint(), 0x5914_5845_1eb0_4470);
    }

    #[test]
    fn adaptive_validation_rejects_conflicts() {
        for body in [
            r#"{"network":"lstm","confidence":0.95}"#, // confidence without epsilon
            r#"{"network":"lstm","epsilon":0.0}"#,     // non-positive epsilon
            r#"{"network":"lstm","epsilon":0.01,"confidence":0.8}"#, // unsupported level
            r#"{"network":"lstm","epsilon":0.01,"record_events":true}"#,
        ] {
            let v = parse(body).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "accepted: {body}");
        }
        let v = parse(r#"{"network":"lstm","epsilon":0.01,"confidence":0.99}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        let plan = spec.adaptive_plan().unwrap();
        assert_eq!(plan.epsilon, 0.01);
        assert_eq!(plan.confidence, 0.99);
        assert!(spec.campaign_spec(1).adaptive.is_some());
    }

    #[test]
    fn seed_defaults_match_the_cli() {
        let spec = JobSpec {
            seed: None,
            ..tiny()
        };
        assert_eq!(spec.workload_seed(), 42);
        assert_eq!(spec.campaign_seed(), 0xF1DE);
        let spec = JobSpec {
            seed: Some(5),
            ..tiny()
        };
        assert_eq!(spec.workload_seed(), 5);
        assert_eq!(spec.campaign_seed(), 5);
    }
}
