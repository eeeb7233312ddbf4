//! Observability for the streaming pipeline: per-stage timers, counters,
//! latency percentiles and the JSON run report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use upaq_json::{json, ToJson, Value};

/// Collects latency samples and answers percentile queries.
///
/// Samples are stored raw (one `f64` per frame) — streaming runs here are
/// thousands of frames, not billions, so exact percentiles are affordable
/// and simpler to trust than a sketch.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: Mutex<Vec<f64>>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample, in seconds.
    pub fn record(&self, seconds: f64) {
        self.samples.lock().unwrap().push(seconds);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.lock().unwrap().len()
    }

    /// Sorted copy of the samples.
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.samples.lock().unwrap().clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Summarises the samples (zeros when empty).
    pub fn summary(&self) -> LatencySummary {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return LatencySummary::default();
        }
        let pct = |p: f64| {
            let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        LatencySummary {
            count: sorted.len() as u64,
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: pct(50.0),
            p95_s: pct(95.0),
            p99_s: pct(99.0),
            max_s: *sorted.last().unwrap(),
        }
    }
}

/// Percentile summary of one latency distribution, in seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples observed.
    pub count: u64,
    /// Mean.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Worst observed.
    pub max_s: f64,
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "mean_ms": self.mean_s * 1e3,
            "p50_ms": self.p50_s * 1e3,
            "p95_ms": self.p95_s * 1e3,
            "p99_ms": self.p99_s * 1e3,
            "max_ms": self.max_s * 1e3,
        })
    }
}

/// Frame-accounting counters shared by every pipeline stage.
#[derive(Debug, Default)]
pub struct Counters {
    /// Frames emitted by the source.
    pub generated: AtomicU64,
    /// Frames evicted from a full input queue (drop-oldest backpressure).
    pub dropped_backpressure: AtomicU64,
    /// Frames the deadline scheduler refused (past their deadline).
    pub dropped_deadline: AtomicU64,
    /// Frames run on a cheaper variant (level > 0) *and* handed to
    /// postprocess — a degraded frame whose forward pass fails counts only
    /// as `failed`, keeping the classes disjoint.
    pub degraded: AtomicU64,
    /// Frames that produced final detections.
    pub completed: AtomicU64,
    /// Completed frames that still missed their deadline end-to-end.
    pub deadline_misses: AtomicU64,
    /// Frames whose forward pass returned an execution error, or whose
    /// hand-off to postprocess was refused by a closed queue.
    pub failed: AtomicU64,
    /// Frames removed by the supervision layer: quarantined at the
    /// firewall, lost to a caught panic, or cancelled by a stage
    /// watchdog. The sixth accounting class — disjoint from every drop
    /// class and from `failed` (which stays execution *errors*; faults
    /// are crashes, poison and timeouts).
    pub faulted: AtomicU64,
    /// Of `faulted`: frames the admission firewall rejected (NaN/Inf,
    /// empty or malformed payloads). Annotation, not an identity term.
    pub quarantined: AtomicU64,
    /// Of `faulted`: frames lost to a panic caught inside the backbone.
    pub panics: AtomicU64,
    /// Of `faulted`: frames cancelled by the per-stage watchdog.
    pub watchdog_cancels: AtomicU64,
}

impl Counters {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Every frame must be accounted exactly once: completed plus each
    /// drop class plus `failed` plus `faulted` equals generated — the
    /// six-class zero-silent-loss identity. Holds at pipeline shutdown
    /// (after the queues drain); the backpressure and chaos tests assert
    /// it.
    pub fn accounted(&self) -> bool {
        Counters::get(&self.completed)
            + Counters::get(&self.dropped_backpressure)
            + Counters::get(&self.dropped_deadline)
            + Counters::get(&self.failed)
            + Counters::get(&self.faulted)
            == Counters::get(&self.generated)
    }
}

/// Batched-execution statistics for the backbone stage: how many
/// invocations ran at each batch size and how much backbone busy time the
/// admitted frames cost in total — the inputs to the amortized per-frame
/// latency and batched-vs-serial throughput numbers in the run report.
#[derive(Debug, Default)]
pub struct BatchStats {
    /// Invocation count per batch size.
    sizes: Mutex<BTreeMap<usize, u64>>,
    /// Total backbone busy time across invocations, seconds.
    busy_s: Mutex<f64>,
}

impl BatchStats {
    /// An empty collector.
    pub fn new() -> Self {
        BatchStats::default()
    }

    /// Records one backbone invocation covering `size` frames that took
    /// `busy_s` seconds of wall time.
    pub fn record(&self, size: usize, busy_s: f64) {
        if size == 0 {
            return;
        }
        *self.sizes.lock().unwrap().entry(size).or_insert(0) += 1;
        *self.busy_s.lock().unwrap() += busy_s;
    }

    /// Invocation counts by batch size, ascending.
    pub fn histogram(&self) -> Vec<BatchBucket> {
        self.sizes
            .lock()
            .unwrap()
            .iter()
            .map(|(&size, &batches)| BatchBucket { size, batches })
            .collect()
    }

    /// Total backbone invocations.
    pub fn batches(&self) -> u64 {
        self.sizes.lock().unwrap().values().sum()
    }

    /// Total frames that went through the backbone.
    pub fn frames(&self) -> u64 {
        self.sizes
            .lock()
            .unwrap()
            .iter()
            .map(|(&size, &batches)| size as u64 * batches)
            .sum()
    }

    /// Mean frames per backbone invocation (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.frames() as f64 / batches as f64
    }

    /// Amortized backbone busy time per frame, seconds (0 when nothing
    /// ran). Under batching this drops below the serial per-invocation
    /// latency — the throughput win the report surfaces.
    pub fn amortized_backbone_s(&self) -> f64 {
        let frames = self.frames();
        if frames == 0 {
            return 0.0;
        }
        *self.busy_s.lock().unwrap() / frames as f64
    }
}

/// One row of the batch-size histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchBucket {
    /// Frames per invocation.
    pub size: usize,
    /// Invocations observed at this size.
    pub batches: u64,
}

impl ToJson for BatchBucket {
    fn to_json(&self) -> Value {
        json!({
            "size": self.size,
            "batches": self.batches,
        })
    }
}

/// Per-stage section of the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (`"preprocess"`, `"backbone"`, `"postprocess"`).
    pub name: String,
    /// Latency distribution of the stage body.
    pub latency: LatencySummary,
    /// High-water mark of the stage's input queue.
    pub queue_max_depth: usize,
    /// Capacity of the stage's input queue.
    pub queue_capacity: usize,
}

impl ToJson for StageReport {
    fn to_json(&self) -> Value {
        json!({
            "name": self.name,
            "latency": self.latency,
            "queue_max_depth": self.queue_max_depth,
            "queue_capacity": self.queue_capacity,
        })
    }
}

/// Per-variant section of the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantReport {
    /// Variant name (`"base"`, `"UPAQ (LCK)"`, …).
    pub name: String,
    /// Frames this variant processed.
    pub frames: u64,
    /// Modeled energy per frame on the configured device, joules.
    pub energy_per_frame_j: f64,
    /// Modeled device latency per frame, milliseconds.
    pub modeled_latency_ms: f64,
    /// Efficiency score `Es` that ordered the degrade ladder.
    pub efficiency_score: f64,
}

impl ToJson for VariantReport {
    fn to_json(&self) -> Value {
        json!({
            "name": self.name,
            "frames": self.frames,
            "energy_per_frame_j": self.energy_per_frame_j,
            "modeled_latency_ms": self.modeled_latency_ms,
            "efficiency_score": self.efficiency_score,
        })
    }
}

/// The complete streaming-run report serialized by `bin/stream`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Scenario label (`"nominal"`, `"overload"`, …).
    pub scenario: String,
    /// Admission-policy label: `"deterministic"`, `"reactive"`, or
    /// `"proactive"`.
    pub policy: String,
    /// Detector modality the run served (`"lidar"`, `"camera"`).
    pub detector: String,
    /// Wall-clock duration of the run, seconds.
    pub duration_s: f64,
    /// Frames emitted by the source.
    pub frames_generated: u64,
    /// Frames fully processed.
    pub frames_completed: u64,
    /// Frames evicted under backpressure.
    pub dropped_backpressure: u64,
    /// Frames refused by the deadline scheduler. Deliberate load shedding
    /// only — execution failures are reported separately in [`failed`][Self::failed].
    pub dropped_deadline: u64,
    /// Frames whose forward pass errored (or whose hand-off to postprocess
    /// was refused). Disjoint from every drop class.
    pub failed: u64,
    /// Frames removed by the supervision layer (quarantine, caught
    /// panic, watchdog cancel) — the sixth accounting class.
    pub faulted: u64,
    /// Of `faulted`: frames the admission firewall quarantined.
    pub quarantined: u64,
    /// Of `faulted`: frames lost to a panic caught in the backbone.
    pub panics_caught: u64,
    /// Of `faulted`: frames cancelled by the stage watchdog.
    pub watchdog_cancels: u64,
    /// Frames run on a degraded (cheaper) variant and delivered to
    /// postprocess.
    pub degraded: u64,
    /// Completed frames that missed the deadline anyway.
    pub deadline_misses: u64,
    /// Completed frames per wall-clock second.
    pub fps: f64,
    /// End-to-end latency (source arrival → detections ready).
    pub e2e_latency: LatencySummary,
    /// Largest batch the scheduler was allowed to admit this run.
    pub max_batch: usize,
    /// Backbone invocations by batch size.
    pub batch_histogram: Vec<BatchBucket>,
    /// Mean frames per backbone invocation.
    pub mean_batch_size: f64,
    /// Amortized backbone busy time per frame, milliseconds — the
    /// batching win relative to the per-invocation backbone latency.
    pub amortized_backbone_ms: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageReport>,
    /// Per-variant execution counts and modeled energy.
    pub variants: Vec<VariantReport>,
    /// Total modeled energy charged over the run, joules.
    pub total_energy_j: f64,
    /// Mean modeled energy per completed frame, joules.
    pub energy_per_frame_j: f64,
    /// Modeled energy saved against running every completed frame on the
    /// full model, joules (0 when nothing degraded).
    pub energy_saved_vs_base_j: f64,
    /// The same saving as a fraction of the always-base counterfactual.
    pub energy_saved_vs_base_frac: f64,
    /// Override-rule counters when the proactive policy was active.
    pub overrides: Option<crate::proactive::OverrideSnapshot>,
}

impl ToJson for RuntimeReport {
    fn to_json(&self) -> Value {
        json!({
            "scenario": self.scenario,
            "policy": self.policy,
            "detector": self.detector,
            "duration_s": self.duration_s,
            "frames_generated": self.frames_generated,
            "frames_completed": self.frames_completed,
            "dropped_backpressure": self.dropped_backpressure,
            "dropped_deadline": self.dropped_deadline,
            "failed": self.failed,
            "faulted": self.faulted,
            "quarantined": self.quarantined,
            "panics_caught": self.panics_caught,
            "watchdog_cancels": self.watchdog_cancels,
            "degraded": self.degraded,
            "deadline_misses": self.deadline_misses,
            "fps": self.fps,
            "e2e_latency": self.e2e_latency,
            "max_batch": self.max_batch,
            "batch_histogram": self.batch_histogram,
            "mean_batch_size": self.mean_batch_size,
            "amortized_backbone_ms": self.amortized_backbone_ms,
            "stages": self.stages,
            "variants": self.variants,
            "total_energy_j": self.total_energy_j,
            "energy_per_frame_j": self.energy_per_frame_j,
            "energy_saved_vs_base_j": self.energy_saved_vs_base_j,
            "energy_saved_vs_base_frac": self.energy_saved_vs_base_frac,
            "overrides": self.overrides,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_distribution() {
        let r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(i as f64);
        }
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean_s - 50.5).abs() < 1e-9);
        // Nearest-rank on an even count rounds up: index round(49.5) = 50.
        assert_eq!(s.p50_s, 51.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
    }

    #[test]
    fn empty_recorder_summary_is_zero() {
        let s = LatencyRecorder::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_s, 0.0);
    }

    #[test]
    fn counters_account_frames() {
        let c = Counters::default();
        for _ in 0..5 {
            Counters::bump(&c.generated);
        }
        Counters::bump(&c.completed);
        Counters::bump(&c.completed);
        Counters::bump(&c.dropped_backpressure);
        Counters::bump(&c.dropped_deadline);
        assert!(!c.accounted());
        Counters::bump(&c.completed);
        assert!(c.accounted());
    }

    #[test]
    fn faulted_is_an_identity_class_but_its_annotations_are_not() {
        let c = Counters::default();
        for _ in 0..3 {
            Counters::bump(&c.generated);
        }
        Counters::bump(&c.completed);
        Counters::bump(&c.completed);
        assert!(!c.accounted());
        // One frame quarantined at the firewall: faulted carries the
        // identity, quarantined only annotates the cause.
        Counters::bump(&c.faulted);
        Counters::bump(&c.quarantined);
        assert!(c.accounted());
        // Cause annotations alone never balance the identity.
        Counters::bump(&c.panics);
        Counters::bump(&c.watchdog_cancels);
        assert!(c.accounted());
    }

    #[test]
    fn report_serializes_with_expected_keys() {
        let report = RuntimeReport {
            scenario: "nominal".into(),
            policy: "proactive".into(),
            detector: "lidar".into(),
            duration_s: 1.0,
            frames_generated: 10,
            frames_completed: 9,
            dropped_backpressure: 1,
            dropped_deadline: 0,
            failed: 0,
            faulted: 0,
            quarantined: 0,
            panics_caught: 0,
            watchdog_cancels: 0,
            degraded: 2,
            deadline_misses: 0,
            fps: 9.0,
            e2e_latency: LatencySummary::default(),
            max_batch: 4,
            batch_histogram: vec![BatchBucket {
                size: 2,
                batches: 3,
            }],
            mean_batch_size: 2.0,
            amortized_backbone_ms: 10.0,
            stages: vec![StageReport {
                name: "backbone".into(),
                latency: LatencySummary::default(),
                queue_max_depth: 3,
                queue_capacity: 4,
            }],
            variants: vec![VariantReport {
                name: "base".into(),
                frames: 7,
                energy_per_frame_j: 0.5,
                modeled_latency_ms: 20.0,
                efficiency_score: 1.0,
            }],
            total_energy_j: 3.5,
            energy_per_frame_j: 0.5,
            energy_saved_vs_base_j: 1.5,
            energy_saved_vs_base_frac: 0.3,
            overrides: Some(crate::proactive::OverrideSnapshot {
                vru_floor: 2,
                deadline_clamp: 1,
                headroom_fallback: 0,
                vru_unfit: 0,
            }),
        };
        let v = report.to_json();
        assert_eq!(v.get("fps").and_then(|x| x.as_f64()), Some(9.0));
        let stages = v.get("stages").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(
            stages[0].get("name").and_then(|n| n.as_str()),
            Some("backbone")
        );
        let text = v.pretty();
        assert!(text.contains("p99_ms"));
        assert!(text.contains("efficiency_score"));
        // Failures and deadline drops are separate keys, never folded.
        assert_eq!(v.get("failed").and_then(|x| x.as_f64()), Some(0.0));
        assert_eq!(
            v.get("dropped_deadline").and_then(|x| x.as_f64()),
            Some(0.0)
        );
        assert_eq!(v.get("detector").and_then(|x| x.as_str()), Some("lidar"));
        // Supervision keys the CI chaos-smoke job consumes.
        assert_eq!(v.get("faulted").and_then(|x| x.as_f64()), Some(0.0));
        assert!(text.contains("quarantined"));
        assert!(text.contains("panics_caught"));
        assert!(text.contains("watchdog_cancels"));
        // Batch reporting keys the CI batch-accounting job consumes.
        assert_eq!(v.get("max_batch").and_then(|x| x.as_f64()), Some(4.0));
        let hist = v.get("batch_histogram").and_then(|h| h.as_arr()).unwrap();
        assert_eq!(hist[0].get("size").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(hist[0].get("batches").and_then(|x| x.as_f64()), Some(3.0));
        assert!(text.contains("mean_batch_size"));
        assert!(text.contains("amortized_backbone_ms"));
        // Proactive-policy keys the scenario-matrix CI job consumes.
        assert_eq!(v.get("policy").and_then(|x| x.as_str()), Some("proactive"));
        assert!(text.contains("energy_saved_vs_base_j"));
        assert!(text.contains("energy_saved_vs_base_frac"));
        let ov = v.get("overrides").unwrap();
        assert_eq!(ov.get("vru_floor").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(ov.get("vru_unfit").and_then(|x| x.as_f64()), Some(0.0));
    }

    #[test]
    fn batch_stats_aggregate_sizes_and_amortized_cost() {
        let b = BatchStats::new();
        assert_eq!(b.mean_batch_size(), 0.0);
        assert_eq!(b.amortized_backbone_s(), 0.0);
        // Two singles at 40 ms, one batch of 4 at 60 ms.
        b.record(1, 0.040);
        b.record(1, 0.040);
        b.record(4, 0.060);
        b.record(0, 9.9); // ignored
        assert_eq!(b.batches(), 3);
        assert_eq!(b.frames(), 6);
        assert!((b.mean_batch_size() - 2.0).abs() < 1e-12);
        // 140 ms over 6 frames ≈ 23.3 ms/frame, well under the serial 40 ms.
        assert!((b.amortized_backbone_s() - 0.140 / 6.0).abs() < 1e-12);
        let hist = b.histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(
            hist[0],
            BatchBucket {
                size: 1,
                batches: 2
            }
        );
        assert_eq!(
            hist[1],
            BatchBucket {
                size: 4,
                batches: 1
            }
        );
    }
}
