//! The staged streaming pipeline.
//!
//! Four stages over bounded queues:
//!
//! ```text
//! source ─q_pre→ preprocess ─q_bb→ backbone ×N ─q_post→ postprocess
//! ```
//!
//! * **source** paces frames out of a [`FrameStream`] and applies
//!   drop-oldest backpressure when the pipeline cannot keep up;
//! * **preprocess** turns the sensor sample into the network input tensor
//!   (pillarization for LiDAR, the rendered image for the camera path —
//!   variant-independent either way);
//! * **backbone** workers drain up to `max_batch` queued frames per tick
//!   and consult the [`DeadlineScheduler`] for the whole group — run it as
//!   one batched forward pass at a shared ladder level when the predicted
//!   batched latency fits the group's earliest deadline, else fall back to
//!   per-frame admission through [`forward_into`] with a per-worker
//!   reusable [`Workspace`], or drop the head frame;
//! * **postprocess** decodes the head output (refinement + NMS for LiDAR,
//!   camera-head lifting for SMOKE), charges modeled energy and records
//!   end-to-end latency.
//!
//! The engine is generic over [`StreamingDetector`], so the same code
//! serves the PointPillars/LiDAR and SMOKE/camera paths; only the
//! detector's `preprocess`/`postprocess` and its `Input` type differ.
//!
//! In `deterministic` mode every queue becomes lossless (blocking push),
//! the scheduler is bypassed (always level 0), and the source is unpaced:
//! the run then produces detections bit-identical to calling the
//! detector's batch `detect` on the same frames, which the determinism
//! integration tests assert for both modalities.

use crate::metrics::{
    BatchStats, Counters, LatencyRecorder, RuntimeReport, StageReport, VariantReport,
};
use crate::proactive::{ProactiveConfig, ProactivePolicy};
use crate::queue::{BoundedQueue, PushOutcome};
use crate::scheduler::{DeadlineScheduler, GroupAdmission, SchedulerConfig};
use crate::variant::{VariantLadder, VariantSpec};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use upaq_det3d::{Box3d, FrameComplexity};
use upaq_hwmodel::EnergyMeter;
use upaq_kitti::faults::FaultPlan;
use upaq_kitti::stream::{Frame, FrameStream, SensorData};
use upaq_models::StreamingDetector;
use upaq_nn::exec::{forward_batch_into, forward_into, Workspace};
use upaq_tensor::Tensor;

/// Streaming-run configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Frames to draw from the source before shutting down.
    pub frames: u64,
    /// Capacity of every inter-stage queue.
    pub queue_capacity: usize,
    /// Backbone worker threads.
    pub backbone_workers: usize,
    /// Deadline-scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Source pacing: seconds between frames (0 = emit as fast as the
    /// first queue accepts).
    pub source_interval_s: f64,
    /// Patterned source pacing: when non-empty, the source cycles these
    /// inter-frame gaps (seconds) instead of the scalar interval — how
    /// the scenario catalog's burst and alternating arrival patterns
    /// drive the pipeline.
    pub source_intervals: Vec<f64>,
    /// Extra latency injected into every backbone execution — the overload
    /// tests use this to force degradation and drops. Charged once per
    /// *invocation*, so batching genuinely amortizes it.
    pub slow_backbone_s: f64,
    /// Largest frame group a backbone worker may admit as one batched
    /// forward pass (1 = per-frame scheduling, the historical behaviour).
    pub max_batch: usize,
    /// Postprocess worker threads (1 = the historical single decoder).
    /// Decode itself also borrows the tensor worker pool for its candidate
    /// scan, so this mainly buys overlap between frames' NMS phases.
    pub postprocess_workers: usize,
    /// Lossless mode: blocking queues, no pacing, no scheduler — every
    /// frame runs the full model. Detections become bit-identical to
    /// batch `detect` calls.
    pub deterministic: bool,
    /// Proactive complexity-aware admission layered over the reactive
    /// scheduler ([`crate::proactive`]). `None` keeps the historical
    /// purely-reactive policy; ignored in deterministic mode, which
    /// bypasses admission entirely.
    pub proactive: Option<ProactiveConfig>,
    /// Deterministic fault-injection plan driven by the source stage
    /// ([`upaq_kitti::faults`]): payload corruption and stalls at the
    /// source, panics and latency spikes inside the backbone. `None`
    /// injects nothing.
    pub faults: Option<FaultPlan>,
    /// Supervision layer: admission firewall, backbone panic isolation
    /// and the stage watchdog. `Some(default)` by default — clean frames
    /// pass through bit-identical, so supervision costs nothing when no
    /// faults occur. `None` restores the unsupervised runtime, where a
    /// worker panic aborts the run with a [`PipelineError`].
    pub supervision: Option<SupervisionConfig>,
    /// Label copied into the report.
    pub scenario: String,
}

/// Knobs of the pipeline's supervision layer.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Input sanitization firewall at admission: frames whose payload
    /// reports a [`upaq_kitti::faults::FrameDefect`] (NaN/Inf values,
    /// empty or malformed frames) are quarantined into the `faulted`
    /// class before preprocessing. Pure pass-through for clean frames.
    pub firewall: bool,
    /// `catch_unwind` isolation around the backbone forward: a panic
    /// costs its frame(s), the worker respawns its workspace and keeps
    /// serving. Disabled, a panic unwinds the worker and the run
    /// surfaces a typed [`PipelineError`].
    pub isolate_panics: bool,
    /// Per-stage watchdog deadline, seconds: a backbone invocation whose
    /// wall time exceeds this is cancelled — its frames are charged to
    /// `faulted` instead of being handed on stale. `None` disables.
    pub watchdog_stage_s: Option<f64>,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            firewall: true,
            isolate_panics: true,
            watchdog_stage_s: None,
        }
    }
}

/// A failure that aborted a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A stage worker panicked and the panic was not (or could not be)
    /// isolated — the run's outputs are unusable.
    StagePanicked {
        /// Stage the panicking worker belonged to.
        stage: &'static str,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::StagePanicked { stage, message } => {
                write!(f, "pipeline {stage} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            frames: 64,
            queue_capacity: 4,
            backbone_workers: 2,
            scheduler: SchedulerConfig::default(),
            source_interval_s: 0.0,
            source_intervals: Vec::new(),
            slow_backbone_s: 0.0,
            max_batch: 1,
            postprocess_workers: 1,
            deterministic: false,
            proactive: None,
            faults: None,
            supervision: Some(SupervisionConfig::default()),
            scenario: "nominal".into(),
        }
    }
}

/// Everything a finished run produced.
pub struct StreamOutcome {
    /// Metrics report (the JSON artifact of `bin/stream`).
    pub report: RuntimeReport,
    /// Final detections of every completed frame, sorted by frame id.
    pub detections: Vec<(u64, Vec<Box3d>)>,
}

struct PreJob<T> {
    frame: Frame<T>,
    arrived: Instant,
}

struct BackboneJob<T> {
    frame: Frame<T>,
    input: Tensor,
    features: FrameComplexity,
    arrived: Instant,
}

struct PostJob<T> {
    frame: Frame<T>,
    level: usize,
    head_out: Tensor,
    arrived: Instant,
}

/// The streaming engine: a variant ladder plus run configuration.
pub struct Pipeline<D> {
    ladder: VariantLadder<D>,
    config: PipelineConfig,
}

impl<D: StreamingDetector> Pipeline<D>
where
    D::Input: SensorData,
{
    /// A pipeline over a prebuilt degrade ladder.
    pub fn new(ladder: VariantLadder<D>, config: PipelineConfig) -> Self {
        Pipeline { ladder, config }
    }

    /// The degrade ladder in use.
    pub fn ladder(&self) -> &VariantLadder<D> {
        &self.ladder
    }

    /// The configuration in force.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the stream to completion and returns the report + detections.
    ///
    /// # Errors
    ///
    /// [`PipelineError::StagePanicked`] when a stage worker's panic was
    /// not isolated by the supervision layer — the joins recover the
    /// panic payload instead of double-panicking, and no report is
    /// produced because frames may have vanished unaccounted.
    pub fn run(&self, stream: FrameStream<D::Input>) -> Result<StreamOutcome, PipelineError> {
        let cfg = &self.config;
        let ladder = &self.ladder;
        let deterministic = cfg.deterministic;
        let faults = cfg.faults.as_ref();
        let firewall_on = cfg.supervision.as_ref().is_some_and(|s| s.firewall);
        let isolate = cfg.supervision.as_ref().is_some_and(|s| s.isolate_panics);
        let watchdog_s = cfg.supervision.as_ref().and_then(|s| s.watchdog_stage_s);
        let modality = ladder.level(0).detector.modality();

        let q_pre: BoundedQueue<PreJob<D::Input>> = BoundedQueue::new(cfg.queue_capacity);
        let q_bb: BoundedQueue<BackboneJob<D::Input>> = BoundedQueue::new(cfg.queue_capacity);
        let q_post: BoundedQueue<PostJob<D::Input>> = BoundedQueue::new(cfg.queue_capacity);

        let counters = Counters::default();
        let pre_timer = LatencyRecorder::new();
        let bb_timer = LatencyRecorder::new();
        let batch_stats = BatchStats::new();
        let post_timer = LatencyRecorder::new();
        let e2e_timer = LatencyRecorder::new();
        let scheduler = DeadlineScheduler::new(ladder, cfg.scheduler);
        // Deterministic mode bypasses admission entirely, so the proactive
        // layer would never be consulted — don't pretend it was.
        let policy = if deterministic {
            None
        } else {
            cfg.proactive.clone().map(ProactivePolicy::new)
        };
        let policy = policy.as_ref();
        let meter = Mutex::new(
            EnergyMeter::for_modality(modality).with_reference(ladder.level(0).estimate.energy_j),
        );
        let results: Mutex<Vec<(u64, Vec<Box3d>)>> = Mutex::new(Vec::new());

        let started = Instant::now();
        let mut stage_errors: Vec<PipelineError> = Vec::new();
        std::thread::scope(|s| {
            // Source: pace frames in, drop-oldest when the pipeline lags.
            let source = {
                let (q_pre, counters) = (&q_pre, &counters);
                let mut stream = stream;
                let (frames, interval_s) = (cfg.frames, cfg.source_interval_s);
                let intervals = cfg.source_intervals.clone();
                s.spawn(move || {
                    let _close = CloseOnUnwind(q_pre);
                    for (i, mut frame) in stream.by_ref().take(frames as usize).enumerate() {
                        Counters::bump(&counters.generated);
                        // Fault injection happens at the sensor boundary:
                        // payload corruption poisons the sample, stalls
                        // stretch the arrival gap.
                        let mut stall_s = 0.0;
                        if let Some(plan) = faults {
                            let ff = plan.frame(frame.id);
                            if let Some(payload) = &ff.payload {
                                frame.data.corrupt(payload, plan.salt(frame.id));
                            }
                            stall_s = ff.stall_s;
                        }
                        let job = PreJob {
                            frame,
                            arrived: Instant::now(),
                        };
                        push_stage(q_pre, job, deterministic, counters);
                        let gap_s = if intervals.is_empty() {
                            interval_s
                        } else {
                            intervals[i % intervals.len()]
                        } + stall_s;
                        if gap_s > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(gap_s));
                        }
                    }
                    q_pre.close();
                })
            };

            // Preprocess: sensor sample → input tensor. Variant-independent,
            // so level 0's detector serves every frame.
            let pre = {
                let (q_pre, q_bb, counters) = (&q_pre, &q_bb, &counters);
                let (base, pre_timer) = (&ladder.level(0).detector, &pre_timer);
                s.spawn(move || {
                    let _close = CloseOnUnwind(q_bb);
                    while let Some(job) = q_pre.pop() {
                        // Sanitization firewall: a detectably-poisoned
                        // payload is quarantined before it can reach the
                        // numeric stages. Clean frames pass through
                        // untouched — `defect()` never modifies the data,
                        // so supervised and unsupervised runs stay
                        // bit-identical on them.
                        if firewall_on && job.frame.data.defect().is_some() {
                            Counters::bump(&counters.faulted);
                            Counters::bump(&counters.quarantined);
                            continue;
                        }
                        let t0 = Instant::now();
                        let input = base.preprocess(&job.frame.data);
                        // Complexity features ride the tensor the stage
                        // just built — free signal for proactive admission.
                        let features = if policy.is_some() {
                            base.complexity(&job.frame.data, &input)
                        } else {
                            FrameComplexity::default()
                        };
                        pre_timer.record(t0.elapsed().as_secs_f64());
                        let next = BackboneJob {
                            frame: job.frame,
                            input,
                            features,
                            arrived: job.arrived,
                        };
                        push_stage(q_bb, next, deterministic, counters);
                    }
                    q_bb.close();
                })
            };

            // Backbone pool: drain up to `max_batch` queued frames per
            // tick, ask the scheduler for a group verdict, and run either
            // one batched forward pass or the per-frame fallback.
            let max_batch = cfg.max_batch.max(1);
            let workers: Vec<_> = (0..cfg.backbone_workers.max(1))
                .map(|_| {
                    let (q_bb, q_post, counters) = (&q_bb, &q_post, &counters);
                    let (scheduler, bb_timer, batch_stats) = (&scheduler, &bb_timer, &batch_stats);
                    let slow_s = cfg.slow_backbone_s;
                    s.spawn(move || {
                        let _close_up = CloseOnUnwind(q_bb);
                        let _close_down = CloseOnUnwind(q_post);
                        let mut ws = Workspace::new();
                        let mut wss: Vec<Workspace> = Vec::new();
                        while let Some(first) = q_bb.pop() {
                            let mut group = VecDeque::with_capacity(max_batch);
                            group.push_back(first);
                            while group.len() < max_batch {
                                match q_bb.try_pop() {
                                    Some(job) => group.push_back(job),
                                    None => break,
                                }
                            }
                            // Re-offer the group until it empties: a batch
                            // takes all of it at once; the fallbacks peel
                            // off the head frame and the remainder is
                            // offered again as a smaller group — this is
                            // how mixed-deadline groups split.
                            while !group.is_empty() {
                                let ages: Vec<f64> = group
                                    .iter()
                                    .map(|j| j.arrived.elapsed().as_secs_f64())
                                    .collect();
                                let admission = if deterministic {
                                    if group.len() > 1 {
                                        GroupAdmission::Batch { level: 0 }
                                    } else {
                                        GroupAdmission::Single { level: 0 }
                                    }
                                } else if let Some(policy) = policy {
                                    let deadline_s = scheduler.config().deadline_s;
                                    let budgets: Vec<f64> =
                                        ages.iter().map(|a| deadline_s - a).collect();
                                    let feats: Vec<FrameComplexity> =
                                        group.iter().map(|j| j.features).collect();
                                    policy.admit_group_budgets(scheduler, &feats, &budgets)
                                } else {
                                    scheduler.admit_group(&ages)
                                };
                                match admission {
                                    GroupAdmission::Drop => {
                                        group.pop_front();
                                        Counters::bump(&counters.dropped_deadline);
                                    }
                                    GroupAdmission::Single { level } => {
                                        let job = group.pop_front().expect("group is non-empty");
                                        let ff = faults
                                            .map(|p| p.frame(job.frame.id))
                                            .unwrap_or_default();
                                        let variant = ladder.level(level);
                                        let t0 = Instant::now();
                                        let mut inputs = HashMap::new();
                                        inputs.insert(
                                            variant.detector.input_name().to_string(),
                                            job.input,
                                        );
                                        let fwd = guarded(isolate, || {
                                            if ff.panic {
                                                panic!(
                                                    "injected backbone fault (frame {})",
                                                    job.frame.id
                                                );
                                            }
                                            forward_into(variant.detector.model(), &inputs, &mut ws)
                                        });
                                        let fwd = match fwd {
                                            Err(_panic) => {
                                                // Worker respawn: the caught
                                                // panic may have left the
                                                // workspace mid-mutation, so
                                                // replace it wholesale. The
                                                // panic costs this frame only.
                                                ws = Workspace::new();
                                                Counters::bump(&counters.faulted);
                                                Counters::bump(&counters.panics);
                                                continue;
                                            }
                                            Ok(result) => result,
                                        };
                                        if fwd.is_err() {
                                            Counters::bump(&counters.failed);
                                            continue;
                                        }
                                        let head_out = ws.activations()[&variant.head].clone();
                                        let extra_s = slow_s + ff.spike_s;
                                        if extra_s > 0.0 {
                                            std::thread::sleep(Duration::from_secs_f64(extra_s));
                                        }
                                        let dt = t0.elapsed().as_secs_f64();
                                        bb_timer.record(dt);
                                        batch_stats.record(1, dt);
                                        if !deterministic {
                                            scheduler.observe(level, dt);
                                        }
                                        // Watchdog: a stuck invocation is
                                        // cancelled, never handed on stale.
                                        // The scheduler above still observed
                                        // the true latency, so it adapts.
                                        if watchdog_s.is_some_and(|limit| dt > limit) {
                                            Counters::bump(&counters.faulted);
                                            Counters::bump(&counters.watchdog_cancels);
                                            continue;
                                        }
                                        let next = PostJob {
                                            frame: job.frame,
                                            level,
                                            head_out,
                                            arrived: job.arrived,
                                        };
                                        hand_to_post(q_post, next, counters);
                                    }
                                    GroupAdmission::Batch { level } => {
                                        let jobs: Vec<_> = group.drain(..).collect();
                                        let k = jobs.len();
                                        let dt = run_batch(
                                            ladder.level(level),
                                            level,
                                            jobs,
                                            &mut wss,
                                            slow_s,
                                            q_post,
                                            counters,
                                            Supervised {
                                                faults,
                                                isolate,
                                                watchdog_s,
                                            },
                                        );
                                        if let Some(dt) = dt {
                                            bb_timer.record(dt);
                                            batch_stats.record(k, dt);
                                            if !deterministic {
                                                scheduler.observe_batch(level, k, dt);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();

            // Postprocess workers: decode, then bookkeeping. Every shared
            // sink (timers, meter, results, counters) is lock-protected or
            // atomic, and detections are sorted by frame id afterwards, so
            // worker count never changes the outcome — only the overlap
            // between frames' decode/NMS phases.
            let post_workers: Vec<_> = (0..cfg.postprocess_workers.max(1))
                .map(|_| {
                    let (q_post, counters, scheduler) = (&q_post, &counters, &scheduler);
                    let (post_timer, e2e_timer) = (&post_timer, &e2e_timer);
                    let (meter, results) = (&meter, &results);
                    let deadline_s = cfg.scheduler.deadline_s;
                    s.spawn(move || {
                        while let Some(job) = q_post.pop() {
                            let variant = ladder.level(job.level);
                            let t0 = Instant::now();
                            let dets = variant.detector.postprocess(&job.head_out, &job.frame.data);
                            let dt = t0.elapsed().as_secs_f64();
                            post_timer.record(dt);
                            if let Some(policy) = policy {
                                // Close the proactive loop: recent box
                                // counts drive the next frames' complexity
                                // score and the VRU override.
                                policy.observe_detections(&dets);
                            }
                            if !deterministic {
                                // Close the admission loop: future budgets
                                // cover the frame's remaining work past the
                                // backbone.
                                scheduler.observe_post(dt);
                            }
                            let e2e = job.arrived.elapsed().as_secs_f64();
                            e2e_timer.record(e2e);
                            if !deterministic && e2e > deadline_s {
                                Counters::bump(&counters.deadline_misses);
                            }
                            meter
                                .lock()
                                .unwrap_or_else(|poison| poison.into_inner())
                                .record(&variant.name, variant.estimate.energy_j);
                            Counters::bump(&counters.completed);
                            results
                                .lock()
                                .unwrap_or_else(|poison| poison.into_inner())
                                .push((job.frame.id, dets));
                        }
                    })
                })
                .collect();

            // Poison-recovering teardown: a worker panic is collected as
            // a typed error instead of double-panicking the join, and the
            // remaining stages are still drained and joined so no thread
            // leaks out of the scope.
            join_stage(source, "source", &mut stage_errors);
            join_stage(pre, "preprocess", &mut stage_errors);
            for w in workers {
                join_stage(w, "backbone", &mut stage_errors);
            }
            // All producers of q_post are done; let the post stage drain.
            q_post.close();
            for w in post_workers {
                join_stage(w, "postprocess", &mut stage_errors);
            }
        });
        let duration_s = started.elapsed().as_secs_f64();
        if let Some(err) = stage_errors.into_iter().next() {
            // An unisolated panic means frames vanished unaccounted — no
            // report can honestly be produced.
            return Err(err);
        }

        let meter = meter
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        let mut detections = results
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        detections.sort_by_key(|(id, _)| *id);

        let completed = Counters::get(&counters.completed);
        let stages = vec![
            stage_report("preprocess", &pre_timer, &q_pre),
            stage_report("backbone", &bb_timer, &q_bb),
            stage_report("postprocess", &post_timer, &q_post),
        ];
        let variants = ladder
            .levels()
            .iter()
            .map(|spec| {
                let charged = meter
                    .variants()
                    .find(|(name, _)| *name == spec.name)
                    .map(|(_, e)| *e)
                    .unwrap_or_default();
                VariantReport {
                    name: spec.name.clone(),
                    frames: charged.frames,
                    energy_per_frame_j: spec.estimate.energy_j,
                    modeled_latency_ms: spec.estimate.latency_s * 1e3,
                    efficiency_score: spec.efficiency_score,
                }
            })
            .collect();

        let report = RuntimeReport {
            scenario: cfg.scenario.clone(),
            policy: if deterministic {
                "deterministic".into()
            } else if policy.is_some() {
                "proactive".into()
            } else {
                "reactive".into()
            },
            detector: modality.to_string(),
            duration_s,
            frames_generated: Counters::get(&counters.generated),
            frames_completed: completed,
            dropped_backpressure: Counters::get(&counters.dropped_backpressure),
            dropped_deadline: Counters::get(&counters.dropped_deadline),
            failed: Counters::get(&counters.failed),
            faulted: Counters::get(&counters.faulted),
            quarantined: Counters::get(&counters.quarantined),
            panics_caught: Counters::get(&counters.panics),
            watchdog_cancels: Counters::get(&counters.watchdog_cancels),
            degraded: Counters::get(&counters.degraded),
            deadline_misses: Counters::get(&counters.deadline_misses),
            fps: if duration_s > 0.0 {
                completed as f64 / duration_s
            } else {
                0.0
            },
            e2e_latency: e2e_timer.summary(),
            max_batch: cfg.max_batch.max(1),
            batch_histogram: batch_stats.histogram(),
            mean_batch_size: batch_stats.mean_batch_size(),
            amortized_backbone_ms: batch_stats.amortized_backbone_s() * 1e3,
            stages,
            variants,
            total_energy_j: meter.total_energy_j(),
            energy_per_frame_j: meter.mean_energy_j(),
            energy_saved_vs_base_j: meter.saved_j(),
            energy_saved_vs_base_frac: meter.savings_frac(),
            overrides: policy.map(|p| p.overrides()),
        };
        debug_assert!(counters.accounted(), "pipeline lost track of a frame");
        Ok(StreamOutcome { report, detections })
    }
}

/// Runs `f`, optionally isolating panics. `Err` carries the stringified
/// panic payload; callers then charge the affected frames to `faulted`
/// and respawn whatever state the panic may have poisoned.
fn guarded<R>(isolate: bool, f: impl FnOnce() -> R) -> Result<R, String> {
    if !isolate {
        return Ok(f());
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| panic_message(payload.as_ref()))
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Joins a stage worker, converting a panic into a typed error instead
/// of propagating it — the poison-recovering half of the teardown.
fn join_stage(
    handle: std::thread::ScopedJoinHandle<'_, ()>,
    stage: &'static str,
    errors: &mut Vec<PipelineError>,
) {
    if let Err(payload) = handle.join() {
        errors.push(PipelineError::StagePanicked {
            stage,
            message: panic_message(payload.as_ref()),
        });
    }
}

/// Closes the queue if the owning thread unwinds, so a panicking stage
/// releases its blocked neighbours (producers see `Closed`, consumers
/// drain and exit) instead of deadlocking the teardown joins. A no-op on
/// normal exit — every stage still closes its output explicitly.
struct CloseOnUnwind<'a, T>(&'a BoundedQueue<T>);

impl<T> Drop for CloseOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Supervision context threaded into [`run_batch`].
#[derive(Clone, Copy)]
struct Supervised<'a> {
    faults: Option<&'a FaultPlan>,
    isolate: bool,
    watchdog_s: Option<f64>,
}

/// Runs one batched forward pass over `jobs` at ladder `level` and hands
/// every member to postprocess. Returns the invocation wall time, or
/// `None` when the batched forward failed — in which case *all* member
/// frames are charged to `failed` exactly once, keeping
/// [`Counters::accounted`] exact even for multi-frame failures. A caught
/// panic or watchdog cancellation likewise charges every member, to
/// `faulted`: one invocation, one fate for the whole group.
#[allow(clippy::too_many_arguments)]
fn run_batch<D: StreamingDetector>(
    variant: &VariantSpec<D>,
    level: usize,
    jobs: Vec<BackboneJob<D::Input>>,
    wss: &mut Vec<Workspace>,
    slow_s: f64,
    q_post: &BoundedQueue<PostJob<D::Input>>,
    counters: &Counters,
    sup: Supervised<'_>,
) -> Option<f64> {
    let t0 = Instant::now();
    let k = jobs.len();
    // Resolve the batch's injected faults up front: one member's panic
    // fails the shared invocation; the worst member's spike stretches it.
    let (inject_panic, spike_s) = match sup.faults {
        Some(plan) => jobs.iter().fold((false, 0.0f64), |(p, s), job| {
            let ff = plan.frame(job.frame.id);
            (p || ff.panic, s.max(ff.spike_s))
        }),
        None => (false, 0.0),
    };
    let mut frames = Vec::with_capacity(k);
    let mut arrivals = Vec::with_capacity(k);
    let mut inputs = Vec::with_capacity(k);
    for job in jobs {
        frames.push(job.frame);
        arrivals.push(job.arrived);
        let mut map = HashMap::new();
        map.insert(variant.detector.input_name().to_string(), job.input);
        inputs.push(map);
    }
    let fwd = guarded(sup.isolate, || {
        if inject_panic {
            panic!("injected backbone fault (batch of {k})");
        }
        forward_batch_into(variant.detector.model(), &inputs, wss)
    });
    let fwd = match fwd {
        Err(_panic) => {
            // Respawn the batch workspaces and charge every member: the
            // panic cost this group, not the run.
            wss.clear();
            for _ in 0..k {
                Counters::bump(&counters.faulted);
                Counters::bump(&counters.panics);
            }
            return None;
        }
        Ok(result) => result,
    };
    if fwd.is_err() {
        // One failed invocation covers the whole group: every member frame
        // failed, none reached postprocess, none is degraded or dropped.
        for _ in 0..k {
            Counters::bump(&counters.failed);
        }
        return None;
    }
    let extra_s = slow_s + spike_s;
    if extra_s > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(extra_s));
    }
    let dt = t0.elapsed().as_secs_f64();
    if sup.watchdog_s.is_some_and(|limit| dt > limit) {
        // Stuck invocation: cancel the whole group instead of handing on
        // stale outputs. The caller still records the true wall time.
        for _ in 0..k {
            Counters::bump(&counters.faulted);
            Counters::bump(&counters.watchdog_cancels);
        }
        return Some(dt);
    }
    for ((frame, arrived), ws) in frames.into_iter().zip(arrivals).zip(wss.iter()) {
        let head_out = ws.activations()[&variant.head].clone();
        let next = PostJob {
            frame,
            level,
            head_out,
            arrived,
        };
        hand_to_post(q_post, next, counters);
    }
    Some(dt)
}

/// Hands a finished backbone job to postprocess. Only a frame that
/// actually reaches postprocess counts as `degraded`; if the post queue
/// was closed early the frame is charged to `failed` instead of silently
/// vanishing, keeping `Counters::accounted()` exact.
fn hand_to_post<T>(q_post: &BoundedQueue<PostJob<T>>, job: PostJob<T>, counters: &Counters) {
    let level = job.level;
    match q_post.push_wait(job) {
        Ok(()) => {
            if level > 0 {
                Counters::bump(&counters.degraded);
            }
        }
        Err(_) => Counters::bump(&counters.failed),
    }
}

/// Pushes a job into a stage queue under the run's loss policy: blocking
/// (lossless) in deterministic mode, drop-oldest otherwise.
fn push_stage<T>(queue: &BoundedQueue<T>, job: T, deterministic: bool, counters: &Counters) {
    if deterministic {
        // Err only after close, which each producer controls; a lost push
        // here would be a pipeline bug, so surface it in accounting.
        if queue.push_wait(job).is_err() {
            Counters::bump(&counters.dropped_backpressure);
        }
        return;
    }
    match queue.push_or_drop_oldest(job) {
        PushOutcome::Accepted => {}
        PushOutcome::DroppedOldest(_) | PushOutcome::Full(_) | PushOutcome::Closed(_) => {
            Counters::bump(&counters.dropped_backpressure);
        }
    }
}

fn stage_report<T>(name: &str, timer: &LatencyRecorder, queue: &BoundedQueue<T>) -> StageReport {
    StageReport {
        name: name.into(),
        latency: timer.summary(),
        queue_max_depth: queue.max_depth(),
        queue_capacity: queue.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_hwmodel::DeviceProfile;
    use upaq_kitti::dataset::DatasetConfig;
    use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
    use upaq_models::LidarDetector;

    const UNSUPERVISED: Supervised<'static> = Supervised {
        faults: None,
        isolate: false,
        watchdog_s: None,
    };

    fn ladder() -> VariantLadder<LidarDetector> {
        let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
        VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 5).unwrap()
    }

    fn pipeline(config: PipelineConfig) -> Pipeline<LidarDetector> {
        Pipeline::new(ladder(), config)
    }

    fn stream() -> FrameStream {
        let mut cfg = DatasetConfig::small();
        cfg.scenes = 2;
        FrameStream::generate(&cfg, 21)
    }

    #[test]
    fn deterministic_run_completes_every_frame_in_order() {
        let p = pipeline(PipelineConfig {
            frames: 6,
            deterministic: true,
            backbone_workers: 2,
            scenario: "deterministic".into(),
            ..PipelineConfig::default()
        });
        let outcome = p.run(stream()).expect("supervised run never aborts");
        let r = &outcome.report;
        assert_eq!(r.detector, "lidar");
        assert_eq!(r.frames_generated, 6);
        assert_eq!(r.frames_completed, 6);
        assert_eq!(r.dropped_backpressure, 0);
        assert_eq!(r.dropped_deadline, 0);
        assert_eq!(r.failed, 0);
        assert_eq!(r.degraded, 0);
        let ids: Vec<u64> = outcome.detections.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        // Frames cycling the same scene must decode identical boxes.
        assert_eq!(outcome.detections[0].1, outcome.detections[2].1);
    }

    #[test]
    fn overload_degrades_or_drops_but_accounts_every_frame() {
        let p = pipeline(PipelineConfig {
            frames: 12,
            queue_capacity: 2,
            backbone_workers: 1,
            // Fast source against a backbone slowed well past the deadline.
            source_interval_s: 0.001,
            slow_backbone_s: 0.040,
            scheduler: SchedulerConfig {
                deadline_s: 0.030,
                ..SchedulerConfig::default()
            },
            scenario: "overload".into(),
            ..PipelineConfig::default()
        });
        let outcome = p.run(stream()).expect("supervised run never aborts");
        let r = &outcome.report;
        assert_eq!(r.frames_generated, 12);
        assert_eq!(
            r.frames_completed + r.dropped_backpressure + r.dropped_deadline + r.failed,
            r.frames_generated
        );
        // A healthy forward path never fails — drops must not be misfiled.
        assert_eq!(r.failed, 0);
        // Overload must show up as shed load, not unbounded queues.
        assert!(r.dropped_backpressure + r.dropped_deadline + r.degraded > 0);
        for stage in &r.stages {
            assert!(stage.queue_max_depth <= stage.queue_capacity);
        }
        assert_eq!(outcome.detections.len(), r.frames_completed as usize);
    }

    /// Regression for the degraded/failed double-count: a ladder whose
    /// degraded rungs cannot execute (their input node is renamed, so
    /// `forward_into` errors) must report those frames as `failed` only —
    /// never `degraded`, never folded into `dropped_deadline`.
    #[test]
    fn failing_forward_keeps_degraded_failed_and_dropped_disjoint() {
        let good = ladder();
        let mut levels = good.levels().to_vec();
        // Price the base rung far beyond any reachable deadline so the
        // scheduler always degrades, and rename the degraded rungs' input
        // so their forward pass errors out.
        levels[0].estimate.latency_s = 1e3;
        for spec in &mut levels[1..] {
            let mut det = (*spec.detector).clone();
            det.input_name = "no-such-input".into();
            spec.detector = std::sync::Arc::new(det);
        }
        let sabotaged = VariantLadder::from_levels(levels).unwrap();
        let p = Pipeline::new(
            sabotaged,
            PipelineConfig {
                frames: 6,
                backbone_workers: 1,
                // Generous real-time deadline: every frame is admitted, and
                // every admission degrades onto a rung whose forward fails.
                scheduler: SchedulerConfig {
                    deadline_s: 10.0,
                    ema_alpha: 0.0,
                    headroom: 1.0,
                },
                scenario: "failing-forward".into(),
                ..PipelineConfig::default()
            },
        );
        let outcome = p.run(stream()).expect("supervised run never aborts");
        let r = &outcome.report;
        assert_eq!(r.frames_generated, 6);
        assert!(r.failed > 0, "sabotaged rungs must surface as failures");
        // Disjoint classes: a failed frame is neither degraded (it never
        // reached postprocess) nor a deadline drop.
        assert_eq!(r.degraded, 0);
        assert_eq!(r.frames_completed, 0);
        assert_eq!(
            r.frames_completed + r.dropped_backpressure + r.dropped_deadline + r.failed,
            r.frames_generated,
            "failure accounting went non-exact"
        );
    }

    /// Regression for the silent `let _ = q_post.push_wait(...)` loss: a
    /// frame that cannot be handed to postprocess is charged to `failed`,
    /// and never to `degraded`.
    #[test]
    fn closed_post_queue_charges_frame_to_failed() {
        let counters = Counters::default();
        Counters::bump(&counters.generated);
        let q: BoundedQueue<PostJob<upaq_kitti::lidar::PointCloud>> = BoundedQueue::new(1);
        q.close();
        let frame = stream().next().unwrap();
        let job = PostJob {
            frame,
            level: 2,
            head_out: Tensor::zeros(upaq_tensor::Shape::nchw(1, 1, 1, 1)),
            arrived: Instant::now(),
        };
        hand_to_post(&q, job, &counters);
        assert_eq!(Counters::get(&counters.failed), 1);
        assert_eq!(Counters::get(&counters.degraded), 0);
        assert!(counters.accounted(), "lost frame broke exact accounting");
    }

    /// Accounting identity under batched execution: a poisoned frame
    /// (wrong input shape) inside a batch fails the *whole* batched
    /// forward, and every member frame must be charged to `failed`
    /// exactly once — no frame reaches postprocess, none is double
    /// counted, and `Counters::accounted()` stays exact.
    #[test]
    fn poisoned_frame_in_batch_charges_every_member_to_failed_once() {
        let good = ladder();
        let variant = &good.levels()[0];
        let counters = Counters::default();
        let q_post: BoundedQueue<PostJob<upaq_kitti::lidar::PointCloud>> = BoundedQueue::new(8);
        let mut wss = Vec::new();

        let mut src = stream();
        let frames: Vec<_> = src.by_ref().take(3).collect();
        let mut jobs: Vec<BackboneJob<upaq_kitti::lidar::PointCloud>> = frames
            .into_iter()
            .map(|frame| {
                Counters::bump(&counters.generated);
                let input = variant.detector.preprocess(&frame.data);
                BackboneJob {
                    frame,
                    input,
                    features: FrameComplexity::default(),
                    arrived: Instant::now(),
                }
            })
            .collect();
        // Poison the middle frame: a 1×1×1×1 tensor cannot feed the
        // pillar backbone, so the batched forward pass errors out.
        jobs[1].input = Tensor::zeros(upaq_tensor::Shape::nchw(1, 1, 1, 1));

        let dt = run_batch(
            variant,
            0,
            jobs,
            &mut wss,
            0.0,
            &q_post,
            &counters,
            UNSUPERVISED,
        );
        assert!(dt.is_none(), "poisoned batch must report failure");
        assert_eq!(Counters::get(&counters.failed), 3);
        assert_eq!(Counters::get(&counters.degraded), 0);
        assert_eq!(q_post.len(), 0, "no poisoned-batch member may reach post");
        assert!(counters.accounted(), "batched failure broke accounting");
    }

    /// A healthy batch hands every member to postprocess and reports its
    /// wall time; degraded bookkeeping matches the per-frame path.
    #[test]
    fn healthy_batch_delivers_every_member() {
        let good = ladder();
        let variant = &good.levels()[1];
        let counters = Counters::default();
        let q_post: BoundedQueue<PostJob<upaq_kitti::lidar::PointCloud>> = BoundedQueue::new(8);
        let mut wss = Vec::new();

        let mut src = stream();
        let jobs: Vec<_> = src
            .by_ref()
            .take(3)
            .map(|frame| {
                Counters::bump(&counters.generated);
                let input = variant.detector.preprocess(&frame.data);
                BackboneJob {
                    frame,
                    input,
                    features: FrameComplexity::default(),
                    arrived: Instant::now(),
                }
            })
            .collect();

        let dt = run_batch(
            variant,
            1,
            jobs,
            &mut wss,
            0.0,
            &q_post,
            &counters,
            UNSUPERVISED,
        );
        assert!(dt.is_some());
        assert_eq!(q_post.len(), 3);
        assert_eq!(Counters::get(&counters.degraded), 3);
        assert_eq!(Counters::get(&counters.failed), 0);
    }

    /// A batched deterministic run completes every frame, and the report's
    /// batch histogram shows multi-frame groups actually formed.
    #[test]
    fn deterministic_batched_run_completes_and_reports_batches() {
        let p = pipeline(PipelineConfig {
            frames: 8,
            deterministic: true,
            backbone_workers: 1,
            max_batch: 4,
            scenario: "deterministic-batched".into(),
            ..PipelineConfig::default()
        });
        let outcome = p.run(stream()).expect("supervised run never aborts");
        let r = &outcome.report;
        assert_eq!(r.frames_generated, 8);
        assert_eq!(r.frames_completed, 8);
        assert_eq!(r.failed + r.dropped_backpressure + r.dropped_deadline, 0);
        assert_eq!(r.max_batch, 4);
        let batched_frames: u64 = r
            .batch_histogram
            .iter()
            .map(|b| b.size as u64 * b.batches)
            .sum();
        assert_eq!(batched_frames, 8, "histogram must cover every frame");
        assert!(r.mean_batch_size >= 1.0);
        let ids: Vec<u64> = outcome.detections.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// The firewall quarantines exactly the frames the fault plan
    /// poisoned with detectable payloads, and the six-class identity
    /// balances with `faulted` carrying them.
    #[test]
    fn firewall_quarantines_poisoned_frames() {
        let plan = upaq_kitti::faults::by_name("nan-burst").unwrap();
        let scheduled = plan.payload_frames(8).len() as u64;
        assert!(scheduled > 0, "plan must hit at least one of 8 frames");
        let p = pipeline(PipelineConfig {
            frames: 8,
            deterministic: true,
            faults: Some(plan),
            scenario: "chaos-nan".into(),
            ..PipelineConfig::default()
        });
        let outcome = p.run(stream()).expect("quarantine must not abort the run");
        let r = &outcome.report;
        assert_eq!(r.faulted, scheduled);
        assert_eq!(r.quarantined, scheduled);
        assert_eq!(r.panics_caught, 0);
        assert_eq!(r.frames_completed, 8 - scheduled);
        assert_eq!(
            r.frames_completed + r.dropped_backpressure + r.dropped_deadline + r.failed + r.faulted,
            r.frames_generated
        );
    }

    /// A panic inside the backbone costs exactly the scheduled frames;
    /// the worker respawns its workspace and keeps serving the rest.
    #[test]
    fn caught_panic_costs_one_frame_not_the_run() {
        let plan = upaq_kitti::faults::by_name("panic-storm").unwrap();
        let scheduled = plan.panic_frames(8).len() as u64;
        assert!(scheduled > 0);
        let p = pipeline(PipelineConfig {
            frames: 8,
            deterministic: true,
            backbone_workers: 1,
            faults: Some(plan),
            scenario: "chaos-panic".into(),
            ..PipelineConfig::default()
        });
        let outcome = p.run(stream()).expect("isolated panics must not abort");
        let r = &outcome.report;
        assert_eq!(r.faulted, scheduled);
        assert_eq!(r.panics_caught, scheduled);
        assert_eq!(r.quarantined, 0);
        assert_eq!(r.frames_completed, 8 - scheduled);
        assert_eq!(outcome.detections.len(), r.frames_completed as usize);
    }

    /// With supervision disabled, the same panic storm unwinds a worker —
    /// and the teardown surfaces it as a typed error instead of a double
    /// panic, with every stage still joined.
    #[test]
    fn unsupervised_worker_panic_surfaces_as_typed_error() {
        let plan = upaq_kitti::faults::by_name("panic-storm").unwrap();
        let p = pipeline(PipelineConfig {
            frames: 6,
            deterministic: true,
            backbone_workers: 1,
            faults: Some(plan),
            supervision: None,
            scenario: "chaos-unsupervised".into(),
            ..PipelineConfig::default()
        });
        match p.run(stream()) {
            Err(PipelineError::StagePanicked { stage, message }) => {
                assert_eq!(stage, "backbone");
                assert!(
                    message.contains("injected backbone fault"),
                    "panic payload lost: {message}"
                );
            }
            Ok(_) => panic!("unsupervised panic must abort the run"),
        }
    }

    /// The watchdog cancels invocations that exceed the stage deadline:
    /// frames land in `faulted`, never stale in postprocess.
    #[test]
    fn watchdog_cancels_stuck_frames() {
        let p = pipeline(PipelineConfig {
            frames: 4,
            backbone_workers: 1,
            slow_backbone_s: 0.020,
            supervision: Some(SupervisionConfig {
                watchdog_stage_s: Some(0.005),
                ..SupervisionConfig::default()
            }),
            // Generous admission deadline: every frame reaches the
            // backbone, where the watchdog (not the scheduler) kills it.
            scheduler: SchedulerConfig {
                deadline_s: 10.0,
                ema_alpha: 0.0,
                headroom: 1.0,
            },
            scenario: "chaos-watchdog".into(),
            ..PipelineConfig::default()
        });
        let outcome = p.run(stream()).expect("watchdog cancels, never aborts");
        let r = &outcome.report;
        assert!(r.watchdog_cancels > 0, "watchdog never fired");
        assert_eq!(r.faulted, r.watchdog_cancels);
        assert_eq!(
            r.frames_completed + r.dropped_backpressure + r.dropped_deadline + r.failed + r.faulted,
            r.frames_generated
        );
    }

    /// The happy-path counterpart: a delivered degraded frame counts as
    /// degraded exactly once, after the hand-off.
    #[test]
    fn delivered_degraded_frame_counts_once() {
        let counters = Counters::default();
        let q: BoundedQueue<PostJob<upaq_kitti::lidar::PointCloud>> = BoundedQueue::new(1);
        let frame = stream().next().unwrap();
        let job = PostJob {
            frame,
            level: 1,
            head_out: Tensor::zeros(upaq_tensor::Shape::nchw(1, 1, 1, 1)),
            arrived: Instant::now(),
        };
        hand_to_post(&q, job, &counters);
        assert_eq!(Counters::get(&counters.degraded), 1);
        assert_eq!(Counters::get(&counters.failed), 0);
        assert_eq!(q.len(), 1);
    }
}
