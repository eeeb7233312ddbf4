//! Set-up, warm-up and the timed engine runs of the three workloads, with
//! the correctness gate every delivered frame passes through.
//!
//! Every workload serves the tiny PointPillars LiDAR ladder (base / LCK /
//! HCK) built by `VariantLadder::build` from a fixed seed: the ladder is the
//! system under test, so it must not change with the workload seed. The
//! workload seed only generates the frames.

use crate::host::median;
use crate::{Metric, Workload};
use std::time::{Duration, Instant};
use upaq_det3d::Box3d;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::{
    Dataset, DatasetConfig, FleetScenario, FleetScenarioConfig, FrameStream, PointCloud,
};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::LidarDetector;
use upaq_runtime::{Pipeline, PipelineConfig, SchedulerConfig, VariantLadder};
use upaq_serve::{FleetConfig, FleetMode, FleetReport, FleetServer};
use upaq_tensor::ops::TensorParallel;

pub type Ladder = VariantLadder<LidarDetector>;

/// Short rung names, in ladder order.
pub const RUNGS: [&str; 3] = ["base", "lck", "hck"];

const LADDER_SEED: u64 = 0x0DA7_E025;

/// Set-up is repeated this many times per run and reported as the median.
const SETUP_REPS: usize = 15;

/// A p99 needs at least ten samples beyond it.
pub const MIN_LATENCY_SAMPLES: u64 = 1000;

// saturate-ladder: 8 streams × 128 frames = 1024 frames per slice, so a
// slice's p99 has ten samples beyond it.
const SAT_STREAMS: usize = 8;
const SAT_FRAMES: u64 = 128;
const SAT_WORKERS: usize = 2;
// fleet-realtime: the three default classes over 12 streams offer
// 4 × (30 + 10 + 5) = 180 frames/s until the 30 Hz streams end.
const RT_STREAMS: usize = 12;
const RT_MIN_FRAMES: u64 = 48;
const RT_SLOWEST_HZ: f64 = 5.0;
// single-stream-burst: 4 frames 4 ms apart, then a 60 ms gap.
const BURST_GAPS_S: [f64; 4] = [0.004, 0.004, 0.004, 0.060];
const BURST_DEADLINE_S: f64 = 0.060;
const MAX_BATCH: usize = 4;

impl Workload {
    /// Tensor threads the workload sets for its kernels.
    pub fn tensor_threads(self) -> usize {
        match self {
            Workload::SingleStreamBurst => 2,
            _ => 1,
        }
    }

    /// Engine workers: fleet workers or pipeline backbone workers.
    pub fn engine_workers(self) -> usize {
        match self {
            Workload::SaturateLadder => SAT_WORKERS,
            _ => 1,
        }
    }
}

/// The distinct sensor inputs a workload's engine is handed. Frames cycle
/// over each stream's scenes, so a delivered frame is identified by
/// `(stream, frame id)` → `clouds[stream * scenes + id % scenes]`.
pub struct Inputs {
    pub clouds: Vec<PointCloud>,
    scenes: usize,
    /// The fleet workloads' stream population.
    scenario: Option<FleetScenario>,
    /// The burst workload's scene set, streamed by `Pipeline::run`.
    dataset: Option<Dataset>,
    /// Frames the burst source emits.
    burst_frames: u64,
}

impl Inputs {
    fn generate(workload: Workload, seed: u64, seconds: f64) -> Self {
        match workload {
            Workload::SaturateLadder | Workload::FleetRealtime => {
                let (streams, frames_per_stream) = if workload == Workload::SaturateLadder {
                    (SAT_STREAMS, SAT_FRAMES)
                } else {
                    // The 5 Hz streams span the whole run.
                    let frames = (seconds * RT_SLOWEST_HZ).ceil() as u64;
                    (RT_STREAMS, frames.max(RT_MIN_FRAMES))
                };
                let scenario = FleetScenario::build(
                    FleetScenarioConfig {
                        streams,
                        frames_per_stream,
                        ..FleetScenarioConfig::default()
                    },
                    seed,
                );
                let scenes = scenario.config().dataset.scenes;
                let clouds = scenario
                    .profiles()
                    .iter()
                    .flat_map(|p| {
                        let stream = scenario.stream::<PointCloud>(p.id);
                        (0..scenes as u64).map(move |k| stream.frame(k).data)
                    })
                    .collect();
                Inputs {
                    clouds,
                    scenes,
                    scenario: Some(scenario),
                    dataset: None,
                    burst_frames: 0,
                }
            }
            Workload::SingleStreamBurst => {
                let dataset = Dataset::generate(&DatasetConfig::small(), seed);
                let clouds = (0..dataset.len()).map(|i| dataset.lidar(i)).collect();
                let period_s: f64 = BURST_GAPS_S.iter().sum();
                let bursts = (seconds / period_s).ceil() as u64;
                Inputs {
                    clouds,
                    scenes: dataset.len(),
                    scenario: None,
                    dataset: Some(dataset),
                    burst_frames: bursts.max(1) * BURST_GAPS_S.len() as u64,
                }
            }
        }
    }

    fn index(&self, stream: usize, frame_id: u64) -> usize {
        stream * self.scenes + (frame_id % self.scenes as u64) as usize
    }
}

/// The ladder and inputs of one run, with the time it took to make them.
pub struct Setup {
    pub ladder: Ladder,
    pub inputs: Inputs,
    /// Median of the repeated set-ups: ladder build plus frame generation.
    pub setup_s: f64,
    pub ladder_s: f64,
    pub frames_s: f64,
}

fn build_ladder() -> Ladder {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).expect("tiny PointPillars builds");
    VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), LADDER_SEED)
        .expect("the tiny PointPillars ladder builds")
}

pub fn setup(workload: Workload, seed: u64, seconds: f64) -> Setup {
    let mut ladder_s = Vec::with_capacity(SETUP_REPS);
    let mut frames_s = Vec::with_capacity(SETUP_REPS);
    let mut total_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ladder = build_ladder();
        let t_ladder = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let inputs = Inputs::generate(workload, seed, seconds);
        let t_frames = t.elapsed().as_secs_f64();
        ladder_s.push(t_ladder);
        frames_s.push(t_frames);
        total_s.push(t_ladder + t_frames);
        last = Some((ladder, inputs));
    }
    let (ladder, inputs) = last.expect("at least one set-up");
    Setup {
        ladder,
        inputs,
        setup_s: median(&mut total_s),
        ladder_s: median(&mut ladder_s),
        frames_s: median(&mut frames_s),
    }
}

fn saturate_config(level: usize, workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        max_batch: MAX_BATCH,
        // A ready queue of one group per worker makes admission block on
        // the workers: a closed loop with a bounded number of frames out.
        ready_capacity: workers * MAX_BATCH,
        mode: FleetMode::Saturate,
        force_level: Some(level),
        collect_detections: true,
        ..FleetConfig::default()
    }
}

fn realtime_config() -> FleetConfig {
    FleetConfig {
        workers: 1,
        max_batch: MAX_BATCH,
        mode: FleetMode::Realtime,
        collect_detections: true,
        ..FleetConfig::default()
    }
}

fn burst_config(frames: u64) -> PipelineConfig {
    PipelineConfig {
        frames,
        backbone_workers: 1,
        max_batch: MAX_BATCH,
        postprocess_workers: 1,
        deterministic: false,
        source_intervals: BURST_GAPS_S.to_vec(),
        scheduler: SchedulerConfig {
            deadline_s: BURST_DEADLINE_S,
            ..SchedulerConfig::default()
        },
        scenario: "single-stream-burst".into(),
        ..PipelineConfig::default()
    }
}

/// Untimed-for-results warm-up: every rung's `detect`, then a short engine
/// run of the workload's own configuration at every rung, so the thread
/// pool, allocator and code are warm before the clock starts. Engines
/// create their workspaces inside `run()`, so each timed run still warms
/// its own workspaces on its first frames. Returns the seconds it took.
pub fn warm_up(workload: Workload, setup: &Setup) -> f64 {
    let t = Instant::now();
    for level in setup.ladder.levels() {
        level
            .detector
            .detect(&setup.inputs.clouds[0])
            .expect("warm-up detect");
    }
    match workload {
        Workload::SaturateLadder | Workload::FleetRealtime => {
            let scenario = FleetScenario::build(
                FleetScenarioConfig {
                    streams: 2,
                    frames_per_stream: 8,
                    ..FleetScenarioConfig::default()
                },
                0,
            );
            for level in 0..setup.ladder.len() {
                let server = FleetServer::new(
                    setup.ladder.clone(),
                    scenario.clone(),
                    saturate_config(level, workload.engine_workers()),
                );
                server.run();
            }
        }
        Workload::SingleStreamBurst => {
            let dataset = setup.inputs.dataset.clone().expect("burst inputs");
            let config = PipelineConfig {
                source_intervals: Vec::new(),
                ..burst_config(16)
            };
            Pipeline::new(setup.ladder.clone(), config)
                .run(FrameStream::from_dataset(dataset))
                .expect("warm-up pipeline run");
        }
    }
    t.elapsed().as_secs_f64()
}

/// Serial `detect` outputs of every input at every rung: the oracle every
/// delivered frame is checked against.
fn references(ladder: &Ladder, inputs: &Inputs) -> Vec<[Vec<Box3d>; 3]> {
    inputs
        .clouds
        .iter()
        .map(|cloud| {
            [0, 1, 2].map(|level| {
                ladder
                    .level(level)
                    .detector
                    .detect(cloud)
                    .expect("reference detect")
            })
        })
        .collect()
}

/// Raw-bits equality of two detection lists.
fn same_boxes(a: &[Box3d], b: &[Box3d]) -> bool {
    let bits = |d: &Box3d| {
        let mut v = vec![d.class.index() as u32, d.yaw.to_bits(), d.score.to_bits()];
        v.extend(d.center.iter().chain(&d.dims).map(|x| x.to_bits()));
        v
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Which rungs' references a delivered frame may equal.
enum Expect {
    Rung(usize),
    AnyRung,
}

/// Counts delivered frames that match no allowed reference.
fn mismatches<'a>(
    refs: &[[Vec<Box3d>; 3]],
    inputs: &Inputs,
    delivered: impl Iterator<Item = (usize, u64, &'a [Box3d])>,
    expect: Expect,
) -> u64 {
    let mut bad = 0;
    for (stream, id, boxes) in delivered {
        let refs = &refs[inputs.index(stream, id)];
        let ok = match expect {
            Expect::Rung(level) => same_boxes(boxes, &refs[level]),
            Expect::AnyRung => refs.iter().any(|r| same_boxes(boxes, r)),
        };
        if !ok {
            bad += 1;
        }
    }
    bad
}

/// The engine run's serve-layer numbers, reported by the traced run.
#[derive(Default)]
pub struct EngineStats {
    pub mean_batch_size: f64,
    /// Delivered frames that shared a batch with another stream's frames.
    pub cross_stream_batch_frac: f64,
    /// Starvation boosts per admitted frame.
    pub boosts_per_frame: f64,
    /// The engine's measured backbone time per frame (amortized over the
    /// rung mix and batch sizes it ran) × frames ÷ (workers × seconds in
    /// `run()`).
    pub worker_busy_frac: f64,
}

/// The result of one workload's timed engine run.
pub struct Measured {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// Frames that failed, faulted, went undelivered where the engine is
    /// lossless, or matched no reference.
    pub failed: u64,
    /// Broken accounting identities and other gate failures.
    pub problems: Vec<String>,
    pub latency_samples: u64,
    pub stats: EngineStats,
}

/// Runs the workload's engine for `seconds` and gates every output.
pub fn measure(workload: Workload, setup: &Setup, seconds: f64) -> Measured {
    TensorParallel::set_threads(workload.tensor_threads());
    match workload {
        Workload::SaturateLadder => saturate_ladder(setup, seconds),
        Workload::FleetRealtime => fleet_realtime(setup),
        Workload::SingleStreamBurst => single_stream_burst(setup),
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn fps_metrics(fps: [f64; 3]) -> Vec<Metric> {
    RUNGS
        .iter()
        .zip(fps)
        .map(|(rung, v)| metric(&format!("fps_{rung}"), v, "1/s"))
        .collect()
}

/// Open-loop `fps_<rung>`: frames delivered at that rung's quality or
/// better per wall second of `run()`. The arrival schedule fixes how many
/// frames arrive, so this is goodput by quality; an exact-rung rate would
/// read 0 for a rung the scheduler never picked.
fn goodput(rung_frames: [u64; 3], run_s: f64) -> [f64; 3] {
    let mut at_or_above = 0;
    rung_frames.map(|frames| {
        at_or_above += frames;
        at_or_above as f64 / run_s
    })
}

/// Latency of one timed `FleetServer::run` slice at the base rung.
struct Slice {
    p50_ms: f64,
    p99_ms: f64,
    samples: u64,
}

fn saturate_ladder(setup: &Setup, seconds: f64) -> Measured {
    let inputs = &setup.inputs;
    let scenario = inputs.scenario.as_ref().expect("fleet inputs");
    let refs = references(&setup.ladder, inputs);
    let servers: Vec<_> = (0..RUNGS.len())
        .map(|level| {
            FleetServer::new(
                setup.ladder.clone(),
                scenario.clone(),
                saturate_config(level, SAT_WORKERS),
            )
        })
        .collect();
    let mut base_slices = Vec::new();
    let mut rung_s = [0.0; 3];
    let (mut attempted, mut failed, mut delivered_total) = (0, 0, 0);
    let mut problems = Vec::new();
    let mut rung_frames = [0; 3];
    let (mut batches, mut batched_frames, mut cross, mut boosts) = (0u64, 0.0, 0u64, 0u64);
    let mut backbone_ms = 0.0;
    let mut fairness = f64::INFINITY;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    // Rungs alternate in short slices (base, lck, hck, base, …) so host
    // drift lands on all three alike; rounds are never cut short.
    loop {
        for (level, server) in servers.iter().enumerate() {
            let t = Instant::now();
            let out = server.run();
            let dt = t.elapsed().as_secs_f64();
            let r = &out.report;
            let bad = mismatches(
                &refs,
                inputs,
                out.detections
                    .iter()
                    .map(|(s, id, b)| (*s, *id, b.as_slice())),
                Expect::Rung(level),
            );
            // Saturate is lossless: anything not delivered intact failed.
            let good = out.detections.len() as u64 - bad;
            attempted += r.admitted;
            failed += r.admitted - good.min(r.admitted);
            delivered_total += r.delivered();
            if !r.accounted() {
                problems.push(format!(
                    "saturate slice at {} broke the accounting identity",
                    RUNGS[level]
                ));
            }
            if out.detections.len() as u64 != r.delivered() {
                problems.push("collected detections disagree with the delivered count".into());
            }
            batches += r.batches;
            batched_frames += r.mean_batch_size * r.batches as f64;
            cross += r.cross_batched_frames;
            boosts += r.boosts;
            fairness = fairness.min(r.fairness_jain);
            backbone_ms += r.amortized_backbone_ms * r.delivered() as f64;
            rung_frames[level] += r.delivered();
            rung_s[level] += dt;
            if level == 0 {
                base_slices.push(Slice {
                    p50_ms: r.e2e_latency.p50_s * 1e3,
                    p99_ms: r.e2e_latency.p99_s * 1e3,
                    samples: r.e2e_latency.count,
                });
            }
        }
        if Instant::now() >= end {
            break;
        }
    }
    let stats = EngineStats {
        mean_batch_size: batched_frames / batches.max(1) as f64,
        cross_stream_batch_frac: cross as f64 / delivered_total.max(1) as f64,
        boosts_per_frame: boosts as f64 / attempted.max(1) as f64,
        worker_busy_frac: backbone_ms / (SAT_WORKERS as f64 * rung_s.iter().sum::<f64>() * 1e3),
    };

    // Host speed shifts between regimes lasting seconds. A mean over the
    // run's base slices follows the share of time spent in each; a median
    // of a handful of slices jumps between them.
    let mean =
        |f: fn(&Slice) -> f64| base_slices.iter().map(f).sum::<f64>() / base_slices.len() as f64;
    let fps = [0, 1, 2].map(|level| rung_frames[level] as f64 / rung_s[level]);
    let latency_samples = base_slices.iter().map(|s| s.samples).min().unwrap_or(0);
    let mut metrics = fps_metrics(fps);
    metrics.extend([
        // No deadline is enforced in saturate mode: a frame meets it by
        // being delivered.
        metric(
            "deadline_met_frac",
            delivered_total as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        metric("latency_p50_ms", mean(|s| s.p50_ms), "ms"),
        metric("latency_p99_ms", mean(|s| s.p99_ms), "ms"),
        metric(
            "base_rung_frac",
            rung_frames[0] as f64 / delivered_total.max(1) as f64,
            "fraction",
        ),
        metric("fairness_jain", fairness, "index"),
    ]);
    Measured {
        metrics,
        attempted,
        failed,
        problems,
        latency_samples,
        stats,
    }
}

fn fleet_realtime(setup: &Setup) -> Measured {
    let inputs = &setup.inputs;
    let scenario = inputs.scenario.as_ref().expect("fleet inputs");
    let server = FleetServer::new(setup.ladder.clone(), scenario.clone(), realtime_config());
    let t = Instant::now();
    let out = server.run();
    let run_s = t.elapsed().as_secs_f64();
    let r: &FleetReport = &out.report;
    let refs = references(&setup.ladder, inputs);
    let bad = mismatches(
        &refs,
        inputs,
        out.detections
            .iter()
            .map(|(s, id, b)| (*s, *id, b.as_slice())),
        Expect::AnyRung,
    );
    let mut problems = Vec::new();
    if !r.accounted() {
        problems.push("fleet run broke the accounting identity".into());
    }
    if out.detections.len() as u64 != r.delivered() {
        problems.push("collected detections disagree with the delivered count".into());
    }
    let delivered = r.delivered();
    let mut rung_frames = [0; 3];
    for rung in &r.rungs {
        rung_frames[rung.level] = rung.frames;
    }
    let stats = EngineStats {
        mean_batch_size: r.mean_batch_size,
        cross_stream_batch_frac: r.cross_batched_frames as f64 / delivered.max(1) as f64,
        boosts_per_frame: r.boosts as f64 / r.admitted.max(1) as f64,
        worker_busy_frac: r.amortized_backbone_ms * delivered as f64 / (run_s * 1e3),
    };
    let mut metrics = fps_metrics(goodput(rung_frames, run_s));
    metrics.extend([
        metric(
            "deadline_met_frac",
            delivered.saturating_sub(r.deadline_misses) as f64 / r.admitted.max(1) as f64,
            "fraction",
        ),
        metric("latency_p50_ms", r.e2e_latency.p50_s * 1e3, "ms"),
        metric("latency_p99_ms", r.e2e_latency.p99_s * 1e3, "ms"),
        metric(
            "base_rung_frac",
            r.completed as f64 / delivered.max(1) as f64,
            "fraction",
        ),
        metric("fairness_jain", r.fairness_jain, "index"),
    ]);
    Measured {
        metrics,
        attempted: r.admitted,
        failed: r.failed + r.faulted + bad,
        problems,
        latency_samples: r.e2e_latency.count,
        stats,
    }
}

fn single_stream_burst(setup: &Setup) -> Measured {
    let inputs = &setup.inputs;
    let dataset = inputs.dataset.clone().expect("burst inputs");
    let pipeline = Pipeline::new(setup.ladder.clone(), burst_config(inputs.burst_frames));
    let t = Instant::now();
    let result = pipeline.run(FrameStream::from_dataset(dataset));
    let run_s = t.elapsed().as_secs_f64();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            return Measured {
                metrics: Vec::new(),
                attempted: inputs.burst_frames,
                failed: inputs.burst_frames,
                problems: vec![format!("pipeline run failed: {e}")],
                latency_samples: 0,
                stats: EngineStats::default(),
            }
        }
    };
    let r = &out.report;
    let refs = references(&setup.ladder, inputs);
    let bad = mismatches(
        &refs,
        inputs,
        out.detections.iter().map(|(id, b)| (0, *id, b.as_slice())),
        Expect::AnyRung,
    );
    let mut problems = Vec::new();
    let accounted =
        r.frames_completed + r.dropped_backpressure + r.dropped_deadline + r.failed + r.faulted;
    if accounted != r.frames_generated {
        problems.push("pipeline run broke the accounting identity".into());
    }
    if out.detections.len() as u64 != r.frames_completed {
        problems.push("detections disagree with the completed count".into());
    }
    let mut rung_frames = [0; 3];
    for (level, spec) in setup.ladder.levels().iter().enumerate() {
        rung_frames[level] = r
            .variants
            .iter()
            .find(|v| v.name == spec.name)
            .map_or(0, |v| v.frames);
    }
    let share = r.frames_completed as f64 / r.frames_generated.max(1) as f64;
    let stats = EngineStats {
        mean_batch_size: r.mean_batch_size,
        worker_busy_frac: r.amortized_backbone_ms * r.frames_completed as f64 / (run_s * 1e3),
        ..EngineStats::default()
    };
    let mut metrics = fps_metrics(goodput(rung_frames, run_s));
    metrics.extend([
        metric(
            "deadline_met_frac",
            r.frames_completed.saturating_sub(r.deadline_misses) as f64
                / r.frames_generated.max(1) as f64,
            "fraction",
        ),
        metric("latency_p50_ms", r.e2e_latency.p50_s * 1e3, "ms"),
        metric("latency_p99_ms", r.e2e_latency.p99_s * 1e3, "ms"),
        metric(
            "base_rung_frac",
            r.frames_completed.saturating_sub(r.degraded) as f64 / r.frames_completed.max(1) as f64,
            "fraction",
        ),
        metric("fairness_jain", FleetReport::jain(&[share]), "index"),
    ]);
    Measured {
        metrics,
        attempted: r.frames_generated,
        failed: r.failed + r.faulted + bad,
        problems,
        latency_samples: r.e2e_latency.count,
        stats,
    }
}
