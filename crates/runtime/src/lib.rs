//! `upaq-runtime` — a streaming inference runtime with deadline-aware
//! scheduling and backpressure.
//!
//! Pulls endless seeded frames from `upaq-kitti` through a staged
//! pipeline (preprocess → backbone forward → head decode) over a fixed
//! worker pool with bounded channels. The engine is generic over
//! `upaq_models::StreamingDetector`, so the same pipeline serves the
//! PointPillars/LiDAR path (pillarize → BEV head + refinement + NMS) and
//! the SMOKE/camera path (rendered image → camera-head lifting). A
//! deadline scheduler decides per frame whether to run the full model,
//! degrade to a cheaper UPAQ-compressed variant (picked by the paper's
//! efficiency score), or drop the frame; the hardware model acts as the
//! cost oracle for both the schedule and the modeled energy report.
//!
//! Module map:
//!
//! * [`queue`] — bounded MPMC queues with blocking and drop-oldest push;
//! * [`variant`] — the degrade ladder (base → UPAQ LCK → UPAQ HCK);
//! * [`scheduler`] — deadline-aware admission over the ladder;
//! * [`proactive`] — complexity-aware rung prediction with VRU-safety
//!   and deadline-headroom overrides layered over the scheduler;
//! * [`pipeline`] — the staged engine and its run loop;
//! * [`metrics`] — timers, counters and the JSON run report.

pub mod metrics;
pub mod pipeline;
pub mod proactive;
pub mod queue;
pub mod scheduler;
pub mod variant;

pub use metrics::{
    BatchBucket, BatchStats, Counters, LatencyRecorder, LatencySummary, RuntimeReport, StageReport,
};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError, StreamOutcome, SupervisionConfig};
pub use proactive::{OverrideCounters, OverrideSnapshot, ProactiveConfig, ProactivePolicy};
pub use queue::{BoundedQueue, PushOutcome};
pub use scheduler::{Admission, DeadlineScheduler, GroupAdmission, SchedulerConfig};
pub use variant::{VariantLadder, VariantSpec};
