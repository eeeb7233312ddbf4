//! Postprocess bit-identity across the degrade ladder, thread counts and
//! pipeline worker counts.
//!
//! The decode rewrite (logit-domain prefilter + pooled candidate scan +
//! bucketed NMS) is gated the same way the conv kernels are: every rung of
//! both detector ladders must produce raw-bits-identical candidates to the
//! serial sigmoid-domain oracle at every thread count, and a deterministic
//! pipeline run must not change a single bit when postprocess fans out
//! over multiple workers. The empty-scene gate is pinned here too: a
//! zero-point sweep encodes as the all-zero BEV and detects nothing.

use std::collections::HashMap;
use upaq_det3d::{
    decode_camera_candidates, decode_camera_candidates_reference, decode_candidates,
    decode_candidates_reference, Box3d,
};
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::DatasetConfig;
use upaq_kitti::lidar::PointCloud;
use upaq_kitti::stream::{CameraFrameStream, FrameStream};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::{CameraDetector, LidarDetector, StreamingDetector};
use upaq_nn::exec::{forward_into, Workspace};
use upaq_runtime::{Pipeline, PipelineConfig, SupervisionConfig, VariantLadder};
use upaq_tensor::ops::TensorParallel;

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// Raw-bits view of a box: any arithmetic difference, however small,
/// changes some lane.
fn box_bits(b: &Box3d) -> [u32; 9] {
    [
        b.score.to_bits(),
        b.yaw.to_bits(),
        b.center[0].to_bits(),
        b.center[1].to_bits(),
        b.center[2].to_bits(),
        b.dims[0].to_bits(),
        b.dims[1].to_bits(),
        b.dims[2].to_bits(),
        b.class.index() as u32,
    ]
}

fn bits(boxes: &[Box3d]) -> Vec<[u32; 9]> {
    boxes.iter().map(box_bits).collect()
}

fn lidar_ladder() -> VariantLadder<LidarDetector> {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 41).unwrap()
}

fn lidar_stream() -> FrameStream {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    FrameStream::generate(&cfg, 41)
}

fn camera_setup() -> (VariantLadder<CameraDetector>, CameraFrameStream) {
    let smoke_cfg = SmokeConfig::tiny();
    let det = Smoke::build(&smoke_cfg).unwrap();
    let ladder = VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 42).unwrap();
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    cfg.camera = smoke_cfg.calib.clone();
    (ladder, CameraFrameStream::generate(&cfg, 42))
}

#[test]
fn lidar_decode_bit_identical_across_rungs_and_threads() {
    let ladder = lidar_ladder();
    let frames: Vec<_> = lidar_stream().take(2).collect();
    for (level, rung) in ladder.levels().iter().enumerate() {
        let det = &rung.detector;
        for (fi, frame) in frames.iter().enumerate() {
            let head = det.head_output(&frame.data).unwrap();
            // The oracle is a plain serial loop — thread settings cannot
            // touch it.
            let want = bits(&decode_candidates_reference(&head, &det.head_spec));
            for threads in [1, 2, test_threads()] {
                TensorParallel::set_threads(threads);
                let got = bits(&decode_candidates(&head, &det.head_spec));
                assert_eq!(
                    got, want,
                    "lidar rung {level} frame {fi} diverged at {threads} threads"
                );
            }
            TensorParallel::set_threads(1);
        }
    }
}

#[test]
fn camera_decode_bit_identical_across_rungs_and_threads() {
    let (ladder, mut stream) = camera_setup();
    let frames: Vec<_> = stream.by_ref().take(2).collect();
    for (level, rung) in ladder.levels().iter().enumerate() {
        let det = &rung.detector;
        for (fi, frame) in frames.iter().enumerate() {
            let head = det.head_output(&frame.data).unwrap();
            let want = bits(&decode_camera_candidates_reference(&head, &det.head_spec));
            for threads in [1, 2, test_threads()] {
                TensorParallel::set_threads(threads);
                let got = bits(&decode_camera_candidates(&head, &det.head_spec));
                assert_eq!(
                    got, want,
                    "camera rung {level} frame {fi} diverged at {threads} threads"
                );
            }
            TensorParallel::set_threads(1);
        }
    }
}

/// A deterministic run's detections must not change one bit when the
/// postprocess stage fans out over multiple workers (and those workers
/// race each other into the tensor pool's single-submitter guard).
#[test]
fn multi_worker_postprocess_matches_single_worker_bitwise() {
    TensorParallel::set_threads(test_threads());
    let run = |workers: usize| {
        let p = Pipeline::new(
            lidar_ladder(),
            PipelineConfig {
                frames: 6,
                deterministic: true,
                backbone_workers: 2,
                postprocess_workers: workers,
                scenario: format!("post-workers-{workers}"),
                ..PipelineConfig::default()
            },
        );
        p.run(lidar_stream()).expect("pipeline run")
    };
    let baseline = run(1);
    assert_eq!(baseline.report.frames_completed, 6);
    for workers in [2, 4] {
        let outcome = run(workers);
        assert_eq!(outcome.report.frames_completed, 6);
        assert_eq!(outcome.detections.len(), baseline.detections.len());
        for ((id_a, a), (id_b, b)) in baseline.detections.iter().zip(&outcome.detections) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                bits(a),
                bits(b),
                "frame {id_a} diverged with {workers} postprocess workers"
            );
        }
    }
    TensorParallel::set_threads(1);
}

/// A stream whose every scene produces zero LiDAR points.
fn empty_stream() -> FrameStream {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 1;
    cfg.scene.cars = (0, 0);
    cfg.scene.pedestrians = (0, 0);
    cfg.scene.cyclists = (0, 0);
    cfg.lidar.ground_points = 0;
    cfg.lidar.clutter_points = 0;
    FrameStream::generate(&cfg, 7)
}

/// Empty-scene regression: zero points must encode as a well-formed
/// all-zero BEV, run through the backbone, and produce empty detections.
#[test]
fn empty_scene_flows_through_the_backbone() {
    let ladder = lidar_ladder();
    let det = &ladder.level(0).detector;
    let empty = PointCloud::from_points(Vec::new());
    assert_eq!(empty.len(), 0);

    let input = det.preprocess(&empty);
    assert!(
        input.as_slice().iter().all(|v| v.to_bits() == 0),
        "empty scene must encode as the all-zero BEV"
    );

    let mut inputs = HashMap::new();
    inputs.insert(det.input_name().to_string(), input);
    let mut ws = Workspace::new();
    forward_into(det.model(), &inputs, &mut ws).unwrap();
    let head = &ws.activations()[&ladder.level(0).head];
    assert!(
        det.postprocess(head, &empty).is_empty(),
        "an empty scene must detect nothing"
    );
}

/// Empty-scene frames inside a full pipeline run complete without
/// panicking and detect nothing.
#[test]
fn empty_scene_pipeline_run_never_panics() {
    // The empty dataset really produces zero-point clouds.
    let probe = empty_stream().next().unwrap();
    assert_eq!(probe.data.len(), 0, "empty scenario must have no points");
    let p = Pipeline::new(
        lidar_ladder(),
        PipelineConfig {
            frames: 2,
            deterministic: true,
            // The admission firewall deliberately quarantines empty
            // frames as defective; disable it so the zero-point scene
            // actually reaches the numeric stages this test covers.
            supervision: Some(SupervisionConfig {
                firewall: false,
                ..SupervisionConfig::default()
            }),
            scenario: "empty-scene".into(),
            ..PipelineConfig::default()
        },
    );
    let outcome = p
        .run(empty_stream())
        .expect("empty scenes must not abort the run");
    assert_eq!(outcome.report.frames_completed, 2);
    for (_, dets) in &outcome.detections {
        assert!(dets.is_empty(), "an empty scene must detect nothing");
    }
}
