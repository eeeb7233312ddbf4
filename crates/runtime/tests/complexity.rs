//! Bit-stability regression tests for complexity-feature extraction.
//!
//! The proactive policy's rung choice is a pure function of
//! [`FrameComplexity`], so feature extraction must be raw-bits identical
//! however the tensor runtime happens to execute: any thread count, any
//! batch grouping of the surrounding frames. A single flipped mantissa
//! bit here could flip a rung decision and break run-to-run determinism,
//! which is exactly the regression this file pins (same naive-oracle
//! pattern as the det3d decode proptests: one reference sample, then
//! exhaustive re-extraction under every execution configuration).

use upaq_det3d::FrameComplexity;
use upaq_kitti::dataset::Dataset;
use upaq_kitti::scenario;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::StreamingDetector;
use upaq_tensor::ops::TensorParallel;

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// Raw-bits view: equality means not a single lane differs.
fn bits(f: &FrameComplexity) -> (u32, u32) {
    (f.points, f.occupancy.to_bits())
}

/// Extracts features for every frame, preprocessing in `chunk`-sized
/// groups the way a batched backbone admission would cover them.
fn extract<D: StreamingDetector>(det: &D, inputs: &[D::Input], chunk: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(inputs.len());
    for group in inputs.chunks(chunk) {
        for input in group {
            let pre = det.preprocess(input);
            out.push(bits(&det.complexity(input, &pre)));
        }
    }
    out
}

fn assert_stable<D: StreamingDetector>(det: &D, inputs: &[D::Input], label: &str) {
    TensorParallel::set_threads(1);
    let reference = extract(det, inputs, 1);
    assert_eq!(reference.len(), inputs.len());

    for &threads in &[1, 2, test_threads()] {
        TensorParallel::set_threads(threads);
        for &chunk in &[1usize, 2, 4] {
            let got = extract(det, inputs, chunk);
            assert_eq!(
                got, reference,
                "{label}: features diverged at t{threads} chunk {chunk}"
            );
        }
    }
    TensorParallel::set_threads(test_threads());
}

#[test]
fn lidar_features_are_bit_stable_across_execution_configs() {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    // Dense, sparse and rain-thinned clouds — the regimes the score's
    // saturating terms discriminate between.
    for name in ["nominal", "urban-vru", "rain-dropout"] {
        let profile = scenario::by_name(name).unwrap();
        let data = Dataset::generate(&profile.dataset, 2025);
        let clouds: Vec<_> = (0..data.len()).map(|i| data.lidar(i)).collect();
        assert_stable(&det, &clouds, name);
    }
}

#[test]
fn camera_features_are_bit_stable_across_execution_configs() {
    let smoke_cfg = SmokeConfig::tiny();
    let det = Smoke::build(&smoke_cfg).unwrap();
    let profile = scenario::by_name("nominal").unwrap();
    let mut cfg = profile.dataset.clone();
    cfg.camera = smoke_cfg.calib.clone();
    let data = Dataset::generate(&cfg, 2025);
    let images: Vec<_> = (0..data.len()).map(|i| data.camera(i)).collect();
    assert_stable(&det, &images, "camera-nominal");
}

#[test]
fn lidar_features_match_the_documented_definition() {
    // The extractor is not just stable, it is the *documented* function:
    // `points` is the raw cloud size and `occupancy` is the fraction of
    // BEV pillars whose occupancy channel clears the activity threshold —
    // recomputed here directly from the preprocessed tensor as an oracle.
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let profile = scenario::by_name("urban-vru").unwrap();
    let data = Dataset::generate(&profile.dataset, 2025);
    for i in 0..data.len() {
        let cloud = data.lidar(i);
        let pre = det.preprocess(&cloud);
        let feats = det.complexity(&cloud, &pre);
        assert_eq!(feats.points as usize, cloud.len());
        let (active, frac) =
            upaq_det3d::channel_activity(&pre, upaq_det3d::pillars::OCCUPANCY_CHANNEL, 0.5);
        assert!(active > 0, "scene {i} rendered an empty BEV grid");
        assert_eq!(feats.occupancy.to_bits(), frac.to_bits());
    }
}
