//! Per-frame energy accounting for streaming inference.
//!
//! The hardware model predicts a fixed energy cost per forward pass of a
//! given model variant on a given device ([`crate::estimate`]). A
//! streaming runtime charges that modeled cost to an [`EnergyMeter`] once
//! per processed frame, keyed by the variant that actually ran — so a run
//! that degrades under load shows its energy savings in the report.
//!
//! Savings against a reference cost (the full model's) are accumulated
//! per frame as `reference − charged`, not as a difference of two float
//! sums: a frame that ran at the reference cost adds exactly `0.0`, so a
//! run that never degraded reports exactly zero savings.

use std::collections::BTreeMap;

/// Accumulates modeled per-frame energy, grouped by model variant.
///
/// A meter optionally carries the sensor modality it is metering
/// (`"lidar"`, `"camera"`), so reports from a multi-detector deployment
/// stay distinguishable even when both ladders use the same variant names.
#[derive(Debug, Default, Clone)]
pub struct EnergyMeter {
    per_variant: BTreeMap<String, VariantEnergy>,
    modality: Option<String>,
    /// Per-frame reference cost savings are measured against, joules.
    reference_j: Option<f64>,
    /// Running sum of `reference_j − charged` over recorded frames.
    saved_j: f64,
}

/// Energy totals for one model variant.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct VariantEnergy {
    /// Frames charged to this variant.
    pub frames: u64,
    /// Total modeled energy, joules.
    pub energy_j: f64,
}

impl VariantEnergy {
    /// Mean modeled energy per frame, joules (0 when no frames ran).
    pub fn mean_energy_j(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.energy_j / self.frames as f64
        }
    }
}

impl EnergyMeter {
    /// An empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// An empty meter labeled with the sensor modality it meters.
    pub fn for_modality(modality: &str) -> Self {
        EnergyMeter {
            modality: Some(modality.to_string()),
            ..EnergyMeter::default()
        }
    }

    /// Measures savings against `per_frame_j` (e.g. the full model's
    /// per-frame estimate): every frame recorded afterwards adds its
    /// `per_frame_j − energy_j` delta to [`saved_j`][Self::saved_j].
    pub fn with_reference(mut self, per_frame_j: f64) -> Self {
        self.reference_j = Some(per_frame_j);
        self
    }

    /// The sensor modality this meter was constructed for, when labeled.
    pub fn modality(&self) -> Option<&str> {
        self.modality.as_deref()
    }

    /// Charges one frame's modeled energy to `variant`.
    pub fn record(&mut self, variant: &str, energy_j: f64) {
        let e = self.per_variant.entry(variant.to_string()).or_default();
        e.frames += 1;
        e.energy_j += energy_j;
        if let Some(reference_j) = self.reference_j {
            self.saved_j += reference_j - energy_j;
        }
    }

    /// Total frames recorded across all variants.
    pub fn frames(&self) -> u64 {
        self.per_variant.values().map(|e| e.frames).sum()
    }

    /// Total modeled energy across all variants, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.per_variant.values().map(|e| e.energy_j).sum()
    }

    /// Mean modeled energy per frame over the whole run, joules.
    pub fn mean_energy_j(&self) -> f64 {
        let frames = self.frames();
        if frames == 0 {
            0.0
        } else {
            self.total_energy_j() / frames as f64
        }
    }

    /// Per-variant totals, in variant-name order (deterministic).
    pub fn variants(&self) -> impl Iterator<Item = (&str, &VariantEnergy)> {
        self.per_variant.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Modeled energy the same frames would have cost had every one run
    /// at the reference cost — the counterfactual an energy-saving
    /// scheduling policy is measured against, joules (`0` without a
    /// reference).
    pub fn counterfactual_energy_j(&self) -> f64 {
        self.frames() as f64 * self.reference_j.unwrap_or(0.0)
    }

    /// Modeled energy saved against the reference cost, joules: the sum
    /// of the per-frame deltas, so exactly `0.0` when every frame ran at
    /// the reference cost.
    pub fn saved_j(&self) -> f64 {
        self.saved_j
    }

    /// Fraction of the counterfactual this run saved, in `[-inf, 1]`:
    /// exactly `0` when every frame ran at the reference cost, positive
    /// when cheaper variants carried load, `0` for an empty meter or one
    /// without a reference.
    pub fn savings_frac(&self) -> f64 {
        let counterfactual = self.counterfactual_energy_j();
        if counterfactual <= 0.0 {
            0.0
        } else {
            self.saved_j / counterfactual
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_per_variant() {
        let mut m = EnergyMeter::new();
        m.record("base", 2.0);
        m.record("base", 2.0);
        m.record("lck", 0.5);
        assert_eq!(m.frames(), 3);
        assert!((m.total_energy_j() - 4.5).abs() < 1e-12);
        assert!((m.mean_energy_j() - 1.5).abs() < 1e-12);
        let v: Vec<(&str, u64)> = m.variants().map(|(k, e)| (k, e.frames)).collect();
        assert_eq!(v, vec![("base", 2), ("lck", 1)]);
        let base = m.variants().next().unwrap().1;
        assert!((base.mean_energy_j() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.frames(), 0);
        assert_eq!(m.mean_energy_j(), 0.0);
        assert_eq!(m.modality(), None);
    }

    #[test]
    fn savings_compare_against_the_always_base_counterfactual() {
        let mut m = EnergyMeter::new().with_reference(2.0);
        m.record("base", 2.0);
        m.record("lck", 0.5);
        m.record("hck", 0.25);
        // Three frames at the base rate would have cost 6 J; the mixed run
        // cost 2.75 J, a 54.2% saving.
        assert!((m.counterfactual_energy_j() - 6.0).abs() < 1e-12);
        assert!((m.saved_j() - 3.25).abs() < 1e-12);
        assert!((m.savings_frac() - (1.0 - 2.75 / 6.0)).abs() < 1e-12);
        // All-base running saves nothing against itself.
        let mut all_base = EnergyMeter::new().with_reference(2.0);
        all_base.record("base", 2.0);
        assert_eq!(all_base.savings_frac(), 0.0);
        // Degenerate counterfactuals stay finite.
        assert_eq!(EnergyMeter::new().with_reference(2.0).savings_frac(), 0.0);
        let mut free = EnergyMeter::new().with_reference(0.0);
        free.record("base", 0.0);
        assert_eq!(free.savings_frac(), 0.0);
        // No reference, no savings.
        let mut unreferenced = EnergyMeter::new();
        unreferenced.record("base", 2.0);
        assert_eq!(unreferenced.saved_j(), 0.0);
        assert_eq!(unreferenced.savings_frac(), 0.0);
    }

    #[test]
    fn all_reference_run_saves_exactly_zero_despite_inexact_sums() {
        // 0.1 J has no exact binary representation: ten of them summed
        // land one ulp below ten times 0.1, so a difference of the two
        // totals would report a spurious non-zero saving.
        let (per_frame_j, frames) = (0.1, 10);
        let summed: f64 = (0..frames).map(|_| per_frame_j).sum();
        assert_ne!(summed, frames as f64 * per_frame_j, "case must be inexact");

        let mut m = EnergyMeter::new().with_reference(per_frame_j);
        for _ in 0..frames {
            m.record("base", per_frame_j);
        }
        assert_eq!(m.saved_j().to_bits(), 0.0f64.to_bits());
        assert_eq!(m.savings_frac().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn modality_label_survives_recording() {
        let mut m = EnergyMeter::for_modality("camera");
        m.record("base", 1.0);
        assert_eq!(m.modality(), Some("camera"));
        assert_eq!(m.frames(), 1);
    }
}
