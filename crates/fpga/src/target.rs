//! The target-fabric registry: named device presets spanning families
//! and LUT widths.
//!
//! The paper's premise is *reconfigurable* implementation — its flat
//! multiplier exists so a synthesis tool can re-shape the XOR network
//! around whatever LUT structure the fabric offers. [`Target`] makes
//! that fabric a first-class, registry-backed choice, mirroring the
//! six-method `rgf2m_core::Method` registry on the generator side:
//! every preset has a stable [`Target::name`], a
//! [`Target::description`], a [`Target::from_name`] lookup and a
//! calibrated [`Device`] model, and
//! [`crate::Pipeline::with_target`] derives every device-dependent
//! pipeline option (mapper k, slice capacity, delay constants) from it
//! — the single source of truth that makes a silent
//! `MapOptions::k` vs `Device::lut_inputs` mismatch impossible.

use std::fmt;

use crate::device::Device;
use crate::map::MapOptions;

/// A named FPGA fabric preset.
///
/// [`Target::ALL`] lists every registered fabric; each has a distinct
/// `(lut_inputs, luts_per_slice)` shape so cross-target sweeps exercise
/// both the LUT-decomposition axis (k = 4, 6, 8) and the packing axis
/// (2, 4, 10 LUTs per slice):
///
/// | name | k | LUTs/slice | note |
/// |---|---|---|---|
/// | `artix7` | 6 | 4 | paper's fabric; delay constants calibrated on the (8,2) row |
/// | `spartan3` | 4 | 2 | narrow 90 nm fabric, scaled constants |
/// | `virtex5` | 6 | 2 | same k as artix7, half the slice capacity |
/// | `stratix_alm` | 8 | 10 | wide ALM-like fabric, scaled constants |
///
/// # Examples
///
/// ```
/// use rgf2m_fpga::Target;
///
/// assert_eq!(Target::ALL.len(), 4);
/// assert_eq!(Target::from_name("stratix_alm"), Some(Target::StratixAlm));
/// assert_eq!(Target::StratixAlm.lut_inputs(), 8);
/// assert_eq!(Target::Artix7.device().luts_per_slice, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Xilinx Artix-7-class (28 nm, LUT6, 4 LUTs/slice) — the paper's
    /// measurement fabric and the default everywhere.
    Artix7,
    /// Xilinx Spartan-3-class (90 nm, LUT4, 2 LUTs/slice) — the
    /// narrowest registered fabric.
    Spartan3,
    /// Xilinx Virtex-5-class (65 nm, LUT6, 2 LUTs/slice in this model)
    /// — artix7's k with half the slice capacity.
    Virtex5,
    /// Intel/Altera Stratix-ALM-like (8-input fracturable ALMs, 10 per
    /// LAB) — the widest registered fabric.
    StratixAlm,
}

impl Target {
    /// Every registered target, artix7 (the paper's fabric) first.
    pub const ALL: [Target; 4] = [
        Target::Artix7,
        Target::Spartan3,
        Target::Virtex5,
        Target::StratixAlm,
    ];

    /// The short machine-friendly name (stable; used in reports, JSON/
    /// CSV exports and CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            Target::Artix7 => "artix7",
            Target::Spartan3 => "spartan3",
            Target::Virtex5 => "virtex5",
            Target::StratixAlm => "stratix_alm",
        }
    }

    /// A one-line human description of the fabric.
    pub fn description(self) -> &'static str {
        match self {
            Target::Artix7 => {
                "Xilinx Artix-7-class: 28 nm, LUT6, 4 LUTs/slice (paper's fabric, calibrated)"
            }
            Target::Spartan3 => "Xilinx Spartan-3-class: 90 nm, LUT4, 2 LUTs/slice",
            Target::Virtex5 => "Xilinx Virtex-5-class: 65 nm, LUT6, 2 LUTs/slice",
            Target::StratixAlm => "Stratix-ALM-like: 8-input fracturable ALMs, 10 per LAB",
        }
    }

    /// Looks a target up by its [`Target::name`] (exact match).
    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The calibrated device model for this fabric.
    pub fn device(self) -> Device {
        match self {
            Target::Artix7 => Device::artix7(),
            Target::Spartan3 => Device::spartan3(),
            Target::Virtex5 => Device::virtex5(),
            Target::StratixAlm => Device::stratix_alm(),
        }
    }

    /// The fabric's LUT input width `k`.
    pub fn lut_inputs(self) -> usize {
        self.device().lut_inputs
    }

    /// The fabric's slice capacity (LUTs per slice/LAB).
    pub fn luts_per_slice(self) -> usize {
        self.device().luts_per_slice
    }

    /// Default mapping options for this fabric: `k` derived from the
    /// device and the priority-cut budget derived from `k` via
    /// [`MapOptions::default_cuts_for`] (wide-LUT fabrics such as
    /// `stratix_alm` get a tighter budget so k ≥ 8 enumeration stays
    /// bounded). Chain [`MapOptions::with_cuts_per_node`] to override
    /// the budget explicitly.
    pub fn map_options(self) -> MapOptions {
        let k = self.lut_inputs();
        MapOptions::new()
            .with_k(k)
            .with_cuts_per_node(MapOptions::default_cuts_for(k))
    }
}

impl Default for Target {
    /// The paper's fabric.
    fn default() -> Self {
        Target::Artix7
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::MAX_LUT_INPUTS;

    #[test]
    fn registry_is_the_single_source_of_truth() {
        assert_eq!(Target::ALL.len(), 4);
        let names: Vec<&str> = Target::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["artix7", "spartan3", "virtex5", "stratix_alm"]);
        for target in Target::ALL {
            assert_eq!(Target::from_name(target.name()), Some(target));
            assert_eq!(target.to_string(), target.name());
            assert!(!target.description().is_empty());
        }
        assert_eq!(Target::from_name("ise_14_7"), None);
        assert_eq!(Target::default(), Target::Artix7);
    }

    #[test]
    fn shapes_are_distinct_and_mappable() {
        let mut shapes: Vec<(usize, usize)> = Target::ALL
            .iter()
            .map(|t| {
                assert!((1..=MAX_LUT_INPUTS).contains(&t.lut_inputs()), "{t}");
                assert_eq!(t.lut_inputs(), t.device().lut_inputs, "{t}");
                assert_eq!(t.luts_per_slice(), t.device().luts_per_slice, "{t}");
                (t.lut_inputs(), t.luts_per_slice())
            })
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert_eq!(shapes.len(), Target::ALL.len(), "target shapes collide");
    }

    #[test]
    fn map_options_derive_k_and_cut_budget_from_the_device() {
        for target in Target::ALL {
            let opts = target.map_options();
            assert_eq!(opts.k, target.device().lut_inputs, "{target}");
            assert_eq!(
                opts.cuts_per_node,
                MapOptions::default_cuts_for(opts.k),
                "{target}"
            );
        }
        // Pin the concrete budgets: narrow fabrics keep the classic 8,
        // the k = 8 ALM fabric gets the tightened budget.
        assert_eq!(Target::Artix7.map_options().cuts_per_node, 8);
        assert_eq!(Target::Spartan3.map_options().cuts_per_node, 8);
        assert_eq!(Target::Virtex5.map_options().cuts_per_node, 8);
        assert_eq!(Target::StratixAlm.map_options().cuts_per_node, 4);
        // The escape hatch overrides the derived default.
        assert_eq!(
            Target::StratixAlm
                .map_options()
                .with_cuts_per_node(16)
                .cuts_per_node,
            16
        );
    }
}
