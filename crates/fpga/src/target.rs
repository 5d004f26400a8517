//! The target-fabric registry: named device presets spanning families
//! and LUT widths.
//!
//! The paper's premise is *reconfigurable* implementation — its flat
//! multiplier exists so a synthesis tool can re-shape the XOR network
//! around whatever LUT structure the fabric offers. [`Target`] makes
//! that fabric a first-class, registry-backed choice, mirroring the
//! six-method `rgf2m_core::Method` registry on the generator side:
//! every preset has a stable [`Target::name`], a
//! [`Target::description`], a [`Target::from_name`] lookup and one
//! calibrated [`Device`] constant ([`Target::device`]). A
//! [`crate::Pipeline`] stores only its target and reads the mapper's
//! LUT width, the slice capacity and the delay constants from it, so
//! no mapper width can disagree with the device it is timed on.

use std::fmt;

use crate::device::Device;

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
/// assert_eq!(Target::StratixAlm.device().lut_inputs, 8);
/// assert_eq!(Target::Artix7.device().luts_per_slice, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Xilinx Artix-7-class (28 nm, LUT6, 4 LUTs/slice) — the paper's
    /// measurement fabric, where [`crate::Pipeline::new`] starts.
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

    /// The calibrated device model for this fabric: its LUT width,
    /// slice capacity and delay constants.
    pub fn device(self) -> &'static Device {
        match self {
            Target::Artix7 => &ARTIX7,
            Target::Spartan3 => &SPARTAN3,
            Target::Virtex5 => &VIRTEX5,
            Target::StratixAlm => &STRATIX_ALM,
        }
    }
}

/// The Artix-7-class device model (28 nm, LUT6, 4 LUTs/slice) — the
/// fabric the paper measures on.
const ARTIX7: Device = Device {
    lut_inputs: 6,
    luts_per_slice: 4,
    // Calibrated against the paper's (8,2) row (33 LUTs /
    // 9.77 ns designs are IOB-delay dominated on a real part),
    // with the distance coefficient fitted so the m = 163 rows
    // land near the paper's ~23 ns despite our simpler placer.
    t_ibuf_ns: 1.40,
    t_obuf_ns: 2.56,
    t_lut_ns: 0.48,
    t_net_ns: 1.05,
    t_net_per_unit_ns: 0.022,
    t_net_per_fanout_ns: 0.030,
};

/// The Spartan-3-class device model (90 nm, LUT4, 2 LUTs/slice): the
/// narrowest registered fabric, where every construction pays extra
/// LUT levels. Constants are the Artix-7 calibration scaled by the
/// 90 nm family's slower logic and routing.
const SPARTAN3: Device = Device {
    lut_inputs: 4,
    luts_per_slice: 2,
    t_ibuf_ns: 2.20,
    t_obuf_ns: 3.90,
    t_lut_ns: 0.61,
    t_net_ns: 1.60,
    t_net_per_unit_ns: 0.048,
    t_net_per_fanout_ns: 0.062,
};

/// The Virtex-5-class device model (65 nm, LUT6, 2 LUTs/slice in this
/// model): same LUT width as Artix-7 but half the slice capacity,
/// isolating the packing/placement effect of slice shape at fixed k.
/// Constants are the Artix-7 calibration scaled to 65 nm.
const VIRTEX5: Device = Device {
    lut_inputs: 6,
    luts_per_slice: 2,
    t_ibuf_ns: 1.62,
    t_obuf_ns: 2.94,
    t_lut_ns: 0.53,
    t_net_ns: 1.22,
    t_net_per_unit_ns: 0.029,
    t_net_per_fanout_ns: 0.038,
};

/// The Stratix-ALM-like device model (28 nm, 8-input fracturable ALMs,
/// 10 per LAB): the widest registered fabric — XOR trees collapse into
/// fewer, wider levels at a slightly higher per-LUT mux delay.
/// Constants are the Artix-7 calibration with the ALM's deeper input
/// mux and the LAB's denser local routing.
const STRATIX_ALM: Device = Device {
    lut_inputs: 8,
    luts_per_slice: 10,
    t_ibuf_ns: 1.31,
    t_obuf_ns: 2.43,
    t_lut_ns: 0.57,
    t_net_ns: 0.96,
    t_net_per_unit_ns: 0.020,
    t_net_per_fanout_ns: 0.027,
};

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::MAX_LUT_INPUTS;
    use crate::Pipeline;

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
        assert_eq!(Pipeline::new().target(), Target::Artix7);
    }

    #[test]
    fn shapes_are_distinct_and_mappable() {
        let mut shapes: Vec<(usize, usize)> = Target::ALL
            .iter()
            .map(|t| {
                let d = t.device();
                assert!((1..=MAX_LUT_INPUTS).contains(&d.lut_inputs), "{t}");
                (d.lut_inputs, d.luts_per_slice)
            })
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert_eq!(shapes.len(), Target::ALL.len(), "target shapes collide");
    }

    #[test]
    fn map_options_derive_k_and_cut_budget_from_the_device() {
        let cuts = |target| {
            let opts = Pipeline::new().with_target(target).map_options();
            assert_eq!(opts.k, target.device().lut_inputs, "{target}");
            opts.cuts_per_node
        };
        // Narrow fabrics keep the classic 8 cuts per node, the k = 8 ALM
        // fabric gets the tightened budget.
        assert_eq!(cuts(Target::Artix7), 8);
        assert_eq!(cuts(Target::Spartan3), 8);
        assert_eq!(cuts(Target::Virtex5), 8);
        assert_eq!(cuts(Target::StratixAlm), 4);
    }
}
