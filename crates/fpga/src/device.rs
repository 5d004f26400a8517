//! The target-device model.
//!
//! A [`Device`] is the *numerical* half of a target: LUT width, slice
//! capacity and the delay constants the timing model consumes. The
//! *named* half — the registry of supported fabrics — is
//! [`crate::Target`], which owns the one calibrated `Device` constant
//! of each fabric ([`crate::Target::device`]); a pipeline reads every
//! device-dependent value from its target.

/// An FPGA device model: LUT width, slice capacity and the delay
/// constants of the timing model.
///
/// The paper's fabric, Artix-7, has delay constants calibrated once
/// against the paper's measured GF(2^8) row (Table V) and then held
/// fixed for every other field. The other registered fabrics model
/// families the related work implements the same multipliers on; their
/// constants are scaled from the Artix-7 calibration by the families'
/// relative process/datasheet speed, not re-calibrated against silicon
/// — cross-target numbers are therefore *trend* data (how each
/// construction responds to k and slice shape), not absolute timing
/// claims.
///
/// # Examples
///
/// ```
/// use rgf2m_fpga::Target;
///
/// let dev = Target::Artix7.device();
/// assert_eq!(dev.lut_inputs, 6);
/// assert_eq!(dev.luts_per_slice, 4);
/// assert_eq!(Target::Spartan3.device().lut_inputs, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// LUT input width `k` (6 for 7-series).
    pub lut_inputs: usize,
    /// LUTs per slice (4 for 7-series SLICEL/SLICEM).
    pub luts_per_slice: usize,
    /// Input-buffer (IBUF) delay in ns.
    pub t_ibuf_ns: f64,
    /// Output-buffer (OBUF) delay in ns.
    pub t_obuf_ns: f64,
    /// LUT logic delay in ns.
    pub t_lut_ns: f64,
    /// Base net delay per hop in ns (local routing).
    pub t_net_ns: f64,
    /// Additional net delay per unit of Manhattan distance on the slice
    /// grid, in ns.
    pub t_net_per_unit_ns: f64,
    /// Additional net delay per extra fanout of the driver, in ns.
    pub t_net_per_fanout_ns: f64,
}

#[cfg(test)]
mod tests {
    // The registry is the source of truth for the preset list — a new
    // preset joins these tests the moment it gets a `Target` variant.
    use crate::target::Target;

    #[test]
    fn delay_constants_are_positive_on_every_preset() {
        for target in Target::ALL {
            let d = target.device();
            for v in [
                d.t_ibuf_ns,
                d.t_obuf_ns,
                d.t_lut_ns,
                d.t_net_ns,
                d.t_net_per_unit_ns,
                d.t_net_per_fanout_ns,
            ] {
                assert!(v > 0.0, "{target}");
            }
        }
    }

    #[test]
    fn older_fabrics_are_slower_per_lut() {
        assert!(Target::Spartan3.device().t_lut_ns > Target::Virtex5.device().t_lut_ns);
        assert!(Target::Virtex5.device().t_lut_ns > Target::Artix7.device().t_lut_ns);
    }
}
