//! FPGA resource model: DSP/FF/LUT/BRAM usage per submodule and per
//! configuration, checked against the XCVU9P device the paper (and
//! Robomorphic) target.

use crate::submodule::Submodule;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Resource usage of a module or a whole configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// DSP48 slices.
    pub dsp: usize,
    /// Flip-flops.
    pub ff: usize,
    /// Lookup tables.
    pub lut: usize,
    /// Block RAMs (36 kb).
    pub bram: usize,
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;
    fn add(self, r: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp + r.dsp,
            ff: self.ff + r.ff,
            lut: self.lut + r.lut,
            bram: self.bram + r.bram,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, r: ResourceUsage) {
        *self = *self + r;
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DSP {} / FF {} / LUT {} / BRAM {}",
            self.dsp, self.ff, self.lut, self.bram
        )
    }
}

/// An FPGA device's capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaDevice {
    /// Marketing name.
    pub name: &'static str,
    /// Available DSP slices.
    pub dsp: usize,
    /// Available flip-flops.
    pub ff: usize,
    /// Available LUTs.
    pub lut: usize,
    /// Available BRAM36 blocks.
    pub bram: usize,
}

impl FpgaDevice {
    /// Xilinx Virtex UltraScale+ VU9P — the chip used by both
    /// Robomorphic and Dadu-RBD (Table II).
    pub const fn xcvu9p() -> Self {
        Self {
            name: "XCVU9P",
            dsp: 6840,
            ff: 2_364_480,
            lut: 1_182_240,
            bram: 2160,
        }
    }

    /// Utilisation fractions `(dsp, ff, lut, bram)` of a usage on this
    /// device.
    pub fn utilization(&self, u: &ResourceUsage) -> (f64, f64, f64, f64) {
        (
            u.dsp as f64 / self.dsp as f64,
            u.ff as f64 / self.ff as f64,
            u.lut as f64 / self.lut as f64,
            u.bram as f64 / self.bram as f64,
        )
    }

    /// `true` when the usage fits the device.
    pub fn fits(&self, u: &ResourceUsage) -> bool {
        u.dsp <= self.dsp && u.ff <= self.ff && u.lut <= self.lut && u.bram <= self.bram
    }
}

/// Per-lane / per-op conversion constants, calibrated so the paper's
/// quadruped-with-arm configuration lands near its reported 62% DSP /
/// 17% FF / 54% LUT on the XCVU9P (§VI-C).
pub mod coef {
    /// DSPs per multiplier lane (wide fixed-point products cascade two
    /// DSP48s).
    pub const DSP_PER_LANE: usize = 2;
    /// FFs per lane (operand/pipeline registers).
    pub const FF_PER_LANE: usize = 180;
    /// LUTs per lane (routing + alignment).
    pub const LUT_PER_LANE: usize = 220;
    /// LUTs per addition (fabric adders).
    pub const LUT_PER_ADD: usize = 18;
    /// FFs per addition.
    pub const FF_PER_ADD: usize = 8;
    /// LUTs of fixed control overhead per submodule.
    pub const LUT_PER_STAGE: usize = 600;
    /// FFs of fixed control overhead per submodule.
    pub const FF_PER_STAGE: usize = 400;
    /// BRAMs per FIFO stream buffer.
    pub const BRAM_PER_FIFO: usize = 2;
    /// Resources of one reciprocal unit (fixed↔float converter,
    /// §IV-B2).
    pub const RECIP_DSP: usize = 8;
    /// LUTs of one reciprocal unit.
    pub const RECIP_LUT: usize = 900;
    /// Resources of one trigonometric Taylor pipeline.
    pub const TRIG_DSP: usize = 14;
    /// LUTs of one trig pipeline.
    pub const TRIG_LUT: usize = 800;
}

/// Resource usage of one submodule given its lane allocation.
pub fn submodule_usage(sub: &Submodule) -> ResourceUsage {
    let adds_per_cycle = sub.ops.add.div_ceil(sub.ii_cycles().max(1));
    ResourceUsage {
        dsp: sub.lanes * coef::DSP_PER_LANE + sub.ops.recip * coef::RECIP_DSP,
        ff: sub.lanes * coef::FF_PER_LANE + adds_per_cycle * coef::FF_PER_ADD + coef::FF_PER_STAGE,
        lut: sub.lanes * coef::LUT_PER_LANE
            + adds_per_cycle * coef::LUT_PER_ADD
            + coef::LUT_PER_STAGE
            + sub.ops.recip * coef::RECIP_LUT,
        bram: coef::BRAM_PER_FIFO,
    }
}

/// Resource usage of a Global Trigonometric Module serving `n_trig`
/// simultaneous sin/cos evaluations.
pub fn trig_module_usage(n_trig: usize) -> ResourceUsage {
    ResourceUsage {
        dsp: n_trig * coef::TRIG_DSP,
        ff: n_trig * 500,
        lut: n_trig * coef::TRIG_LUT,
        bram: 1,
    }
}

/// Resource usage of the scheduling system (Input Stream, Schedule,
/// Feedback, Decode, Encode) including the shared `A(x-y)` matrix unit
/// sized for `nv` DOF (Fig 9c).
pub fn scheduler_usage(nv: usize) -> ResourceUsage {
    let matvec_ops = crate::ops::sym_matvec_cost(nv);
    let lanes = matvec_ops.mul.div_ceil(4).max(8);
    ResourceUsage {
        dsp: lanes * coef::DSP_PER_LANE,
        ff: 30_000 + lanes * coef::FF_PER_LANE,
        lut: 40_000 + lanes * coef::LUT_PER_LANE,
        bram: 24,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submodule::SubmoduleKind;
    use rbd_model::JointType;

    #[test]
    fn device_capacities() {
        let d = FpgaDevice::xcvu9p();
        assert_eq!(d.dsp, 6840);
        let u = ResourceUsage {
            dsp: 3420,
            ff: 0,
            lut: 0,
            bram: 0,
        };
        assert!((d.utilization(&u).0 - 0.5).abs() < 1e-12);
        assert!(d.fits(&u));
        let over = ResourceUsage {
            dsp: 7000,
            ..Default::default()
        };
        assert!(!d.fits(&over));
    }

    #[test]
    fn more_lanes_more_dsp() {
        let jt = JointType::revolute_z();
        let mk = |lanes| Submodule {
            kind: SubmoduleKind::Rf,
            body: 0,
            level: 1,
            mult: 1,
            ops: SubmoduleKind::Rf.cost(&jt, 1, 1, 1),
            lanes,
        };
        assert!(submodule_usage(&mk(32)).dsp > submodule_usage(&mk(8)).dsp);
    }

    #[test]
    fn reciprocal_units_show_up() {
        let jt = JointType::revolute_z();
        let with = Submodule {
            kind: SubmoduleKind::Mb,
            body: 0,
            level: 1,
            mult: 1,
            ops: SubmoduleKind::Mb.cost(&jt, 3, 3, 3),
            lanes: 8,
        };
        let without = Submodule {
            kind: SubmoduleKind::Rb,
            body: 0,
            level: 1,
            mult: 1,
            ops: SubmoduleKind::Rb.cost(&jt, 3, 3, 3),
            lanes: 8,
        };
        assert!(submodule_usage(&with).dsp > submodule_usage(&without).dsp);
    }

    #[test]
    fn usage_addition() {
        let a = ResourceUsage {
            dsp: 1,
            ff: 2,
            lut: 3,
            bram: 4,
        };
        let mut s = a;
        s += a;
        assert_eq!(s, a + a);
        assert_eq!(s.dsp, 2);
        assert_eq!(s.bram, 8);
    }
}
