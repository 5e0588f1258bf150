//! Activity-proportional power/energy model (§VI-C): static power plus
//! dynamic power proportional to the resources actively toggling for the
//! running function.

use crate::resources::ResourceUsage;

/// Power model calibrated to the paper's reported envelope for LBR iiwa
/// (6.2 W for the lightest function to 36.8 W for the heaviest; ΔiFD at
/// 31.2 W).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static (idle) power of the configured device, watts.
    pub static_w: f64,
    /// Dynamic watts per active DSP at 125 MHz.
    pub w_per_dsp: f64,
    /// Dynamic watts per active kLUT at 125 MHz.
    pub w_per_klut: f64,
    /// Dynamic watts per active MB/s of memory stream traffic.
    pub w_per_gbps: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            static_w: 4.0,
            w_per_dsp: 9.0e-3,
            w_per_klut: 2.2e-2,
            w_per_gbps: 0.08,
        }
    }
}

impl PowerModel {
    /// Power while running a function whose *active* resources are `u`
    /// and whose stream traffic is `gbps`, with `duty` in `[0, 1]` the
    /// pipeline occupancy.
    pub fn power_w(&self, u: &ResourceUsage, gbps: f64, duty: f64) -> f64 {
        self.static_w
            + duty * (u.dsp as f64 * self.w_per_dsp + u.lut as f64 / 1000.0 * self.w_per_klut)
            + gbps * self.w_per_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_grows_with_activity() {
        let m = PowerModel::default();
        let small = ResourceUsage {
            dsp: 300,
            lut: 60_000,
            ..Default::default()
        };
        let big = ResourceUsage {
            dsp: 4000,
            lut: 600_000,
            ..Default::default()
        };
        let p_small = m.power_w(&small, 1.0, 1.0);
        let p_big = m.power_w(&big, 8.0, 1.0);
        assert!(p_big > p_small);
        assert!(p_small > m.static_w);
    }

    #[test]
    fn paper_power_envelope() {
        // The calibration should span roughly the paper's 6.2-36.8 W for
        // light vs heavy iiwa functions.
        let m = PowerModel::default();
        let light = ResourceUsage {
            dsp: 400,
            lut: 80_000,
            ..Default::default()
        };
        let heavy = ResourceUsage {
            dsp: 4300,
            lut: 550_000,
            ..Default::default()
        };
        let p_light = m.power_w(&light, 2.0, 0.8);
        let p_heavy = m.power_w(&heavy, 12.0, 1.0);
        assert!((4.0..12.0).contains(&p_light), "{p_light}");
        assert!((25.0..65.0).contains(&p_heavy), "{p_heavy}");
    }
}
