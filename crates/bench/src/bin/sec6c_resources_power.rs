//! §VI-C — resource usage, power and energy: device utilisation of the
//! quadruped-with-arm configuration (paper: 62% DSP / 17% FF /
//! 54% LUT), the per-function power envelope on iiwa (6.2-36.8 W) and
//! the energy/EDP comparison against Robomorphic.
//!
//! Exits non-zero unless every function's active resources fit within
//! the configuration's total and `M` (`Mb` alone, Fig 14) uses fewer
//! DSPs than `M⁻¹` (`Mb` + `Mf`).

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind, PowerModel, ResourceUsage};
use rbd_baselines::{function_work, robomorphic_difd};
use rbd_bench::print_table;
use rbd_model::robots;

fn main() {
    // ---- Resources.
    let quad = robots::quadruped_arm();
    let accel = DaduRbd::configure(&quad, AccelConfig::default());
    let usage = accel.resource_usage();
    let dev = accel.device();
    let (dsp, ff, lut, bram) = dev.utilization(&usage);
    print_table(
        "§VI-C — resource usage, quadruped-with-arm on XCVU9P",
        &["resource", "used", "available", "utilisation", "paper"],
        &[
            vec![
                "DSP".into(),
                usage.dsp.to_string(),
                dev.dsp.to_string(),
                format!("{:.0}%", dsp * 100.0),
                "62%".into(),
            ],
            vec![
                "FF".into(),
                usage.ff.to_string(),
                dev.ff.to_string(),
                format!("{:.0}%", ff * 100.0),
                "17%".into(),
            ],
            vec![
                "LUT".into(),
                usage.lut.to_string(),
                dev.lut.to_string(),
                format!("{:.0}%", lut * 100.0),
                "54%".into(),
            ],
            vec![
                "BRAM".into(),
                usage.bram.to_string(),
                dev.bram.to_string(),
                format!("{:.0}%", bram * 100.0),
                "-".into(),
            ],
        ],
    );

    // ---- Power envelope per function (iiwa).
    let iiwa = robots::iiwa();
    let accel = DaduRbd::configure(&iiwa, AccelConfig::default());
    let pm = PowerModel::default();
    let total = accel.resource_usage();
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    let mut p_difd = 0.0;
    let mut t_difd = 0.0;
    for f in FunctionKind::all() {
        let est = accel.estimate(f, 256);
        let active = accel.active_resources(f);
        if !within(&active, &total) {
            failures.push(format!(
                "{f}: active {active} exceeds the configuration's {total}"
            ));
        }
        let gbps = rbd_accel::timing::io_bytes_per_task(&accel, f) as f64
            * est.throughput_tasks_per_s
            / 1e9;
        let p = pm.power_w(&active, gbps, 1.0);
        if f == FunctionKind::DiFd {
            p_difd = p;
            t_difd = est.throughput_tasks_per_s;
        }
        rows.push(vec![
            f.short_name().into(),
            format!("{:.1} W", p),
            format!("{:.2} GB/s", gbps),
            format!("{:.2} M/s", est.throughput_tasks_per_s / 1e6),
        ]);
    }
    let m_dsp = accel.active_resources(FunctionKind::MassMatrix).dsp;
    let minv_dsp = accel.active_resources(FunctionKind::MassMatrixInverse).dsp;
    if m_dsp >= minv_dsp {
        failures.push(format!(
            "M uses {m_dsp} DSPs, not fewer than Minv's {minv_dsp}"
        ));
    }
    print_table(
        "§VI-C — per-function power on iiwa (paper envelope: 6.2 - 36.8 W; ΔiFD 31.2 W)",
        &["function", "power", "stream traffic", "throughput"],
        &rows,
    );

    // ---- Robomorphic comparison (iiwa ΔiFD).
    let robo = robomorphic_difd();
    let w = function_work(&iiwa, FunctionKind::DiFd);
    let robo_thr = robo.throughput(&w, 256);
    let robo_power = 9.6; // W, reported
    let speed_ratio = t_difd / robo_thr;
    let power_ratio = p_difd / robo_power;
    let energy_ratio = robo_power / robo_thr / (p_difd / t_difd);
    let edp_ratio = energy_ratio * speed_ratio;
    print_table(
        "§VI-C — vs Robomorphic (iiwa ΔiFD, 256-task batches)",
        &["metric", "reproduced", "paper"],
        &[
            vec![
                "power ratio (ours/robo)".into(),
                format!("{power_ratio:.2}x"),
                "3.25x".into(),
            ],
            vec![
                "speed ratio (ours/robo)".into(),
                format!("{speed_ratio:.1}x"),
                "6.6x".into(),
            ],
            vec![
                "energy ratio (robo/ours)".into(),
                format!("{energy_ratio:.1}x"),
                "2.0x".into(),
            ],
            vec![
                "EDP ratio (robo/ours)".into(),
                format!("{edp_ratio:.1}x"),
                "13.2x".into(),
            ],
        ],
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("sec6c_resources_power: {f}");
        }
        std::process::exit(1);
    }
}

/// `true` when `u` fits within `total` in every resource.
fn within(u: &ResourceUsage, total: &ResourceUsage) -> bool {
    u.dsp <= total.dsp && u.ff <= total.ff && u.lut <= total.lut && u.bram <= total.bram
}
