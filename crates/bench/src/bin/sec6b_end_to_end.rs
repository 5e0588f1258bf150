//! §VI-B — end-to-end application: offloading the FD / Minv / ΔFD task
//! classes of the quadruped MPC iteration to Dadu-RBD.
//!
//! Paper anchors: 11.2× speedup on the supported tasks and an ~80%
//! control-frequency increase over the 4-thread CPU baseline (with the
//! CPU computing other batch tasks concurrently).

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
use rbd_baselines::{function_work, paper_devices};
use rbd_bench::print_table;
use rbd_model::robots;
use rbd_trajopt::profile_mpc_iteration;

fn main() {
    let model = robots::quadruped_arm();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let n_points = 100; // MPC horizon sampling points (§VI-A: ~100-256)

    // Host-measured iteration profile (the Fig 2 workload).
    let p = profile_mpc_iteration(&model, n_points);

    // Accelerable share: the LQ approximation's dynamics calls
    // (FD + ΔFD + Minv). CPU-side time for those tasks vs accelerator
    // batch time for the same task count.
    let devices = paper_devices();
    let cpu = devices.iter().find(|d| d.name == "AGX Orin CPU").unwrap();
    let w_dfd = function_work(&model, FunctionKind::DFd);
    // Each sampling point performs 4 serial ΔFD sub-tasks (RK4).
    let tasks = (4 * n_points) as u64;
    let cpu_tasks_s = cpu.batch_time_s(&w_dfd, tasks as usize);
    let accel_tasks_s = accel
        .estimate(FunctionKind::DFd, tasks as usize)
        .batch_time_s;
    let task_speedup = cpu_tasks_s / accel_tasks_s;

    // Control-frequency model: CPU-only iteration = LQ + solver + other;
    // accelerated iteration = the LQ approximation sped up by the task
    // speedup, followed by the CPU-side solver + other work (no overlap
    // between the two is credited).
    let cpu_iter = p.total_s();
    let cpu_side = p.solver_s + p.other_s;
    let accel_iter = p.lq_approx_s / task_speedup + cpu_side;
    let freq_gain = cpu_iter / accel_iter - 1.0;

    let rows = vec![
        vec![
            "supported tasks (FD/Minv/dFD)".into(),
            format!("{:.2} ms", cpu_tasks_s * 1e3),
            format!("{:.2} ms", accel_tasks_s * 1e3),
            format!("{task_speedup:.1}x (paper: 11.2x)"),
        ],
        vec![
            "full MPC iteration".into(),
            format!("{:.2} ms", cpu_iter * 1e3),
            format!("{:.2} ms", accel_iter * 1e3),
            format!("+{:.0}% control freq (paper: +80%)", freq_gain * 100.0),
        ],
    ];
    print_table(
        "§VI-B — end-to-end quadruped MPC (100 sampling points)",
        &["workload", "4-thread CPU", "with Dadu-RBD", "outcome"],
        &rows,
    );
    println!(
        "\ncontrol frequency: {:.0} Hz → {:.0} Hz",
        1.0 / cpu_iter,
        1.0 / accel_iter
    );
}
