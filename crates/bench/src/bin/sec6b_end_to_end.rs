//! §VI-B — end-to-end application: offloading the ΔFD task class of an
//! MPC tick to Dadu-RBD. The tick is a real iLQR solve on iiwa (horizon
//! 20); its LQ passes are the accelerable share.
//!
//! Paper anchors: 11.2× speedup on the supported tasks and an ~80%
//! control-frequency increase over the 4-thread CPU baseline (with the
//! CPU computing other batch tasks concurrently). Exits non-zero when
//! the solve accepts no iteration or its breakdown is inconsistent.

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
use rbd_baselines::{function_work, paper_devices};
use rbd_bench::{ilqr_iiwa_tick, print_table};
use rbd_model::robots;

fn main() {
    let model = robots::iiwa();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let (sol, workers) = ilqr_iiwa_tick();

    // Supported tasks: one LQ pass makes 4 serial ΔFD sub-tasks (RK4)
    // per sampling point. Modelled CPU batch time vs accelerator batch
    // time for the same task count.
    let devices = paper_devices();
    let cpu = devices.iter().find(|d| d.name == "AGX Orin CPU").unwrap();
    let w_dfd = function_work(&model, FunctionKind::DFd);
    let horizon = sol.us.len();
    let tasks = 4 * horizon;
    let cpu_tasks_s = cpu.batch_time_s(&w_dfd, tasks);
    let accel_tasks_s = accel.estimate(FunctionKind::DFd, tasks).batch_time_s;
    let task_speedup = cpu_tasks_s / accel_tasks_s;

    // Control-frequency model: the host solve = LQ + Riccati + rollouts;
    // accelerated, the LQ passes shrink by the task speedup and the
    // CPU-side Riccati + rollouts follow (no overlap is credited).
    let cpu_solve = sol.lq_time_s + sol.solver_time_s + sol.rollout_time_s;
    let cpu_side = sol.solver_time_s + sol.rollout_time_s;
    let accel_solve = sol.lq_time_s / task_speedup + cpu_side;
    let freq_gain = cpu_solve / accel_solve - 1.0;
    let iters = sol.cost_history.len() - 1;

    let rows = vec![
        vec![
            format!("supported tasks ({tasks} ΔFD per LQ pass)"),
            format!("{:.3} ms", cpu_tasks_s * 1e3),
            format!("{:.3} ms", accel_tasks_s * 1e3),
            format!("{task_speedup:.1}x (paper: 11.2x)"),
        ],
        vec![
            format!("iLQR solve ({iters} accepted iterations)"),
            format!("{:.2} ms", cpu_solve * 1e3),
            format!("{:.2} ms", accel_solve * 1e3),
            format!("+{:.0}% control freq (paper: +80%)", freq_gain * 100.0),
        ],
    ];
    print_table(
        &format!("§VI-B — end-to-end iLQR MPC (iiwa, horizon {horizon})"),
        &["workload", "CPU", "with Dadu-RBD", "outcome"],
        &rows,
    );
    println!(
        "\nsupported-task CPU time: modelled 4-thread AGX Orin; solve: measured on\n\
         this host (LQ on {workers} executor(s), of which ΔFD {:.2} ms).\n\
         control frequency: {:.0} Hz → {:.0} Hz",
        sol.derivatives_time_s * 1e3,
        1.0 / cpu_solve,
        1.0 / accel_solve
    );
}
