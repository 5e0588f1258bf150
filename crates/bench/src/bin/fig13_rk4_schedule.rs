//! Fig 13 — scheduling partially-serial RK4 sensitivity chains: the
//! accelerator interleaves independent sampling points to hide the
//! 4-sub-task serial dependency; the CPU parallelises spatially over
//! cores. The live table times iLQR's batched LQ pass on this host and
//! exits non-zero if the pooled output differs from the one-executor
//! output in any bit.

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
use rbd_baselines::{function_work, paper_devices};
use rbd_bench::{fail, print_table};
use rbd_dynamics::{ops, BatchEval};
use rbd_model::{random_state, robots};
use rbd_trajopt::{lq_jacobians_batched, LqScratch, ScheduleInputs, StepJacobians};
use std::time::Instant;

fn main() {
    let model = robots::quadruped_arm();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let est = accel.estimate(FunctionKind::DFd, 1);
    let w = function_work(&model, FunctionKind::DFd);
    let devices = paper_devices();
    let cpu = devices.iter().find(|d| d.name == "AGX Orin CPU").unwrap();
    let cpu_task = cpu.latency_s(&w);

    let mut rows = Vec::new();
    for n_points in [1usize, 4, 16, 64, 100, 256] {
        let inputs = ScheduleInputs {
            n_points,
            serial_subtasks: 4,
            pipe_ii: est.bottleneck_ii,
            pipe_latency: est.latency_cycles,
            cpu_task_s: cpu_task,
            threads: 4,
            clock_hz: accel.config().clock_hz,
        };
        rows.push(vec![
            n_points.to_string(),
            format!("{:.1}", inputs.accel_seconds() * 1e6),
            format!("{:.1}", inputs.cpu_seconds() * 1e6),
            format!("{:.2}", inputs.cpu_seconds() / inputs.accel_seconds()),
            format!("{:.0}%", inputs.accel_utilization() * 100.0),
        ]);
    }
    print_table(
        "Fig 13 — RK4 sensitivity chains (4 serial ΔFD sub-tasks each)",
        &[
            "sampling points",
            "Dadu-RBD µs",
            "4-thread CPU µs",
            "speedup",
            "pipeline util",
        ],
        &rows,
    );
    println!(
        "\nWith a single chain the pipeline is serial-latency bound; with the MPC's\n\
         ~100-256 sampling points the interleaved schedule keeps the pipeline full\n\
         (the paper's point about avoiding the serial sub-task penalty)."
    );

    // ---- Live host side: the LQ pass (`lq_jacobians_batched`, as iLQR
    // runs it) on one executor vs the host-sized pool, both gated with
    // the RK4-point cost model as `Ilqr` does.
    let point_flops = ops::rk4_sens_point_flops(&model);
    let mut one = BatchEval::with_threads(&model, 1).with_point_flops(point_flops);
    let mut pool = BatchEval::new(&model).with_point_flops(point_flops);
    let nv = model.nv();
    let bits = |jacs: &[StepJacobians]| -> Vec<u64> {
        let mats = jacs.iter().flat_map(|j| [&j.a, &j.b]);
        let entries = mats.flat_map(|m| (0..m.rows()).flat_map(move |i| m.row(i)));
        entries.map(|x| x.to_bits()).collect()
    };
    let mut rows = Vec::new();
    for n_points in [4usize, 16, 64] {
        let traj: Vec<(Vec<f64>, Vec<f64>)> = (0..n_points as u64)
            .map(|i| random_state(&model, i))
            .map(|s| (s.q, s.qd))
            .collect();
        let us = vec![vec![0.0; nv]; n_points];
        // Warm once, then the min of 3.
        let run = |batch: &mut BatchEval| {
            let mut jacs: Vec<_> = (0..n_points).map(|_| StepJacobians::zeros(nv)).collect();
            let mut lq: Vec<_> = (0..batch.threads())
                .map(|_| LqScratch::for_model(&model))
                .collect();
            let mut best = f64::INFINITY;
            for rep in 0..4 {
                let t = Instant::now();
                lq_jacobians_batched(batch, 0.01, &traj, &us, &mut jacs, &mut lq);
                if rep > 0 {
                    best = best.min(t.elapsed().as_secs_f64());
                }
            }
            (best, bits(&jacs))
        };
        let (serial_s, serial) = run(&mut one);
        let (pool_s, pooled) = run(&mut pool);
        if serial != pooled {
            fail(&format!(
                "pooled LQ pass differs from one executor at {n_points} points"
            ));
        }
        rows.push(vec![
            n_points.to_string(),
            format!("{:.1}", serial_s * 1e6),
            format!("{:.1}", pool_s * 1e6),
            pool.last_workers().to_string(),
            format!("{:.2}x", serial_s / pool_s),
        ]);
    }
    print_table(
        &format!(
            "Fig 13 (live, this host: {} executor(s)) — iLQR's LQ pass, quadruped + arm",
            pool.threads()
        ),
        &["points", "1 exec µs", "pool µs", "execs", "speedup"],
        &rows,
    );
    println!("pool output bitwise equal to the one-executor output at every size.");
}
