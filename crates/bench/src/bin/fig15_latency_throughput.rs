//! Fig 15 — latency and throughput of the six dynamics functions on
//! LBR iiwa, HyQ and Atlas: Dadu-RBD (simulated) vs the calibrated
//! device models of AGX Orin CPU/GPU, i9-13900HX and RTX 4090M.
//!
//! Methodology as in §VI-A: latency = single-task single-thread;
//! throughput = 256-task batches.

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
use rbd_baselines::{function_work, paper_devices, thread_scaling};
use rbd_bench::{fmt_si, fmt_us, print_table};
use rbd_model::robots;

fn main() {
    let devices = paper_devices();
    let agx_cpu = &devices[0];
    let i9 = &devices[1];
    let agx_gpu = &devices[2];
    let rtx = &devices[3];

    let mut lat_ratios_agx = Vec::new();
    let mut lat_ratios_i9 = Vec::new();
    let mut thr_ratios = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];

    for model in robots::paper_robots() {
        let accel = DaduRbd::configure(&model, AccelConfig::default());
        let mut lat_rows = Vec::new();
        let mut thr_rows = Vec::new();
        for f in FunctionKind::fig15() {
            let w = function_work(&model, f);
            let ours = accel.estimate(f, 256);

            let l_agx = agx_cpu.latency_s(&w);
            let l_i9 = i9.latency_s(&w);
            lat_rows.push(vec![
                f.short_name().to_string(),
                fmt_us(l_agx),
                fmt_us(l_i9),
                fmt_us(ours.latency_s),
                format!(
                    "{:.2}x / {:.2}x",
                    ours.latency_s / l_agx,
                    ours.latency_s / l_i9
                ),
            ]);
            lat_ratios_agx.push(ours.latency_s / l_agx);
            lat_ratios_i9.push(ours.latency_s / l_i9);

            // GRiD does not implement the mass matrix on GPU (paper note).
            let gpu_supported = !matches!(f, FunctionKind::MassMatrix);
            let t_agx_cpu = agx_cpu.throughput(&w, 256);
            let t_agx_gpu = agx_gpu.throughput(&w, 256);
            let t_i9 = i9.throughput(&w, 256);
            let t_rtx = rtx.throughput(&w, 256);
            let t_ours = ours.throughput_tasks_per_s;
            thr_rows.push(vec![
                f.short_name().to_string(),
                fmt_si(t_agx_cpu),
                if gpu_supported {
                    fmt_si(t_agx_gpu)
                } else {
                    "-".into()
                },
                fmt_si(t_i9),
                if gpu_supported {
                    fmt_si(t_rtx)
                } else {
                    "-".into()
                },
                fmt_si(t_ours),
                format!(
                    "{:.1}x/{}/{:.1}x/{}",
                    t_ours / t_agx_cpu,
                    if gpu_supported {
                        format!("{:.1}x", t_ours / t_agx_gpu)
                    } else {
                        "-".into()
                    },
                    t_ours / t_i9,
                    if gpu_supported {
                        format!("{:.1}x", t_ours / t_rtx)
                    } else {
                        "-".into()
                    }
                ),
            ]);
            thr_ratios[0].push(t_ours / t_agx_cpu);
            if gpu_supported {
                thr_ratios[1].push(t_ours / t_agx_gpu);
                thr_ratios[3].push(t_ours / t_rtx);
            }
            thr_ratios[2].push(t_ours / t_i9);
        }
        print_table(
            &format!("Fig 15 ({}) — latency, µs (lower is better)", model.name()),
            &["fn", "AGX CPU", "i9-13900HX", "Ours", "ours/AGX, ours/i9"],
            &lat_rows,
        );
        print_table(
            &format!(
                "Fig 15 ({}) — throughput, tasks/s (256 batch)",
                model.name()
            ),
            &[
                "fn",
                "AGX CPU",
                "AGX GPU",
                "i9",
                "RTX 4090M",
                "Ours",
                "speedups",
            ],
            &thr_rows,
        );

        // Live host reference: our own lane ΔFD on `BatchEval`'s
        // persistent pool (one and all host threads, 20 batches of 256
        // tasks, fastest of interleaved rounds).
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rows = thread_scaling(&model, FunctionKind::DFd, 256, &[1, host_cores], 20);
        let (m1, mt) = (rows[0].2, rows[1].2);
        println!(
            "host (live, this machine) dFD: {} tasks/s 1T, {} tasks/s {}T ({} executor(s) engaged)",
            fmt_si(m1.throughput()),
            fmt_si(mt.throughput()),
            host_cores,
            mt.executors
        );
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("\n--- Summary vs paper §VI-A ---");
    println!(
        "latency ours/AGX-CPU : avg {:.2}x (paper: 0.12-0.55x, avg 0.29x)",
        avg(&lat_ratios_agx)
    );
    println!(
        "latency ours/i9      : avg {:.2}x (paper: 0.34-1.91x, avg 0.82x)",
        avg(&lat_ratios_i9)
    );
    println!(
        "throughput vs AGX CPU: avg {:.1}x (paper: 8.1-43.6x, avg 19.2x)",
        avg(&thr_ratios[0])
    );
    println!(
        "throughput vs AGX GPU: avg {:.1}x (paper: 3.5-13.4x, avg 7.2x)",
        avg(&thr_ratios[1])
    );
    println!(
        "throughput vs i9     : avg {:.1}x (paper: 4.1-20.2x, avg 8.2x)",
        avg(&thr_ratios[2])
    );
    println!(
        "throughput vs 4090M  : avg {:.1}x (paper: 0.5-2.8x, avg 1.4x)",
        avg(&thr_ratios[3])
    );
}
