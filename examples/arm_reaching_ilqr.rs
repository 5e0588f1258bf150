//! Trajectory optimization end-to-end: iLQR swings a 3-link arm to a
//! goal configuration, with the LQ-approximation phase (the batched
//! dynamics+derivatives workload of Fig 2c) timed separately. Exits 1
//! unless the solve converged with every final joint within 0.05 rad of
//! the goal.
//!
//! ```text
//! cargo run --example arm_reaching_ilqr --release
//! ```

use dadu_rbd::model::robots;
use dadu_rbd::trajopt::{Ilqr, IlqrOptions};

fn main() {
    let model = robots::serial_chain(3);
    let goal = vec![0.8, -0.5, 0.4];
    println!("model: {model}\ngoal : {goal:?}");

    let mut ilqr = Ilqr::new(
        &model,
        goal.clone(),
        IlqrOptions {
            horizon: 50,
            dt: 0.02,
            max_iters: 100,
            w_terminal: 200.0,
            ..IlqrOptions::default()
        },
    );
    let result = ilqr.solve(&[0.0; 3], &[0.0; 3]);

    println!("\niteration  cost");
    for (k, c) in result.cost_history.iter().enumerate() {
        println!("{k:>9}  {c:.5}");
    }
    let (q_final, qd_final) = result.trajectory.last().unwrap();
    println!("\nfinal q  = {q_final:?}");
    println!("final q̇  = {qd_final:?}");
    println!("converged: {}", result.converged);

    let total = result.lq_time_s + result.solver_time_s + result.rollout_time_s;
    println!(
        "\ntime breakdown: LQ approximation {:.0}% | solver {:.0}% | rollouts {:.0}%",
        100.0 * result.lq_time_s / total,
        100.0 * result.solver_time_s / total,
        100.0 * result.rollout_time_s / total
    );
    println!(
        "LQ batch executors engaged: {} (estimated-FLOP work gate over the \
         persistent worker pool)",
        ilqr.lq_workers()
    );
    println!(
        "the LQ approximation is the batched ΔFD workload Dadu-RBD accelerates\n\
         (see `cargo run -p rbd-bench --bin sec6b_end_to_end`)."
    );

    let miss: Vec<f64> = q_final
        .iter()
        .zip(&goal)
        .map(|(q, g)| (q - g).abs())
        .collect();
    if !result.converged || !miss.iter().all(|e| *e <= 0.05) {
        eprintln!(
            "FAIL: the solve must converge with every final joint within 0.05 rad \
             of the goal (converged: {}, |q - goal| = {miss:.4?})",
            result.converged
        );
        std::process::exit(1);
    }
}
