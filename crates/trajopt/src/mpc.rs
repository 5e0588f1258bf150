//! Receding-horizon MPC: re-solves a short iLQR problem at every control
//! tick, warm-started from the last tick's plan shifted by one step — the
//! >100 Hz loop of Fig 1 whose dynamics workload Dadu-RBD offloads.

use crate::ilqr::{Ilqr, IlqrOptions};
use crate::integrator::rk4_step;
use rbd_dynamics::DynamicsWorkspace;
use rbd_model::RobotModel;
use std::time::Instant;

/// Result of a closed-loop MPC run.
#[derive(Debug, Clone)]
pub struct MpcRun {
    /// Closed-loop state trajectory `(q, q̇)` at every tick.
    pub states: Vec<(Vec<f64>, Vec<f64>)>,
    /// Applied controls.
    pub controls: Vec<Vec<f64>>,
    /// Final distance to the goal configuration (∞-norm).
    pub final_error: f64,
    /// Wall time per tick, seconds (mean).
    pub mean_tick_s: f64,
}

/// Runs `ticks` closed-loop steps towards `q_goal` on a vector-space
/// model, re-optimizing a short horizon each tick and applying the first
/// control (classical MPC).
///
/// # Panics
/// Panics for models with quaternion joints (`nq != nv`) or failing
/// dynamics.
pub fn run_mpc(
    model: &RobotModel,
    q_goal: &[f64],
    q0: &[f64],
    ticks: usize,
    options: IlqrOptions,
) -> MpcRun {
    assert_eq!(model.nq(), model.nv(), "vector-space models only");
    let nv = model.nv();
    let mut ws = DynamicsWorkspace::new(model);
    let mut q = q0.to_vec();
    let mut qd = vec![0.0; nv];
    let mut states = vec![(q.clone(), qd.clone())];
    let mut controls = Vec::new();

    let mut solver = Ilqr::new(model, q_goal.to_vec(), options);
    let start = Instant::now();
    for _ in 0..ticks {
        let sol = solver.solve(&q, &qd);
        let u = sol.us.first().cloned().unwrap_or_else(|| vec![0.0; nv]);
        let (qn, qdn) = rk4_step(model, &mut ws, &q, &qd, &u, options.dt);
        q = qn;
        qd = qdn;
        states.push((q.clone(), qd.clone()));
        controls.push(u);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let final_error = goal_error(&q, q_goal);
    MpcRun {
        states,
        controls,
        final_error,
        mean_tick_s: elapsed / ticks.max(1) as f64,
    }
}

/// ∞-norm distance from `q` to `goal`, NaN if any entry is NaN (a
/// `f64::max` fold would skip the NaN and report a diverged state as
/// being on the goal).
fn goal_error(q: &[f64], goal: &[f64]) -> f64 {
    q.iter()
        .zip(goal)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, |m, e| if e.is_nan() || e > m { e } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_dynamics::bias_force_in_ws;
    use rbd_model::{robots, SplitMix64};

    #[test]
    fn closed_loop_reaches_goal() {
        let model = robots::serial_chain(2);
        let goal = vec![0.4, -0.3];
        let run = run_mpc(
            &model,
            &goal,
            &[0.0, 0.0],
            25,
            IlqrOptions {
                horizon: 20,
                max_iters: 6,
                dt: 0.02,
                w_terminal: 120.0,
                ..IlqrOptions::default()
            },
        );
        assert_eq!(run.states.len(), 26);
        assert_eq!(run.controls.len(), 25);
        assert!(
            run.final_error < 0.2,
            "closed loop did not approach the goal: err {}",
            run.final_error
        );
        assert!(run.mean_tick_s > 0.0);
    }

    #[test]
    fn closed_loop_beats_open_loop_under_disturbance() {
        // Apply the first tick's plan open-loop vs re-planning: with a
        // velocity disturbance injected mid-run, MPC ends closer.
        let model = robots::serial_chain(2);
        let goal = vec![0.5, 0.2];
        let opts = IlqrOptions {
            horizon: 20,
            max_iters: 6,
            dt: 0.02,
            w_terminal: 120.0,
            ..IlqrOptions::default()
        };

        // Open loop: one solve, roll out its controls with a disturbance.
        let mut solver = Ilqr::new(&model, goal.clone(), opts);
        let sol = solver.solve(&[0.0, 0.0], &[0.0, 0.0]);
        let mut ws = DynamicsWorkspace::new(&model);
        let (mut q, mut qd) = (vec![0.0, 0.0], vec![0.0, 0.0]);
        for (k, u) in sol.us.iter().enumerate().take(20) {
            if k == 8 {
                qd[0] += 1.5; // kick
            }
            let (qn, qdn) = rk4_step(&model, &mut ws, &q, &qd, u, opts.dt);
            q = qn;
            qd = qdn;
        }
        let open_err = goal_error(&q, &goal);

        // Closed loop with the same kick.
        let mut qc = vec![0.0, 0.0];
        let mut qdc = vec![0.0, 0.0];
        for k in 0..20 {
            if k == 8 {
                qdc[0] += 1.5;
            }
            let sol = solver.solve(&qc, &qdc);
            let u = sol.us[0].clone();
            let (qn, qdn) = rk4_step(&model, &mut ws, &qc, &qdc, &u, opts.dt);
            qc = qn;
            qdc = qdn;
        }
        let closed_err = goal_error(&qc, &goal);

        assert!(
            closed_err < open_err + 1e-9,
            "closed {closed_err} vs open {open_err}"
        );
    }

    #[test]
    fn trajectory_is_the_plant_rollout_of_the_controls() {
        // The planner's rollout and the plant integrate the same bits:
        // each returned state is `rk4_step` of the previous one under
        // the returned control, from the requested start. Three solves
        // per solver, so stale or misswapped buffers would show.
        // `max_iters: 0` returns the initial controls alone: gravity
        // compensation `g(q0)` on the first solve, then the last plan
        // shifted by one step with its last control repeated. The first
        // start is off the upright pose, where `g` vanishes.
        let iiwa = robots::iiwa();
        let q0 = iiwa.neutral_config();
        let goal = q0
            .iter()
            .enumerate()
            .map(|(i, q)| q + 0.5 - 0.15 * i as f64);
        let fig2c = IlqrOptions {
            horizon: 20,
            dt: 0.02,
            max_iters: 8,
            ..IlqrOptions::default()
        };
        let chain = robots::serial_chain(2);
        let chain_opts = IlqrOptions {
            horizon: 20,
            max_iters: 6,
            w_terminal: 120.0,
            ..IlqrOptions::default()
        };
        let cases = [
            (&iiwa, goal.collect::<Vec<_>>(), fig2c, q0),
            (&chain, vec![0.6, -0.4], chain_opts, vec![0.1, 0.0]),
        ];
        let bits = |(q, qd): &(Vec<f64>, Vec<f64>)| -> Vec<u64> {
            q.iter().chain(qd).map(|x| x.to_bits()).collect()
        };
        let us_bits =
            |us: &[Vec<f64>]| -> Vec<u64> { us.concat().iter().map(|x| x.to_bits()).collect() };
        for (model, goal, options, q0) in cases {
            let mut ws = DynamicsWorkspace::new(model);
            let qd0 = vec![0.0; model.nv()];
            for max_iters in [0, options.max_iters] {
                let options = IlqrOptions {
                    max_iters,
                    ..options
                };
                let mut ilqr = Ilqr::new(model, goal.clone(), options);
                let mut last: Option<Vec<Vec<f64>>> = None;
                for shift in [0.05, 0.0, -0.1] {
                    let q_start: Vec<f64> = q0.iter().map(|q| q + shift).collect();
                    let r = ilqr.solve(&q_start, &qd0);
                    if max_iters == 0 {
                        let initial = match last {
                            None => {
                                bias_force_in_ws(model, &mut ws, &q_start, &qd0, None);
                                vec![ws.tau.clone(); options.horizon]
                            }
                            Some(us) => [&us[1..], &us[us.len() - 1..]].concat(),
                        };
                        assert!(initial.concat().iter().any(|&u| u != 0.0));
                        assert_eq!(us_bits(&r.us), us_bits(&initial), "{}", model.name());
                    }
                    last = Some(r.us.clone());
                    assert_eq!(
                        r.cost_history.len() > 1,
                        max_iters > 0,
                        "accepted iterations"
                    );
                    assert_eq!(r.trajectory.len(), options.horizon + 1);
                    assert_eq!(r.trajectory[0], (q_start, qd0.clone()));
                    for (k, u) in r.us.iter().enumerate() {
                        let (q, qd) = &r.trajectory[k];
                        let next = rk4_step(model, &mut ws, q, qd, u, options.dt);
                        assert_eq!(
                            bits(&next),
                            bits(&r.trajectory[k + 1]),
                            "{} step {k} differs from rk4_step",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn horizon_40_closed_loop_stays_finite() {
        // The `IlqrOptions` default horizon on a seeded iiwa episode.
        // From zero initial controls, ticks 1 and 2 ended at a NaN cost
        // after no accepted iteration: the free-fall rollout diverged.
        let model = robots::iiwa();
        let mut rng = SplitMix64::new(1000);
        let mut draw = |range: f64| -> Vec<f64> {
            let neutral = model.neutral_config();
            neutral
                .iter()
                .map(|q| q + range * rng.next_symmetric())
                .collect()
        };
        let (goal, mut q) = (draw(0.8), draw(0.3));
        let mut qd = vec![0.0; model.nv()];
        let options = IlqrOptions {
            horizon: 40,
            dt: 0.02,
            max_iters: 8,
            ..IlqrOptions::default()
        };
        let mut ilqr = Ilqr::new(&model, goal, options);
        let mut ws = DynamicsWorkspace::new(&model);
        for tick in 0..3 {
            let r = ilqr.solve(&q, &qd);
            let h = &r.cost_history;
            assert!(h.iter().all(|c| c.is_finite()), "tick {tick}: {h:?}");
            assert!(h.len() >= 2, "tick {tick}: no accepted iteration");
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &r.us[0], options.dt);
        }
    }

    #[test]
    fn goal_error_propagates_nan() {
        assert_eq!(goal_error(&[0.5, -1.0], &[0.0, 0.0]), 1.0);
        assert!(goal_error(&[f64::NAN, 2.0], &[0.0, 0.0]).is_nan());
        assert!(goal_error(&[2.0, f64::NAN], &[0.0, 0.0]).is_nan());
    }
}
