//! Operation-count models for every submodule, derived from the same
//! sparsity/constant analysis the paper performs on the per-joint
//! matrices (Fig 6b: 8 distinct products in `X_n`, 8 non-zero constants
//! in `I_n`, one-hot `S_n`; Fig 7b/c: incremental columns; Fig 8b:
//! symmetric `I^A` with priority vectors).
//!
//! The one FLOP model of the workspace: the accelerator simulator
//! (`rbd_accel`, which re-exports this module) derives its timing and
//! resources from it, and [`BatchEval`](crate::BatchEval)'s work gate
//! estimates batch cost with it ([`delta_fd_flops`] by default).

use rbd_model::{JointType, RobotModel};

/// Fixed-point multiply/add/special-function counts of one submodule
/// activation (one task through one pipeline stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCount {
    /// Multiplications (map to DSP slices).
    pub mul: usize,
    /// Additions/subtractions (map to LUT fabric).
    pub add: usize,
    /// Trigonometric evaluations (Taylor pipelines).
    pub trig: usize,
    /// Reciprocals (fixed↔float converter units).
    pub recip: usize,
}

impl OpCount {
    /// Element-wise sum.
    pub fn plus(self, r: OpCount) -> OpCount {
        OpCount {
            mul: self.mul + r.mul,
            add: self.add + r.add,
            trig: self.trig + r.trig,
            recip: self.recip + r.recip,
        }
    }

    /// Scales all counts (e.g. per-column costs).
    pub fn times(self, k: usize) -> OpCount {
        OpCount {
            mul: self.mul * k,
            add: self.add * k,
            trig: self.trig * k,
            recip: self.recip * k,
        }
    }
}

/// Cost of updating the joint transform `X_i(q, sin q, cos q)`
/// (§IV-A1/A2: 12 non-constant elements from 8 products for a revolute
/// joint; recomputed rather than transferred in backward submodules).
pub fn xform_update(jt: &JointType) -> OpCount {
    match jt {
        JointType::Revolute(_) => OpCount {
            mul: 8,
            add: 4,
            ..Default::default()
        },
        JointType::Prismatic(_) => OpCount {
            mul: 3,
            add: 3,
            ..Default::default()
        },
        JointType::Planar => OpCount {
            mul: 10,
            add: 6,
            ..Default::default()
        },
        JointType::Spherical => OpCount {
            mul: 16,
            add: 12,
            ..Default::default()
        },
        JointType::Translation3 => OpCount {
            add: 3,
            ..Default::default()
        },
        JointType::Floating => OpCount {
            mul: 20,
            add: 15,
            ..Default::default()
        },
    }
}

/// Sparse Plücker motion/force transform of one 6-vector
/// (rotation 2×9 mults + translation cross 6 — the top-right-zero
/// structure of §II).
pub const XFORM_APPLY: OpCount = OpCount {
    mul: 24,
    add: 18,
    trig: 0,
    recip: 0,
};

/// Spatial cross product (`×` or `×*`): three 3-D crosses.
pub const SPATIAL_CROSS: OpCount = OpCount {
    mul: 18,
    add: 9,
    trig: 0,
    recip: 0,
};

/// Sparse symmetric inertia application `I·v` (8 distinct constants).
pub const INERTIA_APPLY: OpCount = OpCount {
    mul: 20,
    add: 14,
    trig: 0,
    recip: 0,
};

/// `Rf_i` — RNEA forward submodule (Fig 6b): update `X`, compute
/// `v, a, f`.
pub fn rf_cost(jt: &JointType) -> OpCount {
    let ni = jt.nv();
    xform_update(jt)
        .plus(XFORM_APPLY.times(2)) // X v_λ and X a_λ
        .plus(SPATIAL_CROSS.times(2)) // v × S q̇ and v ×* (I v)
        .plus(INERTIA_APPLY.times(2)) // I a and I v
        .plus(OpCount {
            mul: 2 * ni, // S q̇, S q̈ scaling
            add: 12 + 2 * ni,
            ..Default::default()
        })
}

/// `Rb_i` — RNEA backward submodule: re-update `X` (§IV-A2), project
/// `τ = Sᵀ f`, transform the force to the parent.
pub fn rb_cost(jt: &JointType) -> OpCount {
    let ni = jt.nv();
    xform_update(jt).plus(XFORM_APPLY).plus(OpCount {
        mul: ni, // one-hot Sᵀ f is free for revolute; general ni dot rows
        add: 6 + ni,
        ..Default::default()
    })
}

/// `Df_i` — ΔRNEA forward submodule at ancestor-column count `ncols`
/// (§IV-A4: work grows with the incremental columns; Fig 7c).
///
/// Per column: `∂v` (1 cross), `∂a` (3 crosses), `∂f` (2 inertia ops +
/// 2 crosses), plus the per-joint base (transform updates, new-column
/// initialisation).
pub fn df_cost(jt: &JointType, ncols: usize) -> OpCount {
    let per_col = SPATIAL_CROSS
        .times(6)
        .plus(INERTIA_APPLY.times(2))
        .plus(OpCount {
            add: 24,
            ..Default::default()
        });
    xform_update(jt)
        .plus(per_col.times(ncols.max(1)))
        .plus(OpCount {
            mul: 12,
            add: 12,
            ..Default::default()
        })
}

/// `Db_i` — ΔRNEA backward submodule: per column, one force transform
/// plus the `∂τ` row dot products.
pub fn db_cost(jt: &JointType, ncols: usize) -> OpCount {
    let ni = jt.nv();
    xform_update(jt).plus(
        XFORM_APPLY
            .plus(OpCount {
                mul: 6 * ni,
                add: 6 * ni + 6,
                ..Default::default()
            })
            .times(ncols.max(1)),
    )
}

/// IDSVA per-body cost: world-frame kinematics (transforms of `S`
/// columns, `v`/`a` updates, inertia congruence ≈ one `Rf`-class
/// forward step), the momentum/force products, the compact
/// inertia-rate build (9 unique scalars from ~40 fused multiply-adds)
/// and the four composite accumulations (10 + 6 + 9 + 6 scalars).
fn idsva_body_cost(jt: &JointType) -> OpCount {
    rf_cost(jt).plus(OpCount {
        mul: 46,
        add: 66,
        ..Default::default()
    })
}

/// IDSVA per-DOF cost: the three offset vectors `w/γ/ζ` (4 spatial
/// crosses), the row-side projections `I^C S`, `J^C S`, `S ×* H^C`
/// (~90 flops) and the column-side vectors `e`/`d1` (one more inertia
/// application, rate application, cross and the combining adds).
fn idsva_dof_cost() -> OpCount {
    SPATIAL_CROSS
        .times(6)
        .plus(INERTIA_APPLY.times(3))
        .plus(OpCount {
            mul: 45,
            add: 60,
            ..Default::default()
        })
}

/// IDSVA per-related-pair cost: two fused 6-D dot pairs (`∂τ/∂q` and
/// `∂τ/∂q̇` entries).
const IDSVA_PAIR: OpCount = OpCount {
    mul: 24,
    add: 22,
    trig: 0,
    recip: 0,
};

/// Estimated total flop count (muls + adds) of one analytical ΔID
/// evaluation on `model` by the host's IDSVA kernel: per-body composite
/// builds, per-DOF projections and two dots per related ordered DOF
/// pair. [`delta_fd_flops`] builds on it.
pub fn delta_id_flops(model: &RobotModel) -> f64 {
    let topo = model.topology();
    let mut total = OpCount::default();
    for i in 0..model.num_bodies() {
        let jt = &model.joint(i).jtype;
        let ni = jt.nv();
        let chain_cols: usize = ni
            + topo
                .ancestors(i)
                .iter()
                .map(|&a| model.joint(a).jtype.nv())
                .sum::<usize>();
        // Ordered related pairs owned by this body: its own DOFs against
        // the full chain (row fill) plus the strict ancestors against its
        // own DOFs (column fill).
        let pairs = ni * chain_cols + ni * (chain_cols - ni);
        total = total
            .plus(idsva_body_cost(jt))
            .plus(idsva_dof_cost().times(ni))
            .plus(IDSVA_PAIR.times(pairs))
            .plus(trig_cost(jt));
    }
    (total.mul + total.add) as f64
}

/// `Mb_i` — MMinvGen backward submodule with `ncols` live subtree
/// columns (Fig 8b): lazy `I^A` update with priority vectors
/// (symmetric 6×6 congruence ≈ 2 sparse 6×6·6×6 with symmetry), `U`,
/// `D`, `D⁻¹` (reciprocal unit), per-column `F` updates and transforms.
pub fn mb_cost(jt: &JointType, ncols: usize) -> OpCount {
    let ni = jt.nv();
    let congruence = OpCount {
        mul: 216, // symmetric 6×6 congruence, upper triangle only
        add: 180,
        ..Default::default()
    };
    let per_col = XFORM_APPLY.plus(OpCount {
        mul: 6 * ni + ni, // U·Minv update + Sᵀ F dot
        add: 6 * ni + ni,
        ..Default::default()
    });
    xform_update(jt)
        .plus(congruence)
        .plus(per_col.times(ncols.max(1)))
        .plus(OpCount {
            mul: 6 * ni + ni * ni + 36, // U = I^A S, D, U D⁻¹ Uᵀ rank-ni update
            add: 30 + ni * ni,
            recip: ni, // D⁻¹ via fixed↔float reciprocal (§IV-B2)
            ..Default::default()
        })
}

/// `Mf_i` — MMinvGen forward submodule with `ncols` trailing columns:
/// per column a motion transform, the `D⁻¹Uᵀ` correction and the `P`
/// update.
pub fn mf_cost(jt: &JointType, ncols: usize) -> OpCount {
    let ni = jt.nv();
    let per_col = XFORM_APPLY.plus(OpCount {
        mul: 6 * ni + ni * ni + 6 * ni,
        add: 6 * ni + ni * ni + 6 * ni,
        ..Default::default()
    });
    xform_update(jt).plus(per_col.times(ncols.max(1)))
}

/// Global Trigonometric Module: one Taylor `sin`/`cos` pair per
/// trig-using DOF (7-term Horner, §V-B2).
pub fn trig_cost(jt: &JointType) -> OpCount {
    if jt.uses_trig() {
        OpCount {
            mul: 14,
            add: 14,
            trig: 1,
            ..Default::default()
        }
    } else {
        OpCount::default()
    }
}

/// Estimated total flop count (muls + adds) of one analytical ΔFD
/// evaluation on `model`: the ΔID sweeps ([`delta_id_flops`]), the
/// paper's MMinvGen submodules (`Mb`/`Mf`) at each body's
/// ancestor-column count, plus the final dense `-M⁻¹·∂τ` products.
/// This is the default per-point cost of the **work-based gate** of
/// [`BatchEval`](crate::BatchEval): a paper-accurate replacement for
/// size heuristics (like iLQR's old `nv >= 4` rule) when deciding
/// whether a batch is worth fanning out across the worker pool.
pub fn delta_fd_flops(model: &RobotModel) -> f64 {
    let topo = model.topology();
    let mut total = OpCount::default();
    for i in 0..model.num_bodies() {
        let jt = &model.joint(i).jtype;
        // Ancestor-DOF columns live at this body — own DOFs plus every
        // ancestor's (`Topology::ancestors` excludes `i` itself, same
        // convention as `SapLayout::chain_dofs`).
        let cols: usize = jt.nv()
            + topo
                .ancestors(i)
                .iter()
                .map(|&a| model.joint(a).jtype.nv())
                .sum::<usize>();
        total = total.plus(mb_cost(jt, cols)).plus(mf_cost(jt, cols));
    }
    let nv = model.nv() as f64;
    // ΔID sweeps + MMinvGen sweeps + the final −M⁻¹·∂τ products over the
    // two nv×nv derivative blocks (branch-sparse in practice; dense here
    // as a safe upper estimate).
    delta_id_flops(model) + (total.mul + total.add) as f64 + 4.0 * nv * nv * nv
}

/// Estimated flop count of one RK4-with-sensitivity sampling point (the
/// iLQR LQ approximation's per-point unit): four serial ΔFD stage
/// evaluations plus the chain-rule products that combine them (~6
/// `nv×nv` matrix products per stage over the three sensitivity
/// blocks). Install into
/// [`BatchEval::set_point_flops`](crate::BatchEval::set_point_flops)
/// before batching LQ points.
pub fn rk4_sens_point_flops(model: &RobotModel) -> f64 {
    let nv = model.nv() as f64;
    4.0 * delta_fd_flops(model) + 48.0 * nv * nv * nv
}

/// `Af_i`/`Ab_i` — articulated-body (ABA) per-body cost: pass 1
/// (velocities, bias accelerations, articulated init ≈ one `Rf`-class
/// step), pass 2 (U = I^A S, the joint-space D and its LDLᵀ inverse,
/// the rank-`ni` `I^A − U D⁻¹ Uᵀ` update, the symmetric congruence
/// shift — ≈ the MMinvGen congruence — and the bias propagation) and
/// pass 3 (acceleration transform + joint-space solve).
fn aba_body_cost(jt: &JointType) -> OpCount {
    let ni = jt.nv();
    let congruence = OpCount {
        mul: 216, // symmetric 6×6 congruence, upper triangle only
        add: 180,
        ..Default::default()
    };
    rf_cost(jt)
        .plus(congruence)
        .plus(XFORM_APPLY.times(2)) // pa' to parent, a' from parent
        .plus(INERTIA_APPLY.times(ni + 1)) // U columns + Ia·c
        .plus(OpCount {
            mul: 36 * ni * ni + 7 * ni + ni * ni * ni / 3 + 36, // U DU rank update, D, LDLᵀ, solves
            add: 36 * ni * ni + 7 * ni + ni * ni * ni / 3 + 30,
            recip: ni,
            ..Default::default()
        })
}

/// Estimated total flop count (muls + adds) of one O(n) ABA forward
/// dynamics evaluation on `model` — the per-stage unit of the rollout
/// workloads (the lane ABA evaluates exactly this sweep per lane, and
/// [`aba_in_ws`](crate::aba_in_ws) is its width-1 call).
pub fn aba_flops(model: &RobotModel) -> f64 {
    let mut total = OpCount::default();
    for i in 0..model.num_bodies() {
        let jt = &model.joint(i).jtype;
        total = total.plus(aba_body_cost(jt)).plus(trig_cost(jt));
    }
    (total.mul + total.add) as f64
}

/// Estimated flop count of one RK4/ABA rollout sampling point over
/// `horizon` steps (the sampling-MPC / MPPI per-sample unit): four ABA
/// stage evaluations plus the stage-combination and manifold-integration
/// arithmetic per step. This is the **work-gating hook** for
/// [`BatchEval`](crate::BatchEval) lane-group dispatch — install via
/// `set_point_flops` before batching rollout samples so tiny sample
/// counts stay inline on the caller. The estimate is per *sample*
/// (lane), independent of the lane width the kernels batch at.
pub fn rk4_rollout_point_flops(model: &RobotModel, horizon: usize) -> f64 {
    let nv = model.nv() as f64;
    let nq = model.nq() as f64;
    horizon.max(1) as f64 * (4.0 * aba_flops(model) + 14.0 * nv + 8.0 * nq)
}

/// Schedule-module matrix-vector product `A(x - y)` with symmetric `A`
/// (Fig 9c): `n(n+1)/2` distinct products per column.
pub fn sym_matvec_cost(n: usize) -> OpCount {
    OpCount {
        mul: n * (n + 1) / 2 + n,
        add: n * n,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revolute_rf_cost_matches_paper_scale() {
        // The Fig 6b analysis puts a revolute forward submodule near 130
        // multiplies; the model should be in that neighbourhood.
        let c = rf_cost(&JointType::revolute_z());
        assert!((100..170).contains(&c.mul), "mul = {}", c.mul);
    }

    #[test]
    fn backward_cheaper_than_forward() {
        // §IV-A2: "the forward submodules are more complex than the
        // backward submodules".
        let jt = JointType::revolute_z();
        assert!(rb_cost(&jt).mul < rf_cost(&jt).mul);
    }

    #[test]
    fn df_cost_grows_linearly_with_depth() {
        // Fig 7c: resource usage of ΔRNEA fwd submodules grows ~linearly
        // with the level.
        let jt = JointType::revolute_z();
        let c: Vec<usize> = (1..=7).map(|d| df_cost(&jt, d).mul).collect();
        for w in c.windows(2) {
            assert!(w[1] > w[0]);
        }
        let slope1 = c[1] - c[0];
        let slope6 = c[6] - c[5];
        assert_eq!(slope1, slope6, "linear growth expected");
    }

    #[test]
    fn prismatic_needs_no_trig() {
        assert_eq!(trig_cost(&JointType::prismatic_z()).trig, 0);
        assert_eq!(trig_cost(&JointType::revolute_x()).trig, 1);
    }

    #[test]
    fn mb_includes_reciprocal() {
        assert_eq!(mb_cost(&JointType::revolute_z(), 3).recip, 1);
        assert_eq!(mb_cost(&JointType::Floating, 1).recip, 6);
    }

    #[test]
    fn opcount_algebra() {
        let a = OpCount {
            mul: 2,
            add: 3,
            trig: 1,
            recip: 0,
        };
        let s = a.plus(a).times(2);
        assert_eq!(s.mul, 8);
        assert_eq!(s.add, 12);
        assert_eq!(s.trig, 4);
    }

    #[test]
    fn sym_matvec_scales_quadratically() {
        assert!(sym_matvec_cost(14).mul > 2 * sym_matvec_cost(7).mul);
    }

    #[test]
    fn delta_fd_flops_tracks_measured_kernel_scale() {
        // Order-of-magnitude anchors from the measured medians at ~3
        // flops/ns: iiwa ≈ 20 kflop, Atlas ≈ 200 kflop; the estimate
        // must land within a small factor and preserve the ordering.
        use rbd_model::robots;
        let iiwa = delta_fd_flops(&robots::iiwa());
        let hyq = delta_fd_flops(&robots::hyq());
        let atlas = delta_fd_flops(&robots::atlas());
        assert!((5e3..1e5).contains(&iiwa), "iiwa estimate {iiwa}");
        assert!((5e4..2e6).contains(&atlas), "atlas estimate {atlas}");
        assert!(iiwa < hyq && hyq < atlas);
    }

    #[test]
    fn rk4_point_costs_more_than_four_dfd() {
        use rbd_model::robots;
        let m = robots::iiwa();
        assert!(rk4_sens_point_flops(&m) > 4.0 * delta_fd_flops(&m));
    }

    #[test]
    fn idsva_estimate_undercuts_expansion_and_scales() {
        use rbd_model::robots;
        for m in [robots::iiwa(), robots::hyq(), robots::atlas()] {
            // The paper's Df/Db expansion model at each body's
            // ancestor-column count, for comparison.
            let mut expansion = OpCount::default();
            for i in 0..m.num_bodies() {
                let jt = &m.joint(i).jtype;
                let cols = jt.nv()
                    + m.topology()
                        .ancestors(i)
                        .iter()
                        .map(|&a| m.joint(a).jtype.nv())
                        .sum::<usize>();
                expansion = expansion
                    .plus(df_cost(jt, cols))
                    .plus(db_cost(jt, cols))
                    .plus(trig_cost(jt));
            }
            let exp = (expansion.mul + expansion.add) as f64;
            let idsva = delta_id_flops(&m);
            // The IDSVA restructure must be modelled as cheaper (the
            // measured kernels are 2-3.5x faster; the op model is more
            // conservative but must preserve the ordering).
            assert!(
                idsva < exp,
                "{}: idsva {idsva} !< expansion {exp}",
                m.name()
            );
            assert!(idsva > 0.0);
        }
        // Deeper trees cost more.
        let small = delta_id_flops(&robots::iiwa());
        let large = delta_id_flops(&robots::atlas());
        assert!(large > small);
    }

    #[test]
    fn aba_flops_cheaper_than_delta_fd_and_scales() {
        use rbd_model::robots;
        let iiwa = aba_flops(&robots::iiwa());
        let hyq = aba_flops(&robots::hyq());
        let atlas = aba_flops(&robots::atlas());
        // Plain O(n) FD is far cheaper than the full ΔFD pipeline and
        // grows with model size.
        assert!(iiwa < hyq && hyq < atlas);
        for m in [robots::iiwa(), robots::hyq(), robots::atlas()] {
            assert!(aba_flops(&m) < delta_fd_flops(&m), "{}", m.name());
            assert!(aba_flops(&m) > 0.0);
        }
    }

    #[test]
    fn rollout_point_flops_scale_with_horizon() {
        use rbd_model::robots;
        let m = robots::hyq();
        let h1 = rk4_rollout_point_flops(&m, 1);
        let h8 = rk4_rollout_point_flops(&m, 8);
        assert!(h1 > 4.0 * aba_flops(&m));
        assert!((h8 / h1 - 8.0).abs() < 1e-9, "linear in horizon");
        // Zero horizon clamps to one step rather than gating to zero.
        assert_eq!(rk4_rollout_point_flops(&m, 0), h1);
    }
}
