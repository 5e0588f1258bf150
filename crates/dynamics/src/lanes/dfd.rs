//! Lane-batched ΔFD: `K` sampling points through one lockstep pass of
//! the pipeline of [`crate::fd_derivatives_into`] (Fig 9a) without
//! external forces — MMinvGen's `M⁻¹`, the RNEA bias force and `q̈`,
//! IDSVA's `∂τ/∂q`, `∂τ/∂q̇` at that `q̈`, and the `−M⁻¹·∂τ` gather.
//!
//! Every sweep repeats the scalar kernel's op sequence lane by lane, so
//! lane `l` of every output equals `fd_derivatives_into` on lane `l`'s
//! inputs bit for bit. The per-body 6-D arithmetic of the four sweeps
//! runs on the `rbd_spatial` lane types; the gather walks the same
//! branch sparsity (`rel_dofs`) over a lane-major `M⁻¹` and writes each
//! column of `∂q̈/∂q`, `∂q̈/∂q̇` straight into the `K` per-point outputs.

use super::{invert_block_lanes, LaneWorkspace};
use crate::fd::FdDerivatives;
use crate::workspace::DynamicsWorkspace;
use crate::DynamicsError;
use rbd_model::RobotModel;
use rbd_spatial::{
    LaneForceVec, LaneInertiaRate, LaneMat6, LaneMotionVec, LaneSpatialInertia, LaneXform, MatN,
    MotionVec, Vec3,
};

/// Lane-major scratch of [`fd_derivatives_lanes_into`], on top of the
/// [`LaneWorkspace`] whose kinematics (world transforms included),
/// articulated inertias, `U` columns and `D⁻¹` blocks it reuses. About
/// 0.6 MB for Atlas at `K = 4`; allocate once per (model, executor) and
/// reuse.
#[derive(Debug, Clone)]
pub struct LaneFdScratch<const K: usize> {
    /// MMinvGen force accumulators, `nb × nv` flat.
    f_minv: Vec<LaneForceVec<K>>,
    /// MMinvGen forward-sweep motion columns, `nb × nv` flat.
    p_cols: Vec<LaneMotionVec<K>>,
    /// `iX_λ P_λ[:, j]` staging, length `nv`.
    tp_cols: Vec<LaneMotionVec<K>>,
    /// `M⁻¹`, row-major `nv × nv`.
    minv: Vec<[f64; K]>,
    /// Net body forces: the RNEA accumulator, then IDSVA's composite `F`.
    f: Vec<LaneForceVec<K>>,
    /// Bias torque `C`, then `τ − C`.
    rhs: Vec<[f64; K]>,
    /// Constant zero `q̈` of the bias-force pass.
    zero: Vec<[f64; K]>,
    /// World-frame motion-subspace columns per DOF.
    s_world: Vec<LaneMotionVec<K>>,
    /// World-frame velocities and accelerations per body.
    v_world: Vec<LaneMotionVec<K>>,
    a_world: Vec<LaneMotionVec<K>>,
    /// IDSVA composites per body.
    inertia_c: Vec<LaneSpatialInertia<K>>,
    h_c: Vec<LaneForceVec<K>>,
    rate_c: Vec<LaneInertiaRate<K>>,
    /// IDSVA per-DOF `w_j`, `γ_j`, `ζ_j`.
    w: Vec<LaneMotionVec<K>>,
    gamma: Vec<LaneMotionVec<K>>,
    zeta: Vec<LaneMotionVec<K>>,
    /// `∂τ/∂q`, `∂τ/∂q̇`, row-major `nv × nv`; only the entries the
    /// gather reads (the related-DOF pairs) are ever written.
    dtau_dq: Vec<[f64; K]>,
    dtau_dqd: Vec<[f64; K]>,
    /// One output column of the gather.
    col: Vec<[f64; K]>,
}

impl<const K: usize> LaneFdScratch<K> {
    /// Allocates the scratch for `model`.
    pub fn new(model: &RobotModel) -> Self {
        let (nb, nv) = (model.num_bodies(), model.nv());
        Self {
            f_minv: vec![LaneForceVec::zero(); nb * nv],
            p_cols: vec![LaneMotionVec::zero(); nb * nv],
            tp_cols: vec![LaneMotionVec::zero(); nv],
            minv: vec![[0.0; K]; nv * nv],
            f: vec![LaneForceVec::zero(); nb],
            rhs: vec![[0.0; K]; nv],
            zero: vec![[0.0; K]; nv],
            s_world: vec![LaneMotionVec::zero(); nv],
            v_world: vec![LaneMotionVec::zero(); nb],
            a_world: vec![LaneMotionVec::zero(); nb],
            inertia_c: vec![LaneSpatialInertia::zero(); nb],
            h_c: vec![LaneForceVec::zero(); nb],
            rate_c: vec![LaneInertiaRate::zero(); nb],
            w: vec![LaneMotionVec::zero(); nv],
            gamma: vec![LaneMotionVec::zero(); nv],
            zeta: vec![LaneMotionVec::zero(); nv],
            dtau_dq: vec![[0.0; K]; nv * nv],
            dtau_dqd: vec![[0.0; K]; nv * nv],
            col: vec![[0.0; K]; nv],
        }
    }
}

avx2_dispatch! {
/// Lane-batched ΔFD without external forces: [`crate::fd_derivatives_into`]
/// at `K` sampling points in lockstep. Inputs are flat lane-major
/// slices (`q` is `K·nq`, `qd` and `tau` are `K·nv`); lane `l`'s result
/// lands in `outs[l]` for `l < outs.len() <= K`, bit-identical to the
/// scalar kernel on lane `l`'s inputs. Lanes past `outs.len()` are
/// evaluated and dropped, so a short batch pads its last group with
/// copies of a real point. `ws` (a workspace of the same model) lends
/// only its topology index sets (`chain`, `desc`, `rel`), read-only.
/// Zero steady-state allocation; AVX2 hosts run an AVX2-compiled clone
/// with bit-identical outputs.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] when any lane's mass
/// matrix is singular; the outputs are then unspecified.
///
/// # Panics
/// Panics on dimension mismatches or when `outs.len() > K`.
#[allow(clippy::too_many_arguments)] // topology + two lane scratches + three inputs + outputs
pub fn fd_derivatives_lanes_into<const K: usize>(
    model: &RobotModel,
    ws: &DynamicsWorkspace,
    lws: &mut LaneWorkspace<K>,
    scratch: &mut LaneFdScratch<K>,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    outs: &mut [FdDerivatives],
) -> Result<(), DynamicsError> => fd_lanes_impl, fd_lanes_avx2
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) fn fd_lanes_impl<const K: usize>(
    model: &RobotModel,
    ws: &DynamicsWorkspace,
    lws: &mut LaneWorkspace<K>,
    sc: &mut LaneFdScratch<K>,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    outs: &mut [FdDerivatives],
) -> Result<(), DynamicsError> {
    let nv = model.nv();
    assert!(outs.len() <= K, "more outputs than lanes");
    lws.update_kinematics(model, q);
    lws.update_xworld(model);
    LaneWorkspace::pack_dof(qd, &mut lws.qd_l);
    LaneWorkspace::pack_dof(tau, &mut lws.tau_l);
    // Every sweep gets its buffers as separate slices: slice arguments
    // tell the compiler the buffers do not alias, which roughly halves
    // the time of the gather's inner loop.
    let LaneWorkspace {
        s,
        s_off,
        xup,
        xworld,
        v,
        a,
        ia,
        ia_init,
        u,
        d_inv,
        qd_l,
        qdd_l,
        tau_l,
        ..
    } = lws;
    let DynamicsWorkspace {
        chain_offsets,
        chain_dofs,
        desc_offsets,
        desc_dofs,
        rel_offsets,
        rel_dofs,
        first_child_v,
        dof_body,
        ..
    } = ws;
    let LaneFdScratch {
        f_minv,
        p_cols,
        tp_cols,
        minv,
        f,
        rhs,
        zero,
        s_world,
        v_world,
        a_world,
        inertia_c,
        h_c,
        rate_c,
        w,
        gamma,
        zeta,
        dtau_dq,
        dtau_dqd,
        col,
    } = sc;
    let tree = Tree {
        s,
        s_off,
        xup,
        chain_offsets,
        chain_dofs,
        desc_offsets,
        desc_dofs,
        first_child_v,
    };
    // Steps ①-③ (Fig 9a): M⁻¹, C, q̈ = M⁻¹ (τ − C).
    minv_lanes(
        model, tree, ia_init, ia, u, d_inv, f_minv, p_cols, tp_cols, minv,
    )?;
    bias_force_lanes(model, tree, qd_l, zero, v, a, f, rhs);
    for (r, t) in rhs.iter_mut().zip(tau_l.iter()) {
        for l in 0..K {
            r[l] = t[l] - r[l];
        }
    }
    for (i, qdd) in qdd_l.iter_mut().enumerate() {
        let row = &minv[i * nv..(i + 1) * nv];
        for l in 0..K {
            // `MatN::mul_slice_into`'s per-row `sum`.
            qdd[l] = row.iter().zip(rhs.iter()).map(|(a, b)| a[l] * b[l]).sum();
        }
    }
    // Steps ④-⑥: ΔID at q̈, then ∂q̈/∂u = −M⁻¹ ∂τ/∂u.
    idsva_lanes(
        model,
        tree,
        xworld,
        qd_l,
        qdd_l,
        (f, s_world, v_world, a_world),
        (inertia_c, h_c, rate_c),
        (w, gamma, zeta),
        dtau_dq,
        dtau_dqd,
    );
    for (l, out) in outs.iter_mut().enumerate() {
        out.ensure_dims(nv);
        for i in 0..nv {
            out.qdd[i] = qdd_l[i][l];
            for j in 0..nv {
                out.dqdd_dtau[(i, j)] = minv[i * nv + j][l];
            }
        }
    }
    let rel = (&rel_offsets[..], &rel_dofs[..], &dof_body[..]);
    gather_lanes(rel, minv, dtau_dq, col, outs, |o| &mut o.dqdd_dq);
    gather_lanes(rel, minv, dtau_dqd, col, outs, |o| &mut o.dqdd_dqd);
    Ok(())
}

/// The read-only model tables the sweeps share.
#[derive(Clone, Copy)]
struct Tree<'a, const K: usize> {
    /// Local motion-subspace columns and their per-body offsets.
    s: &'a [MotionVec],
    s_off: &'a [usize],
    /// Parent→child transforms.
    xup: &'a [LaneXform<K>],
    chain_offsets: &'a [usize],
    chain_dofs: &'a [usize],
    desc_offsets: &'a [usize],
    desc_dofs: &'a [usize],
    first_child_v: &'a [usize],
}

impl<const K: usize> Tree<'_, K> {
    /// Body `i`'s DOF count.
    #[inline(always)]
    fn ni(&self, i: usize) -> usize {
        self.s_off[i + 1] - self.s_off[i]
    }

    /// Body `i`'s strict-descendant DOFs.
    #[inline(always)]
    fn desc(&self, i: usize) -> &[usize] {
        &self.desc_dofs[self.desc_offsets[i]..self.desc_offsets[i + 1]]
    }

    /// Body `i`'s ancestor+self DOFs.
    #[inline(always)]
    fn chain(&self, i: usize) -> &[usize] {
        &self.chain_dofs[self.chain_offsets[i]..self.chain_offsets[i + 1]]
    }
}

/// Lane MMinvGen (mirror of [`crate::mminv_gen_into`] with only the
/// `M⁻¹` output) into `minv`, leaving `U` and `D⁻¹` in `u` / `d_inv`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn minv_lanes<const K: usize>(
    model: &RobotModel,
    tree: Tree<'_, K>,
    ia_init: &[LaneMat6<K>],
    ia: &mut [LaneMat6<K>],
    u: &mut [LaneForceVec<K>],
    d_inv: &mut [[[[f64; K]; 6]; 6]],
    f_minv: &mut [LaneForceVec<K>],
    p_cols: &mut [LaneMotionVec<K>],
    tp_cols: &mut [LaneMotionVec<K>],
    minv: &mut [[f64; K]],
) -> Result<(), DynamicsError> {
    let (nb, nv) = (model.num_bodies(), model.nv());
    let s = tree.s;

    minv.fill([0.0; K]);
    for i in 0..nb {
        ia[i] = LaneMat6::zero();
        let bi = model.v_offset(i);
        for j in (bi..bi + tree.ni(i)).chain(tree.desc(i).iter().copied()) {
            f_minv[i * nv + j] = LaneForceVec::zero();
        }
    }

    // Backward pass.
    for i in (0..nb).rev() {
        let bi = model.v_offset(i);
        let ni = tree.ni(i);
        let row = i * nv;
        ia[i].add_assign(&ia_init[i]);
        for k in 0..ni {
            u[bi + k] = ia[i].mul_scalar_motion_to_force(&s[bi + k]);
        }
        let mut d = [[[0.0; K]; 6]; 6];
        for (a, drow) in d.iter_mut().enumerate().take(ni) {
            for (b, dab) in drow.iter_mut().enumerate().take(ni) {
                *dab = u[bi + b].dot_scalar_motion(&s[bi + a]);
            }
        }
        invert_block_lanes(&d, ni, &mut d_inv[i])?;
        let dinv = &d_inv[i];
        // M⁻¹[i, i] = D⁻¹ ; M⁻¹[i, treee(i)] = −D⁻¹ Sᵀ F[:, treee(i)].
        for a in 0..ni {
            for b in 0..ni {
                minv[(bi + a) * nv + bi + b] = dinv[a][b];
            }
        }
        for &j in tree.desc(i) {
            let fj = f_minv[row + j];
            let mut sf = [[0.0; K]; 6];
            for b in 0..ni {
                sf[b] = fj.dot_scalar_motion(&s[bi + b]);
            }
            for a in 0..ni {
                let mut acc = [0.0; K];
                for b in 0..ni {
                    for l in 0..K {
                        acc[l] += dinv[a][b][l] * sf[b][l];
                    }
                }
                minv[(bi + a) * nv + j] = acc.map(|x| -x);
            }
        }

        if let Some(p) = model.topology().parent(i) {
            let own_and_desc = (bi..bi + ni).chain(tree.desc(i).iter().copied());
            // F[:, tree(i)] += U · M⁻¹[i, tree(i)]
            for j in own_and_desc.clone() {
                for a in 0..ni {
                    let upd = u[bi + a].scale(minv[(bi + a) * nv + j]);
                    f_minv[row + j].add_assign(&upd);
                }
            }
            // IA_i −= U D⁻¹ Uᵀ, then F_λ += λX*_i F_i and
            // IA_λ += λX*_i IA_i iX_λ (`p < i`: disjoint rows/slots).
            let (head, tail) = ia.split_at_mut(i);
            let ia_i = &mut tail[0];
            ia_i.sub_outer_weighted(&u[bi..bi + ni], |a, b| dinv[a][b]);
            let xup = &tree.xup[i];
            let (f_head, f_tail) = f_minv.split_at_mut(row);
            for j in own_and_desc {
                f_head[p * nv + j].add_assign(&xup.inv_apply_force(&f_tail[j]));
            }
            ia_i.add_congruence_xform_sym(xup, &mut head[p]);
        }
    }

    // Forward pass.
    for i in 0..nb {
        let bi = model.v_offset(i);
        let ni = tree.ni(i);
        let parent = model.topology().parent(i);
        let dinv = &d_inv[i];
        if let Some(p) = parent {
            let xup = &tree.xup[i];
            for j in bi..nv {
                tp_cols[j] = xup.apply_motion(&p_cols[p * nv + j]);
            }
            for (j, tp) in tp_cols.iter().enumerate().skip(bi) {
                // M⁻¹[i, i:] −= D⁻¹ Uᵀ (iX_λ P_λ[:, i:])
                let mut ut = [[0.0; K]; 6];
                for b in 0..ni {
                    ut[b] = u[bi + b].dot_motion(tp);
                }
                for a in 0..ni {
                    let mut acc = [0.0; K];
                    for b in 0..ni {
                        for l in 0..K {
                            acc[l] += dinv[a][b][l] * ut[b][l];
                        }
                    }
                    let m = &mut minv[(bi + a) * nv + j];
                    for l in 0..K {
                        m[l] -= acc[l];
                    }
                }
            }
        }
        // P_i[:, i:] = S M⁻¹[i, i:] (+ iX_λ P_λ[:, i:]) for the columns a
        // child reads.
        for j in tree.first_child_v[i]..nv {
            let mut pcol = LaneMotionVec::zero();
            for a in 0..ni {
                pcol.add_scaled_col(&s[bi + a], minv[(bi + a) * nv + j]);
            }
            if parent.is_some() {
                pcol.add_assign(&tp_cols[j]);
            }
            p_cols[i * nv + j] = pcol;
        }
    }
    // `symmetrize_from_upper`.
    for i in 0..nv {
        for j in (i + 1)..nv {
            minv[j * nv + i] = minv[i * nv + j];
        }
    }
    Ok(())
}

/// Lane bias force `C = ID(q, q̇, 0)` (mirror of
/// [`crate::bias_force_in_ws`] without external forces) into `c`, with
/// the local velocities / accelerations in `v` / `a` and the net body
/// forces in `f`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bias_force_lanes<const K: usize>(
    model: &RobotModel,
    tree: Tree<'_, K>,
    qd: &[[f64; K]],
    zero: &[[f64; K]],
    v: &mut [LaneMotionVec<K>],
    a: &mut [LaneMotionVec<K>],
    f: &mut [LaneForceVec<K>],
    c: &mut [[f64; K]],
) {
    let nb = model.num_bodies();
    let a0 = LaneMotionVec::broadcast(MotionVec::new(Vec3::zero(), -model.gravity));
    for i in 0..nb {
        let xup = &tree.xup[i];
        let vo = model.v_offset(i);
        let ni = tree.ni(i);
        let cols = &tree.s[vo..vo + ni];
        let vj = LaneMotionVec::weighted_sum(cols, &qd[vo..vo + ni]);
        let aj = LaneMotionVec::weighted_sum(cols, &zero[vo..vo + ni]);
        let (v_par, a_par) = match model.topology().parent(i) {
            Some(p) => (xup.apply_motion(&v[p]), xup.apply_motion(&a[p])),
            None => (LaneMotionVec::zero(), xup.apply_motion(&a0)),
        };
        let vi = v_par.add(&vj);
        let ai = a_par.add(&aj).add(&vi.cross_motion(&vj));
        let inertia = model.link_inertia(i);
        f[i] = inertia
            .mul_motion_lanes(&ai)
            .add(&vi.cross_force(&inertia.mul_motion_lanes(&vi)));
        v[i] = vi;
        a[i] = ai;
    }
    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        for k in vo..vo + tree.ni(i) {
            c[k] = f[i].dot_scalar_motion(&tree.s[k]);
        }
        if let Some(p) = model.topology().parent(i) {
            let fp = tree.xup[i].inv_apply_force(&f[i]);
            f[p].add_assign(&fp);
        }
    }
}

/// Lane IDSVA (mirror of [`crate::rnea_derivatives_idsva_into`] without
/// external forces) at `qdd`: fills the related-DOF entries of `dtau_dq`
/// and `dtau_dqd`. The tuples are the world-frame kinematics
/// `(f, s_world, v_world, a_world)`, the composites `(I^C, H^C, J^C)`
/// and the per-DOF `(w, γ, ζ)`.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn idsva_lanes<const K: usize>(
    model: &RobotModel,
    tree: Tree<'_, K>,
    xworld: &[LaneXform<K>],
    qd: &[[f64; K]],
    qdd: &[[f64; K]],
    (f, s_world, v_world, a_world): (
        &mut [LaneForceVec<K>],
        &mut [LaneMotionVec<K>],
        &mut [LaneMotionVec<K>],
        &mut [LaneMotionVec<K>],
    ),
    (inertia_c, h_c, rate_c): (
        &mut [LaneSpatialInertia<K>],
        &mut [LaneForceVec<K>],
        &mut [LaneInertiaRate<K>],
    ),
    (w_cols, gamma, zeta): (
        &mut [LaneMotionVec<K>],
        &mut [LaneMotionVec<K>],
        &mut [LaneMotionVec<K>],
    ),
    dtau_dq: &mut [[f64; K]],
    dtau_dqd: &mut [[f64; K]],
) {
    let (nb, nv) = (model.num_bodies(), model.nv());
    let a0 = LaneMotionVec::broadcast(MotionVec::new(Vec3::zero(), -model.gravity));

    // Forward: world-frame kinematics, composite seeds, per-DOF w/γ/ζ.
    for i in 0..nb {
        let x0 = &xworld[i];
        let vo = model.v_offset(i);
        let ni = tree.ni(i);
        let mut vj = LaneMotionVec::zero();
        let mut aj = LaneMotionVec::zero();
        for k in vo..vo + ni {
            let sw = x0.inv_apply_motion(&LaneMotionVec::broadcast(tree.s[k]));
            s_world[k] = sw;
            // `MotionVec::weighted_sum` over the world columns.
            vj.add_assign(&sw.scale(qd[k]));
            aj.add_assign(&sw.scale(qdd[k]));
        }
        let (vp, ap) = match model.topology().parent(i) {
            Some(p) => (v_world[p], a_world[p]),
            None => (LaneMotionVec::zero(), a0),
        };
        let v = vp.add(&vj);
        let a = ap.add(&aj).add(&v.cross_motion(&vj));
        v_world[i] = v;
        a_world[i] = a;

        let iw = model.link_inertia(i).transform_to_parent_lanes(x0);
        let h = iw.mul_motion(&v);
        f[i] = iw.mul_motion(&a).add(&v.cross_force(&h));
        inertia_c[i] = iw;
        h_c[i] = h;
        rate_c[i] = iw.rate(&v, &h);
        let vpv = vp.add(&v);
        for j in vo..vo + ni {
            let sj = s_world[j];
            let w = sj.cross_motion(&vp);
            w_cols[j] = w;
            gamma[j] = sj.cross_motion(&vpv);
            zeta[j] = sj.cross_motion(&ap).sub(&w.cross_motion(&vp));
        }
    }

    // Backward: row and column fills from the subtree composites, then
    // the fold into the parent.
    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = tree.ni(i);
        let icomp = inertia_c[i];
        let rate = rate_c[i];
        let hc = h_c[i];
        let chain_i = tree.chain(i);
        let strict_ancestors = &chain_i[..chain_i.len() - ni];
        for k in vo..vo + ni {
            let sk = s_world[k];
            let t2 = icomp.mul_motion(&sk);
            let js = rate.mul_motion(&sk);
            let sxh = sk.cross_force(&hc);
            let u2 = sxh.sub(&js);
            for &j in chain_i {
                let a = w_cols[j].dot_force(&u2);
                let b = s_world[j].dot_force(&u2);
                let c = zeta[j].dot_force(&t2);
                let e = gamma[j].dot_force(&t2);
                let (dq, dqd) = (&mut dtau_dq[k * nv + j], &mut dtau_dqd[k * nv + j]);
                for l in 0..K {
                    dq[l] = a[l] - c[l];
                    dqd[l] = -b[l] - e[l];
                }
            }
            if !strict_ancestors.is_empty() {
                let d1 = js.add(&sxh).sub(&icomp.mul_motion(&gamma[k]));
                let w = w_cols[k];
                let e = sk
                    .cross_force(&f[i])
                    .sub(&rate.mul_motion(&w))
                    .sub(&w.cross_force(&hc))
                    .sub(&icomp.mul_motion(&zeta[k]));
                for &kk in strict_ancestors {
                    dtau_dq[kk * nv + k] = s_world[kk].dot_force(&e);
                    dtau_dqd[kk * nv + k] = s_world[kk].dot_force(&d1);
                }
            }
        }
        if let Some(p) = model.topology().parent(i) {
            let fi = f[i];
            f[p].add_assign(&fi);
            let ic = inertia_c[i];
            inertia_c[p].add_assign(&ic);
            let hh = h_c[i];
            h_c[p].add_assign(&hh);
            let rc = rate_c[i];
            rate_c[p].add_assign(&rc);
        }
    }
}

/// The `−M⁻¹·∂τ` gather of `fd.rs`'s `neg_sparse_tr_product`, lane-major:
/// column `j` of the output sums `−∂τ[k][j] · M⁻¹[k][:]` over the DOFs
/// `k` related to joint `j`'s body (`rel = (rel_offsets, rel_dofs,
/// dof_body)`) in ascending order — chunks of four keep the column hot,
/// the adds stay sequential — and is written straight into column `j` of
/// every output's `out(..)` matrix: the scalar path's final transpose,
/// fused into the scatter.
#[inline(always)]
fn gather_lanes<const K: usize>(
    (rel_offsets, rel_dofs, dof_body): (&[usize], &[usize], &[usize]),
    minv: &[[f64; K]],
    dtau: &[[f64; K]],
    col: &mut [[f64; K]],
    outs: &mut [FdDerivatives],
    out: impl Fn(&mut FdDerivatives) -> &mut MatN,
) {
    let nv = dof_body.len();
    let col = &mut col[..nv];
    let neg = |x: [f64; K]| x.map(|v| -v);
    for j in 0..nv {
        let bj = dof_body[j];
        let ks = &rel_dofs[rel_offsets[bj]..rel_offsets[bj + 1]];
        col.fill([0.0; K]);
        let mut chunks = ks.chunks_exact(4);
        for ch in &mut chunks {
            let c = [
                neg(dtau[ch[0] * nv + j]),
                neg(dtau[ch[1] * nv + j]),
                neg(dtau[ch[2] * nv + j]),
                neg(dtau[ch[3] * nv + j]),
            ];
            let b0 = &minv[ch[0] * nv..][..nv];
            let b1 = &minv[ch[1] * nv..][..nv];
            let b2 = &minv[ch[2] * nv..][..nv];
            let b3 = &minv[ch[3] * nv..][..nv];
            for i in 0..nv {
                let o = &mut col[i];
                for l in 0..K {
                    let mut x = o[l];
                    x += c[0][l] * b0[i][l];
                    x += c[1][l] * b1[i][l];
                    x += c[2][l] * b2[i][l];
                    x += c[3][l] * b3[i][l];
                    o[l] = x;
                }
            }
        }
        for &k in chunks.remainder() {
            let c = neg(dtau[k * nv + j]);
            for (o, b) in col.iter_mut().zip(&minv[k * nv..][..nv]) {
                for l in 0..K {
                    o[l] += c[l] * b[l];
                }
            }
        }
        for (l, o) in outs.iter_mut().enumerate() {
            let m = out(o);
            for (i, x) in col.iter().enumerate() {
                m[(i, j)] = x[l];
            }
        }
    }
}
