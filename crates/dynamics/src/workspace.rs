//! Shared per-model scratch buffers (the "data" of a model/data split).

use crate::derivatives::RneaDerivatives;
use crate::lanes::LaneWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, InertiaRate, Mat6, MatN, MotionVec, SpatialInertia, Xform};

/// Pre-allocated buffers for the dynamics algorithms.
///
/// Create one per model (and per thread) and reuse it across calls; all
/// algorithms in this crate only write into these buffers and perform
/// **zero steady-state heap allocation** on the hot path when used
/// through the `*_into` entry points (the value-returning wrappers
/// allocate only their outputs).
///
/// Nested per-body/per-DOF quantities are stored as flat, stride-indexed
/// buffers: a per-body-per-DOF table lives in a single `Vec` of length
/// `nb * nv`, entry `(i, j)` at index `i * nv + j`. The ancestor/subtree
/// DOF index sets that drive the sparse traversals of the derivative and
/// MMinvGen kernels are precomputed once at construction (they depend
/// only on the model topology).
#[derive(Debug, Clone)]
pub struct DynamicsWorkspace {
    /// Local (child-frame) motion-subspace columns, flat per DOF
    /// (body `i`'s columns live at `s_off[i]..s_off[i+1]`, which
    /// coincides with the body's velocity offset) — constant.
    pub s: Vec<MotionVec>,
    /// Offsets into [`Self::s`], length `nb + 1`.
    pub s_off: Vec<usize>,
    /// Parent→child transform `^i X_λi` per body.
    pub xup: Vec<Xform>,
    /// World→body transform `^i X_0` per body.
    pub xworld: Vec<Xform>,
    /// Spatial velocity per body (local coordinates).
    pub v: Vec<MotionVec>,
    /// Spatial acceleration per body (local coordinates).
    pub a: Vec<MotionVec>,
    /// Net body force per body; consumed by the backward pass.
    pub f: Vec<ForceVec>,
    /// Output joint torques.
    pub tau: Vec<f64>,
    /// Articulated inertia scratch (MMinvGen).
    pub ia: Vec<Mat6>,
    /// World-frame motion-subspace columns per DOF (derivatives).
    pub s_world: Vec<MotionVec>,
    /// World-frame velocity per body (derivatives).
    pub v_world: Vec<MotionVec>,
    /// World-frame acceleration per body (derivatives).
    pub a_world: Vec<MotionVec>,

    // ------------------------------------------------------------------
    // Precomputed topology index sets (constant per model).
    // ------------------------------------------------------------------
    /// Offsets into [`Self::chain_dofs`]; `chain_offsets[i]..chain_offsets[i+1]`
    /// is body `i`'s slice.
    pub chain_offsets: Vec<usize>,
    /// The "incremental columns" of the paper (§IV-A4): for each body, the
    /// DOF ids of its ancestors and itself, ascending.
    pub chain_dofs: Vec<usize>,
    /// Offsets into [`Self::desc_dofs`].
    pub desc_offsets: Vec<usize>,
    /// For each body, the DOF ids of its strict descendants (the paper's
    /// `treee(i)`), ascending.
    pub desc_dofs: Vec<usize>,
    /// Offsets into [`Self::rel_dofs`].
    pub rel_offsets: Vec<usize>,
    /// For each body, the DOF ids related to it — ancestors, itself and
    /// descendants, ascending. Everything outside this set yields an
    /// exactly-zero entry in the derivative matrices (branch-induced
    /// sparsity, Fig 5).
    pub rel_dofs: Vec<usize>,
    /// For each body, the smallest velocity offset among its children
    /// (`nv` for leaves): the first forward-sweep `P` column any child
    /// will read. Columns before it are dead and never computed.
    pub first_child_v: Vec<usize>,
    /// Owning body of each DOF, length `nv`.
    pub dof_body: Vec<usize>,

    // ------------------------------------------------------------------
    // ΔRNEA world-frame kinematics scratch (one slot per body).
    // ------------------------------------------------------------------
    /// World-frame `S q̇` per body.
    pub vj_w: Vec<MotionVec>,
    /// World-frame `S q̈` per body.
    pub aj_w: Vec<MotionVec>,
    /// World-frame spatial inertia per body.
    pub inertia_w: Vec<SpatialInertia>,

    // ------------------------------------------------------------------
    // IDSVA ΔRNEA scratch (flat, one slot per body / per DOF). The
    // `*_c` buffers are initialised per body in the forward pass and
    // turn into subtree composites during the leaves→root sweep.
    // ------------------------------------------------------------------
    /// Momentum `h_i = I_i v_i` per body (world frame).
    pub idsva_h: Vec<ForceVec>,
    /// Composite spatial inertia `I^C_i = Σ_{l ⪰ i} I_l`.
    pub idsva_inertia_c: Vec<SpatialInertia>,
    /// Composite momentum `H^C_i = Σ_{l ⪰ i} I_l v_l`.
    pub idsva_h_c: Vec<ForceVec>,
    /// Composite inertia rate `J^C_i = Σ_{l ⪰ i} İ_l` (compact form).
    pub idsva_rate_c: Vec<InertiaRate>,
    /// Composite external force `Σ_{l ⪰ i} f_ext,l`; only written when
    /// external forces are supplied.
    pub idsva_fext_c: Vec<ForceVec>,
    /// Per-DOF `w_j = S_j × v_λ(j)` (the negated world rate `−S̊_j`).
    pub idsva_w: Vec<MotionVec>,
    /// Per-DOF `γ_j = S_j × (v_λ(j) + v_b(j))` (∂a/∂q̇ offset).
    pub idsva_gamma: Vec<MotionVec>,
    /// Per-DOF `ζ_j = S_j × a_λ(j) − w_j × v_λ(j)` (∂a/∂q offset).
    pub idsva_zeta: Vec<MotionVec>,

    // ------------------------------------------------------------------
    // MMinvGen scratch.
    // ------------------------------------------------------------------
    /// Composite-inertia accumulators for the `M` output path.
    pub ia_m: Vec<Mat6>,
    /// Per-DOF force accumulator (Minv path), `nb × nv` flat.
    pub f_minv: Vec<ForceVec>,
    /// Per-DOF force accumulator (M path), `nb × nv` flat.
    pub f_m: Vec<ForceVec>,
    /// `U = IA S` columns, indexed by DOF (articulated, Minv path).
    pub u_cols: Vec<ForceVec>,
    /// `U = I^c S` columns, indexed by DOF (composite, M path).
    pub u_m_cols: Vec<ForceVec>,
    /// `D⁻¹` joint-space blocks, one `≤6×6` block per body.
    pub d_inv: Vec<[[f64; 6]; 6]>,
    /// Forward-sweep motion columns `P`, `nb × nv` flat.
    pub p_cols: Vec<MotionVec>,
    /// Parent-row transform staging for the MMinvGen forward sweep
    /// (`iX_λ P_λ[:, j]` batch output), length `nv`.
    pub tp_cols: Vec<MotionVec>,

    // ------------------------------------------------------------------
    // Forward-dynamics scratch.
    // ------------------------------------------------------------------
    /// `M⁻¹` scratch for [`crate::forward_dynamics_into`].
    pub minv_scratch: MatN,
    /// `nv × nv` matrix scratch (ΔFD sparse-product staging).
    pub mat_scratch_a: MatN,
    /// `nv × nv` matrix scratch (ΔFD sparse-product staging).
    pub mat_scratch_b: MatN,
    /// Right-hand-side / generalized-force scratch, length `nv`.
    pub rhs_scratch: Vec<f64>,
    /// Constant zero `q̈` used by the bias-force path, length `nv`.
    pub zero_qdd: Vec<f64>,
    /// ΔRNEA output scratch for the ΔFD chain (Eq. 3).
    pub did_scratch: RneaDerivatives,
    /// The width-1 lane workspace [`crate::aba_in_ws`] runs the lane ABA
    /// in; the ABA reads and writes no other buffer of this workspace.
    pub(crate) aba_lanes: LaneWorkspace<1>,
    /// The configuration `xup`/`xworld` were last computed for — lets
    /// [`Self::update_kinematics`] skip the trig-heavy recompute when a
    /// fused pipeline (e.g. ΔFD = MMinvGen + RNEA + ΔRNEA) re-enters with
    /// the same `q`. Empty until the first call.
    kin_q: Vec<f64>,
}

impl DynamicsWorkspace {
    /// Allocates buffers sized for `model`.
    pub fn new(model: &RobotModel) -> Self {
        let nb = model.num_bodies();
        let nv = model.nv();

        // Ancestor+self DOF chains (ascending: parents have smaller
        // offsets under the topological numbering).
        let mut chain_offsets = Vec::with_capacity(nb + 1);
        let mut chain_dofs: Vec<usize> = Vec::new();
        let mut per_body_chain: Vec<(usize, usize)> = Vec::with_capacity(nb); // (start, end)
        chain_offsets.push(0);
        for i in 0..nb {
            let start = chain_dofs.len();
            if let Some(p) = model.topology().parent(i) {
                let (ps, pe) = per_body_chain[p];
                chain_dofs.extend_from_within(ps..pe);
            }
            let vo = model.v_offset(i);
            chain_dofs.extend(vo..vo + model.joint(i).jtype.nv());
            per_body_chain.push((start, chain_dofs.len()));
            chain_offsets.push(chain_dofs.len());
        }

        // Strict-descendant DOF sets, built leaves→root.
        let mut desc_per_body: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for i in (0..nb).rev() {
            let mut d: Vec<usize> = Vec::new();
            for &c in model.topology().children(i) {
                let vo = model.v_offset(c);
                d.extend(vo..vo + model.joint(c).jtype.nv());
                d.extend_from_slice(&desc_per_body[c]);
            }
            d.sort_unstable();
            desc_per_body[i] = d;
        }
        let mut desc_offsets = Vec::with_capacity(nb + 1);
        let mut desc_dofs = Vec::new();
        desc_offsets.push(0);
        for d in &desc_per_body {
            desc_dofs.extend_from_slice(d);
            desc_offsets.push(desc_dofs.len());
        }

        // Related DOFs = chain ∪ descendants. Chain DOFs all precede
        // descendant DOFs (ancestors and self have smaller offsets), so
        // concatenation stays sorted.
        let mut rel_offsets = Vec::with_capacity(nb + 1);
        let mut rel_dofs = Vec::new();
        rel_offsets.push(0);
        for i in 0..nb {
            rel_dofs.extend_from_slice(&chain_dofs[chain_offsets[i]..chain_offsets[i + 1]]);
            rel_dofs.extend_from_slice(&desc_per_body[i]);
            rel_offsets.push(rel_dofs.len());
        }

        let mut s = Vec::with_capacity(nv);
        let mut s_off = Vec::with_capacity(nb + 1);
        s_off.push(0);
        for i in 0..nb {
            s.extend(model.joint(i).jtype.motion_subspace());
            s_off.push(s.len());
        }
        debug_assert!((0..nb).all(|i| s_off[i] == model.v_offset(i)));

        let first_child_v: Vec<usize> = (0..nb)
            .map(|i| {
                model
                    .topology()
                    .children(i)
                    .iter()
                    .map(|&c| model.v_offset(c))
                    .min()
                    .unwrap_or(nv)
            })
            .collect();

        let mut dof_body = vec![0usize; nv];
        for i in 0..nb {
            let vo = model.v_offset(i);
            for d in dof_body.iter_mut().skip(vo).take(model.joint(i).jtype.nv()) {
                *d = i;
            }
        }

        Self {
            s,
            s_off,
            xup: vec![Xform::identity(); nb],
            xworld: vec![Xform::identity(); nb],
            v: vec![MotionVec::zero(); nb],
            a: vec![MotionVec::zero(); nb],
            f: vec![ForceVec::zero(); nb],
            tau: vec![0.0; nv],
            ia: vec![Mat6::zero(); nb],
            s_world: vec![MotionVec::zero(); nv],
            v_world: vec![MotionVec::zero(); nb],
            a_world: vec![MotionVec::zero(); nb],
            chain_offsets,
            chain_dofs,
            desc_offsets,
            desc_dofs,
            rel_offsets,
            rel_dofs,
            first_child_v,
            dof_body,
            vj_w: vec![MotionVec::zero(); nb],
            aj_w: vec![MotionVec::zero(); nb],
            inertia_w: vec![SpatialInertia::zero(); nb],
            idsva_h: vec![ForceVec::zero(); nb],
            idsva_inertia_c: vec![SpatialInertia::zero(); nb],
            idsva_h_c: vec![ForceVec::zero(); nb],
            idsva_rate_c: vec![InertiaRate::zero(); nb],
            idsva_fext_c: vec![ForceVec::zero(); nb],
            idsva_w: vec![MotionVec::zero(); nv],
            idsva_gamma: vec![MotionVec::zero(); nv],
            idsva_zeta: vec![MotionVec::zero(); nv],
            ia_m: vec![Mat6::zero(); nb],
            f_minv: vec![ForceVec::zero(); nb * nv],
            f_m: vec![ForceVec::zero(); nb * nv],
            u_cols: vec![ForceVec::zero(); nv],
            u_m_cols: vec![ForceVec::zero(); nv],
            d_inv: vec![[[0.0; 6]; 6]; nb],
            p_cols: vec![MotionVec::zero(); nb * nv],
            tp_cols: vec![MotionVec::zero(); nv],
            minv_scratch: MatN::zeros(nv, nv),
            mat_scratch_a: MatN::zeros(nv, nv),
            mat_scratch_b: MatN::zeros(nv, nv),
            rhs_scratch: vec![0.0; nv],
            zero_qdd: vec![0.0; nv],
            did_scratch: RneaDerivatives::zeros(nv),
            aba_lanes: LaneWorkspace::new(model),
            kin_q: Vec::with_capacity(model.nq()),
        }
    }

    /// Body `i`'s ancestor+self DOF ids (ascending).
    #[inline]
    pub fn chain(&self, i: usize) -> &[usize] {
        &self.chain_dofs[self.chain_offsets[i]..self.chain_offsets[i + 1]]
    }

    /// Body `i`'s strict-descendant DOF ids (ascending).
    #[inline]
    pub fn desc(&self, i: usize) -> &[usize] {
        &self.desc_dofs[self.desc_offsets[i]..self.desc_offsets[i + 1]]
    }

    /// Body `i`'s related DOF ids — ancestors, self and descendants
    /// (ascending).
    #[inline]
    pub fn rel(&self, i: usize) -> &[usize] {
        &self.rel_dofs[self.rel_offsets[i]..self.rel_offsets[i + 1]]
    }

    /// Recomputes `xup` and `xworld` for configuration `q` (forward
    /// kinematics). All dynamics entry points call this themselves; it is
    /// public for use by tests and the accelerator's functional model.
    ///
    /// The result is memoized on `q`: a repeat call with a bit-identical
    /// configuration (the norm inside fused pipelines such as ΔFD, which
    /// evaluates MMinvGen, RNEA and ΔRNEA at one configuration) returns
    /// without touching the transforms. The workspace is per-model, so
    /// the cache is sound as long as one workspace is not shared across
    /// models — the usage contract this type already documents.
    pub fn update_kinematics(&mut self, model: &RobotModel, q: &[f64]) {
        if self.kin_q.as_slice() == q {
            return;
        }
        for i in 0..model.num_bodies() {
            let xup = model.joint(i).child_xform(model.q_slice(i, q));
            self.xworld[i] = match model.topology().parent(i) {
                Some(p) => xup.compose(&self.xworld[p]),
                None => xup,
            };
            self.xup[i] = xup;
        }
        self.kin_q.clear();
        self.kin_q.extend_from_slice(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;
    use rbd_spatial::Vec3;

    #[test]
    fn sizes_match_model() {
        let m = robots::atlas();
        let ws = DynamicsWorkspace::new(&m);
        assert_eq!(ws.s_off.len(), m.num_bodies() + 1);
        assert_eq!(ws.tau.len(), m.nv());
        assert_eq!(ws.s_world.len(), m.nv());
        assert_eq!(ws.s.len(), m.nv());
        assert_eq!(ws.s_off[m.num_bodies()], m.nv());
    }

    #[test]
    fn world_transforms_compose() {
        let m = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&m);
        let q: Vec<f64> = (0..7).map(|k| 0.1 * (k as f64 + 1.0)).collect();
        ws.update_kinematics(&m, &q);
        // ^6X_0 must equal ^6X_5 ∘ ^5X_0.
        let composed = ws.xup[6].compose(&ws.xworld[5]);
        assert!((composed.rot - ws.xworld[6].rot).max_abs() < 1e-12);
        assert!((composed.trans - ws.xworld[6].trans).max_abs() < 1e-12);
    }

    #[test]
    fn neutral_chain_stacks_links() {
        let m = robots::serial_chain(4);
        let mut ws = DynamicsWorkspace::new(&m);
        ws.update_kinematics(&m, &m.neutral_config());
        // Body 3's origin sits 3 × 0.3 m up in world coordinates
        // (`trans` of `^3X_0` is the origin of frame 3 expressed in world).
        let p = ws.xworld[3].trans;
        assert!((p - Vec3::new(0.0, 0.0, 0.9)).max_abs() < 1e-12);
    }

    #[test]
    fn index_sets_match_topology_queries() {
        for model in [robots::hyq(), robots::atlas(), robots::random_tree(9, 3)] {
            let ws = DynamicsWorkspace::new(&model);
            let topo = model.topology();
            for i in 0..model.num_bodies() {
                // Chain = dofs of ancestors + self, ascending.
                let mut expect: Vec<usize> = Vec::new();
                for b in 0..model.num_bodies() {
                    if b == i || topo.ancestors(i).contains(&b) {
                        let vo = model.v_offset(b);
                        expect.extend(vo..vo + model.joint(b).jtype.nv());
                    }
                }
                expect.sort_unstable();
                assert_eq!(ws.chain(i), &expect[..], "chain of body {i}");

                // Descendants = treee(i) dofs.
                let mut expect_d: Vec<usize> = Vec::new();
                for b in topo.subtree(i).into_iter().filter(|&b| b != i) {
                    let vo = model.v_offset(b);
                    expect_d.extend(vo..vo + model.joint(b).jtype.nv());
                }
                expect_d.sort_unstable();
                assert_eq!(ws.desc(i), &expect_d[..], "desc of body {i}");

                // Related = union, sorted.
                let mut expect_r = [ws.chain(i), ws.desc(i)].concat();
                expect_r.sort_unstable();
                assert_eq!(ws.rel(i), &expect_r[..], "rel of body {i}");
            }
        }
    }
}
