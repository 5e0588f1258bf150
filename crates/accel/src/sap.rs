//! Structure-Adaptive Pipelines (§V-C): organising the per-joint
//! submodules according to the robot's topology — branch arrays,
//! symmetric-branch time-division multiplexing, and depth-minimising
//! re-rooting.

use rbd_model::{RobotModel, Topology};

/// A node of the *hardware* tree: one physical pipeline stage, possibly
/// serving several structurally identical bodies by time-division
/// multiplexing.
#[derive(Debug, Clone)]
pub struct HwNode {
    /// Representative body id (original model numbering).
    pub body: usize,
    /// Activations per task (≥ 1; 2 for a merged symmetric pair).
    pub mult: usize,
    /// 1-based depth in the SAP topology.
    pub level: usize,
    /// Child node indices.
    pub children: Vec<usize>,
}

/// A flattened root-to-leaf pipeline array (reporting view of Fig 11/12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchArray {
    /// Bodies along the array, root side first.
    pub bodies: Vec<usize>,
    /// Maximum multiplex factor along the array.
    pub multiplex: usize,
}

/// The SAP organisation of one robot on the accelerator.
#[derive(Debug, Clone)]
pub struct SapLayout {
    /// Hardware stages (merged tree), index 0 = root.
    pub nodes: Vec<HwNode>,
    /// Body chosen as the pipeline root (original numbering).
    pub root_body: usize,
    /// Depth of the SAP topology (pipeline levels).
    pub max_depth: usize,
    /// The (possibly re-rooted) topology the algorithms traverse,
    /// together with `map[new_id] = old_id`.
    pub topo: Topology,
    /// Mapping from SAP topology ids to original body ids.
    pub map: Vec<usize>,
    /// Reporting view: one entry per root-to-leaf hardware path.
    pub branches: Vec<BranchArray>,
}

impl SapLayout {
    /// Builds the SAP organisation for `model`.
    ///
    /// With `auto_reroot`, the root minimising the topology depth is
    /// selected (the Fig 11c optimisation that takes Atlas from depth 11
    /// to 9); ties favour the model's own root.
    pub fn build(model: &RobotModel, auto_reroot: bool) -> SapLayout {
        let topo0 = model.topology();
        let roots: Vec<usize> = (0..topo0.num_bodies())
            .filter(|&i| topo0.parent(i).is_none())
            .collect();
        assert_eq!(roots.len(), 1, "SAP requires a single kinematic tree");

        // Re-rooting is only physical for floating-base robots (the
        // virtual 6-DOF joint can attach anywhere, §V-C1); a fixed base
        // is bolted to the world.
        let floating_base = matches!(model.joint(roots[0]).jtype, rbd_model::JointType::Floating);
        let (topo, map, root_body) = if auto_reroot && floating_base {
            let mut best = (topo0.max_depth(), roots[0]);
            for cand in 0..topo0.num_bodies() {
                let (r, _) = topo0.reroot(cand);
                let d = r.max_depth();
                if d < best.0 {
                    best = (d, cand);
                }
            }
            let (r, m) = topo0.reroot(best.1);
            (r, m, best.1)
        } else {
            (
                topo0.clone(),
                (0..topo0.num_bodies()).collect::<Vec<_>>(),
                roots[0],
            )
        };

        // Recursively merge structurally identical sibling subtrees.
        let mut nodes: Vec<HwNode> = Vec::new();
        let root_idx = build_hw(&topo, &map, model, 0, 1, 1, &mut nodes);
        debug_assert_eq!(root_idx, 0);

        let max_depth = topo.max_depth();
        let branches = collect_branches(&nodes, 0);

        SapLayout {
            nodes,
            root_body,
            max_depth,
            topo,
            map,
            branches,
        }
    }

    /// Number of hardware stages (after merging) vs physical bodies —
    /// the resource saving of §V-C1.
    pub fn hw_stage_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ancestor-DOF count (incremental columns, §IV-A4) of a body in the
    /// SAP topology, by *new* topology id.
    pub fn chain_dofs(&self, model: &RobotModel, new_id: usize) -> usize {
        let mut n = model.joint(self.map[new_id]).jtype.nv();
        for a in self.topo.ancestors(new_id) {
            n += model.joint(self.map[a]).jtype.nv();
        }
        n
    }

    /// Subtree-DOF count (live columns of the MMinvGen backward stage) of
    /// a body, by new topology id.
    pub fn subtree_dofs(&self, model: &RobotModel, new_id: usize) -> usize {
        self.topo
            .subtree(new_id)
            .iter()
            .map(|&b| model.joint(self.map[b]).jtype.nv())
            .sum()
    }

    /// New topology id for an original body id.
    pub fn new_id_of(&self, old_body: usize) -> usize {
        self.map
            .iter()
            .position(|&o| o == old_body)
            .expect("body not in layout")
    }
}

/// Structural signature of a subtree (joint type chain, link masses and
/// shape): two subtrees with equal signatures can share hardware
/// (§V-C1 "the legs of the Spot are all symmetrical… only a few
/// parameters differ, most of which differ only in sign").
fn subtree_signature(topo: &Topology, map: &[usize], model: &RobotModel, n: usize) -> String {
    let jt = &model.joint(map[n]).jtype;
    let mass = model.link_inertia(map[n]).mass;
    let mut child_sigs: Vec<String> = topo
        .children(n)
        .iter()
        .map(|&c| subtree_signature(topo, map, model, c))
        .collect();
    child_sigs.sort();
    format!("{}:{:.4}({})", jt.name(), mass, child_sigs.join(","))
}

/// Recursively builds the merged hardware tree. Returns the node index.
fn build_hw(
    topo: &Topology,
    map: &[usize],
    model: &RobotModel,
    n: usize,
    level: usize,
    mult: usize,
    nodes: &mut Vec<HwNode>,
) -> usize {
    let idx = nodes.len();
    nodes.push(HwNode {
        body: map[n],
        mult,
        level,
        children: Vec::new(),
    });

    // Group children by structural signature.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for &c in topo.children(n) {
        let sig = subtree_signature(topo, map, model, c);
        if let Some(g) = groups.iter_mut().find(|(s, _)| *s == sig) {
            g.1.push(c);
        } else {
            groups.push((sig, vec![c]));
        }
    }
    let mut child_indices = Vec::new();
    for (_, members) in groups {
        // Merge pairs: k members → ceil(k/2) hardware copies, each
        // time-multiplexing up to two bodies (the paper's leg/arm rule).
        let mut remaining = members.len();
        let mut cursor = 0;
        while remaining > 0 {
            let chunk = remaining.min(2);
            let rep = members[cursor];
            child_indices.push(build_hw(
                topo,
                map,
                model,
                rep,
                level + 1,
                mult * chunk,
                nodes,
            ));
            cursor += chunk;
            remaining -= chunk;
        }
    }
    nodes[idx].children = child_indices;
    idx
}

/// Flattens the hardware tree into root-to-leaf branch arrays.
fn collect_branches(nodes: &[HwNode], root: usize) -> Vec<BranchArray> {
    let mut out = Vec::new();
    let mut stack: Vec<(usize, Vec<usize>, usize)> = vec![(root, Vec::new(), 1)];
    while let Some((n, mut path, mult)) = stack.pop() {
        path.push(nodes[n].body);
        let mult = mult.max(nodes[n].mult);
        if nodes[n].children.is_empty() {
            out.push(BranchArray {
                bodies: path,
                multiplex: mult,
            });
        } else {
            for &c in &nodes[n].children {
                stack.push((c, path.clone(), mult));
            }
        }
    }
    out.sort_by(|a, b| a.bodies.cmp(&b.bodies));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;

    #[test]
    fn iiwa_is_one_array() {
        let m = robots::iiwa();
        let l = SapLayout::build(&m, false);
        assert_eq!(l.branches.len(), 1);
        assert_eq!(l.hw_stage_count(), 7);
        assert_eq!(l.max_depth, 7);
    }

    #[test]
    fn hyq_legs_merge_to_two_arrays() {
        // Four identical legs → 2 hardware branches, each ×2 multiplexed
        // (§V-C1 Spot/HyQ rule).
        let m = robots::hyq();
        let l = SapLayout::build(&m, false);
        assert_eq!(l.branches.len(), 2);
        for b in &l.branches {
            assert_eq!(b.multiplex, 2);
        }
        // 13 physical bodies collapse onto 1 + 2×3 = 7 hardware stages.
        assert_eq!(l.hw_stage_count(), 7);
    }

    #[test]
    fn spot_arm_keeps_arm_separate() {
        let m = robots::spot_arm();
        let l = SapLayout::build(&m, false);
        // 2 leg arrays (×2) + 1 arm array (×1).
        assert_eq!(l.branches.len(), 3);
        let mux: Vec<usize> = l.branches.iter().map(|b| b.multiplex).collect();
        assert_eq!(mux.iter().filter(|&&m| m == 2).count(), 2);
        assert_eq!(mux.iter().filter(|&&m| m == 1).count(), 1);
    }

    #[test]
    fn atlas_reroot_reduces_depth_to_nine() {
        let m = robots::atlas();
        let plain = SapLayout::build(&m, false);
        assert_eq!(plain.max_depth, 11);
        let opt = SapLayout::build(&m, true);
        assert_eq!(opt.max_depth, 9);
        // The chosen root is one of the torso bodies.
        let name = m.body_name(opt.root_body);
        assert!(name.starts_with("torso"), "chose {name}");
        // Arms and legs each merge into single ×2 arrays.
        let n_mux2 = opt.branches.iter().filter(|b| b.multiplex == 2).count();
        assert!(n_mux2 >= 2, "{:?}", opt.branches);
    }

    #[test]
    fn chain_and_subtree_dofs() {
        let m = robots::hyq();
        let l = SapLayout::build(&m, false);
        // Root body (floating): chain = 6, subtree = all 18.
        let root_new = l.new_id_of(0);
        assert_eq!(l.chain_dofs(&m, root_new), 6);
        assert_eq!(l.subtree_dofs(&m, root_new), 18);
        // A foot body: chain = 6 + 3 = 9, subtree = 1.
        let foot_old = (0..m.num_bodies())
            .position(|i| m.body_name(i) == "lf_kfe")
            .unwrap();
        let foot_new = l.new_id_of(foot_old);
        assert_eq!(l.chain_dofs(&m, foot_new), 9);
        assert_eq!(l.subtree_dofs(&m, foot_new), 1);
    }

    #[test]
    fn tiago_linear_no_merging() {
        let m = robots::tiago();
        let l = SapLayout::build(&m, false);
        assert_eq!(l.branches.len(), 1);
        assert_eq!(l.hw_stage_count(), m.num_bodies());
    }

    #[test]
    fn hexapod_six_legs_merge_to_three_arrays() {
        let m = robots::hexapod();
        let l = SapLayout::build(&m, false);
        assert_eq!(l.branches.len(), 3);
        for b in &l.branches {
            assert_eq!(b.multiplex, 2);
        }
        // 19 physical bodies → 1 + 3×3 = 10 hardware stages.
        assert_eq!(l.hw_stage_count(), 10);
    }

    #[test]
    fn dual_arm_merges_without_reroot() {
        let m = robots::dual_arm();
        // Fixed base: auto-reroot must be a no-op.
        let l = SapLayout::build(&m, true);
        assert_eq!(l.root_body, 0);
        assert_eq!(l.branches.len(), 1);
        assert_eq!(l.branches[0].multiplex, 2);
        // 15 bodies → torso + 7 shared arm stages.
        assert_eq!(l.hw_stage_count(), 8);
    }

    #[test]
    fn random_trees_cover_all_bodies() {
        for seed in 0..5 {
            let m = robots::random_tree(13, seed);
            let l = SapLayout::build(&m, false);
            // Every physical body is represented by some hardware stage's
            // merge group: total activations ≥ body count.
            let activations: usize = l.nodes.iter().map(|n| n.mult).sum();
            assert!(activations >= m.num_bodies() - 1);
            assert!(l.hw_stage_count() <= m.num_bodies());
        }
    }
}
