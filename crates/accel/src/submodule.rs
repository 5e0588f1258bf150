//! Pipeline submodules: the per-joint hardware stages of the RTP.

use crate::ops::{self, OpCount};
use rbd_model::JointType;
use std::fmt;

/// The six submodule families of the two dataflow engines (§V-B4):
/// `Rf`/`Rb` (RNEA), `Df`/`Db` (ΔRNEA) in the Forward-Backward Module,
/// `Mb`/`Mf` (MMinvGen) in the Backward-Forward Module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubmoduleKind {
    /// RNEA forward (`v, a, f` generation).
    Rf,
    /// RNEA backward (`τ` projection, force propagation).
    Rb,
    /// ΔRNEA forward (incremental `∂v, ∂a, ∂f` columns).
    Df,
    /// ΔRNEA backward (`∂τ` rows).
    Db,
    /// MMinvGen backward (articulated inertia, `U`, `D⁻¹`, `F`).
    Mb,
    /// MMinvGen forward (`P` propagation, `M⁻¹` completion).
    Mf,
}

impl SubmoduleKind {
    /// Every family, in Forward-Backward then Backward-Forward order.
    pub const ALL: [SubmoduleKind; 6] =
        [Self::Rf, Self::Rb, Self::Df, Self::Db, Self::Mb, Self::Mf];

    /// Operation count of one activation serving a joint of type `jt`
    /// whose chain holds `chain` DOFs (own plus ancestors', the `Df`/`Db`
    /// columns), whose subtree holds `subtree` DOFs (the `Mb` columns)
    /// and which has `trailing` DOFs from its own onwards (`nv` minus its
    /// ancestors', the `Mf` columns).
    pub fn cost(self, jt: &JointType, chain: usize, subtree: usize, trailing: usize) -> OpCount {
        match self {
            Self::Rf => ops::rf_cost(jt),
            Self::Rb => ops::rb_cost(jt),
            Self::Df => ops::df_cost(jt, chain),
            Self::Db => ops::db_cost(jt, chain),
            Self::Mb => ops::mb_cost(jt, subtree),
            Self::Mf => ops::mf_cost(jt, trailing),
        }
    }
}

impl fmt::Display for SubmoduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Rf => "Rf",
            Self::Rb => "Rb",
            Self::Df => "Df",
            Self::Db => "Db",
            Self::Mb => "Mb",
            Self::Mf => "Mf",
        };
        write!(f, "{s}")
    }
}

/// One instantiated pipeline stage: a submodule bound to a hardware tree
/// node, with its operation count and resource allocation.
#[derive(Debug, Clone)]
pub struct Submodule {
    /// Family.
    pub kind: SubmoduleKind,
    /// Body id (in the model's original numbering) this stage serves.
    pub body: usize,
    /// Pipeline level (1-based depth in the SAP topology).
    pub level: usize,
    /// Activations per task (time-division multiplexing factor, §V-C1).
    pub mult: usize,
    /// Operation counts of one activation.
    pub ops: OpCount,
    /// DSP lanes allocated to the stage.
    pub lanes: usize,
}

impl Submodule {
    /// Initiation interval in cycles for one activation:
    /// `ceil(mul / lanes)` plus the fixed stream-handshake overhead.
    pub fn ii_cycles(&self) -> usize {
        debug_assert!(self.lanes > 0);
        self.ops.mul.div_ceil(self.lanes) + STREAM_OVERHEAD
    }

    /// Effective initiation interval per *task*, accounting for
    /// time-division multiplexing (a stage serving two symmetric legs
    /// fires twice per task).
    pub fn task_ii_cycles(&self) -> usize {
        self.ii_cycles() * self.mult
    }

    /// Forwarding latency in cycles — the time from the first input word
    /// to the first output word. The RTP streams element-wise
    /// ("allowing data transmission and computing time to overlap each
    /// other", §I), so this is the datapath depth, *not* the initiation
    /// interval: downstream stages start before the activation finishes.
    pub fn latency_cycles(&self) -> usize {
        STREAM_OVERHEAD + ADDER_TREE_DEPTH
    }
}

/// Fixed per-stage FIFO handshake overhead (cycles).
pub const STREAM_OVERHEAD: usize = 2;

/// Internal adder-tree / accumulation latency of a stage (cycles).
pub const ADDER_TREE_DEPTH: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(lanes: usize, mult: usize) -> Submodule {
        Submodule {
            kind: SubmoduleKind::Rf,
            body: 0,
            level: 1,
            mult,
            ops: SubmoduleKind::Rf.cost(&JointType::revolute_z(), 1, 1, 1),
            lanes,
        }
    }

    #[test]
    fn more_lanes_reduce_ii() {
        let slow = sub(4, 1);
        let fast = sub(32, 1);
        assert!(fast.ii_cycles() < slow.ii_cycles());
    }

    #[test]
    fn multiplexing_scales_task_ii() {
        let s = sub(16, 2);
        assert_eq!(s.task_ii_cycles(), 2 * s.ii_cycles());
    }

    #[test]
    fn latency_is_cut_through() {
        // Forwarding latency is the datapath depth, independent of the
        // lane allocation (streamed element-wise).
        assert_eq!(sub(4, 1).latency_cycles(), sub(32, 1).latency_cycles());
        assert!(sub(16, 1).latency_cycles() > 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(SubmoduleKind::Mb.to_string(), "Mb");
        assert_eq!(SubmoduleKind::Df.to_string(), "Df");
    }
}
