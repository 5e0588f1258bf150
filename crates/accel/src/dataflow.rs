//! The multifunction interface: the Table I functions, the outputs a
//! functional run emits, and the one Fig 14 dataflow map — which
//! submodule families each function fires ([`FunctionKind::uses`]) and
//! how many columns it pushes through the schedule module's matrix unit
//! ([`FunctionKind::matvec_columns`]). The timing, power and
//! device-work models all read this table.

use crate::submodule::SubmoduleKind;
use rbd_spatial::MatN;
use std::fmt;

/// The rigid-body dynamics functions of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// Inverse dynamics `τ = ID(q, q̇, q̈, f_ext)`.
    Id,
    /// Forward dynamics `q̈ = FD(q, q̇, τ, f_ext)`.
    Fd,
    /// Mass matrix `M = M(q)`.
    MassMatrix,
    /// Inverse mass matrix `M⁻¹ = Minv(q)`.
    MassMatrixInverse,
    /// Derivatives of inverse dynamics `∂_u τ`.
    DId,
    /// Derivatives of forward dynamics `∂_u q̈`.
    DFd,
    /// Derivatives of dynamics given `M⁻¹` (`∂_u q̈`, Robomorphic's
    /// function).
    DiFd,
}

impl FunctionKind {
    /// All functions, in Table I order.
    pub fn all() -> [FunctionKind; 7] {
        [
            Self::Id,
            Self::Fd,
            Self::MassMatrix,
            Self::MassMatrixInverse,
            Self::DId,
            Self::DFd,
            Self::DiFd,
        ]
    }

    /// The six Fig 15 evaluation functions (ΔiFD is benchmarked
    /// separately in Fig 16).
    pub fn fig15() -> [FunctionKind; 6] {
        [
            Self::Id,
            Self::Fd,
            Self::MassMatrix,
            Self::MassMatrixInverse,
            Self::DId,
            Self::DFd,
        ]
    }

    /// Paper-style short name.
    pub fn short_name(&self) -> &'static str {
        match self {
            Self::Id => "ID",
            Self::Fd => "FD",
            Self::MassMatrix => "M",
            Self::MassMatrixInverse => "Minv",
            Self::DId => "dID",
            Self::DFd => "dFD",
            Self::DiFd => "diFD",
        }
    }

    /// How many times stages of `kind` fire per task (Fig 14). `M` is
    /// `Mb` alone, `M⁻¹` adds `Mf`; FD is `C` through `Rf`/`Rb` plus
    /// `M⁻¹`; ΔFD's feedback re-enters the Forward-Backward module, so
    /// its `Rf`/`Rb` fire twice (Fig 14f).
    pub fn uses(self, kind: SubmoduleKind) -> usize {
        use FunctionKind::*;
        use SubmoduleKind::*;
        match (self, kind) {
            (Id, Rf | Rb) => 1,
            (DId, Rf | Rb | Df | Db) => 1,
            (DiFd, Rf | Rb | Df | Db) => 1,
            (MassMatrix | MassMatrixInverse, Mb) => 1,
            (MassMatrixInverse, Mf) => 1,
            (Fd, Rf | Rb | Mb | Mf) => 1,
            (DFd, Rf | Rb) => 2,
            (DFd, Df | Db | Mb | Mf) => 1,
            _ => 0,
        }
    }

    /// Columns pushed through the schedule module's symmetric matrix
    /// unit per task on a robot with `nv` DOF (Fig 9c): FD's `M⁻¹(τ − C)`,
    /// the `2nv` columns of `−M⁻¹ ∂τ`, or both for ΔFD.
    pub fn matvec_columns(self, nv: usize) -> usize {
        match self {
            Self::Fd => 1,
            Self::DiFd => 2 * nv,
            Self::DFd => 1 + 2 * nv,
            _ => 0,
        }
    }
}

impl fmt::Display for FunctionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Outputs of a functional run — any subset may be populated depending
/// on the function (the Encode module "selects and combines" them,
/// §V-B).
#[derive(Debug, Clone, Default)]
pub struct FunctionOutput {
    /// Joint torques (ID).
    pub tau: Vec<f64>,
    /// Joint accelerations (FD).
    pub qdd: Vec<f64>,
    /// Mass matrix.
    pub m: Option<MatN>,
    /// Inverse mass matrix (also emitted optionally by ΔFD).
    pub minv: Option<MatN>,
    /// `∂τ/∂q` / `∂τ/∂q̇` (ΔID).
    pub dtau: Option<(MatN, MatN)>,
    /// `∂q̈/∂q` / `∂q̈/∂q̇` (ΔFD / ΔiFD).
    pub dqdd: Option<(MatN, MatN)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(FunctionKind::DiFd.short_name(), "diFD");
        assert_eq!(FunctionKind::MassMatrixInverse.to_string(), "Minv");
        assert_eq!(FunctionKind::all().len(), 7);
        assert_eq!(FunctionKind::fig15().len(), 6);
    }

    #[test]
    fn dfd_fires_every_family() {
        // ΔFD's feedback runs the RNEA pair twice and every other
        // family once.
        for kind in SubmoduleKind::ALL {
            let expected = match kind {
                SubmoduleKind::Rf | SubmoduleKind::Rb => 2,
                _ => 1,
            };
            assert_eq!(FunctionKind::DFd.uses(kind), expected, "{kind}");
        }
        assert_eq!(FunctionKind::MassMatrix.uses(SubmoduleKind::Mf), 0);
        assert_eq!(FunctionKind::DFd.matvec_columns(7), 15);
    }
}
