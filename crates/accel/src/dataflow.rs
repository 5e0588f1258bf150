//! The multifunction interface: the Table I functions and the outputs a
//! functional run emits.

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
}
