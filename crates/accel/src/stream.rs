//! The serialized stream interface of the Decode/Encode modules
//! (§V-B1): "Depending on the chosen function, Dadu-RBD will have
//! different inputs and outputs. In order to facilitate the design of
//! the multifunctional pipeline, we unify the formats of all inputs and
//! outputs."
//!
//! Packets are sequences of 32-bit words: one header word (function id,
//! flags, `nv`) followed by the payload encoded as Q11.20 fixed point —
//! the word width the resource model assumes. Encoding is lossy at the
//! 2⁻²⁰ quantization step, exactly like the hardware interface.

use crate::dataflow::FunctionKind;
use rbd_fixed::Fx;
use rbd_model::RobotModel;
use std::fmt;

/// Stream word: Q11.20 in 32 bits (range ±1024, resolution ≈ 1 µunit) —
/// comfortably covers joint states, torques and accelerations.
type Word = Fx<20>;

/// A decoded task: what the Input Stream Module hands to the pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPacket {
    /// Requested function (the `type` field of §V-B).
    pub function: FunctionKind,
    /// Configuration.
    pub q: Vec<f64>,
    /// Velocity.
    pub qd: Vec<f64>,
    /// `q̈` or `τ` depending on the function.
    pub u: Vec<f64>,
    /// Upper triangle of `M⁻¹` (ΔiFD only).
    pub minv_tri: Option<Vec<f64>>,
}

/// Errors raised by the Decode module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the declared payload.
    Truncated {
        /// Words expected.
        expected: usize,
        /// Words present.
        got: usize,
    },
    /// Unknown function id in the header.
    UnknownFunction(u32),
    /// Header dimensions disagree with the configured model.
    DimensionMismatch {
        /// nv in the header.
        header_nv: usize,
        /// nv of the model.
        model_nv: usize,
    },
    /// Empty stream.
    Empty,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { expected, got } => {
                write!(f, "truncated packet: expected {expected} words, got {got}")
            }
            Self::UnknownFunction(id) => write!(f, "unknown function id {id}"),
            Self::DimensionMismatch {
                header_nv,
                model_nv,
            } => write!(
                f,
                "packet nv {header_nv} does not match model nv {model_nv}"
            ),
            Self::Empty => write!(f, "empty stream"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn function_id(f: FunctionKind) -> u32 {
    match f {
        FunctionKind::Id => 0,
        FunctionKind::Fd => 1,
        FunctionKind::MassMatrix => 2,
        FunctionKind::MassMatrixInverse => 3,
        FunctionKind::DId => 4,
        FunctionKind::DFd => 5,
        FunctionKind::DiFd => 6,
    }
}

fn function_from_id(id: u32) -> Option<FunctionKind> {
    Some(match id {
        0 => FunctionKind::Id,
        1 => FunctionKind::Fd,
        2 => FunctionKind::MassMatrix,
        3 => FunctionKind::MassMatrixInverse,
        4 => FunctionKind::DId,
        5 => FunctionKind::DFd,
        6 => FunctionKind::DiFd,
        _ => return None,
    })
}

fn push_f64(words: &mut Vec<u32>, x: f64) {
    words.push(Word::from_f64(x).raw() as i32 as u32);
}

fn read_f64(w: u32) -> f64 {
    Word::from_raw(w as i32 as i64).to_f64()
}

/// Encode module: serializes a task into the unified word stream.
///
/// Layout: `[header | q (nq) | qd (nv) | u (nv) | minv tri?]`, header =
/// `function_id << 24 | nv`.
pub fn encode_task(model: &RobotModel, task: &TaskPacket) -> Vec<u32> {
    let nv = model.nv() as u32;
    let mut words = Vec::with_capacity(1 + task.q.len() + task.qd.len() + task.u.len());
    words.push((function_id(task.function) << 24) | nv);
    for &x in task.q.iter().chain(&task.qd).chain(&task.u) {
        push_f64(&mut words, x);
    }
    if let Some(tri) = &task.minv_tri {
        for &x in tri {
            push_f64(&mut words, x);
        }
    }
    words
}

/// Decode module: parses one task from the word stream.
///
/// # Errors
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_task(model: &RobotModel, words: &[u32]) -> Result<TaskPacket, DecodeError> {
    let header = *words.first().ok_or(DecodeError::Empty)?;
    let function =
        function_from_id(header >> 24).ok_or(DecodeError::UnknownFunction(header >> 24))?;
    let header_nv = (header & 0xFFFFFF) as usize;
    let nv = model.nv();
    if header_nv != nv {
        return Err(DecodeError::DimensionMismatch {
            header_nv,
            model_nv: nv,
        });
    }
    let nq = model.nq();
    let tri = nv * (nv + 1) / 2;
    let want_minv = function == FunctionKind::DiFd;
    let expected = 1 + nq + 2 * nv + if want_minv { tri } else { 0 };
    if words.len() < expected {
        return Err(DecodeError::Truncated {
            expected,
            got: words.len(),
        });
    }
    let mut it = words[1..].iter().copied();
    let mut take =
        |n: usize| -> Vec<f64> { (0..n).map(|_| read_f64(it.next().unwrap())).collect() };
    let q = take(nq);
    let qd = take(nv);
    let u = take(nv);
    let minv_tri = if want_minv { Some(take(tri)) } else { None };
    Ok(TaskPacket {
        function,
        q,
        qd,
        u,
        minv_tri,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::{random_state, robots};

    #[test]
    fn roundtrip_within_quantization() {
        let model = robots::hyq();
        let s = random_state(&model, 3);
        let task = TaskPacket {
            function: FunctionKind::Fd,
            q: s.q.clone(),
            qd: s.qd.clone(),
            u: (0..model.nv()).map(|k| 0.3 * k as f64 - 2.0).collect(),
            minv_tri: None,
        };
        let words = encode_task(&model, &task);
        let back = decode_task(&model, &words).unwrap();
        assert_eq!(back.function, FunctionKind::Fd);
        let eps = Word::epsilon();
        for (a, b) in task.q.iter().zip(&back.q) {
            assert!((a - b).abs() <= eps);
        }
        for (a, b) in task.u.iter().zip(&back.u) {
            assert!((a - b).abs() <= eps);
        }
    }

    #[test]
    fn difd_packet_carries_minv_triangle() {
        let model = robots::iiwa();
        let nv = model.nv();
        let tri = nv * (nv + 1) / 2;
        let task = TaskPacket {
            function: FunctionKind::DiFd,
            q: model.neutral_config(),
            qd: vec![0.1; nv],
            u: vec![0.2; nv],
            minv_tri: Some((0..tri).map(|k| 0.01 * k as f64).collect()),
        };
        let words = encode_task(&model, &task);
        assert_eq!(words.len(), 1 + model.nq() + 2 * nv + tri);
        let back = decode_task(&model, &words).unwrap();
        let got = back.minv_tri.unwrap();
        assert_eq!(got.len(), tri);
        assert!((got[tri - 1] - 0.01 * (tri - 1) as f64).abs() <= Word::epsilon());
    }

    #[test]
    fn decode_rejects_malformed_streams() {
        let model = robots::iiwa();
        assert_eq!(decode_task(&model, &[]), Err(DecodeError::Empty));
        // Unknown function id 9.
        let bad = vec![(9u32 << 24) | model.nv() as u32];
        assert!(matches!(
            decode_task(&model, &bad),
            Err(DecodeError::UnknownFunction(9))
        ));
        // Wrong nv.
        let bad = vec![99];
        assert!(matches!(
            decode_task(&model, &bad),
            Err(DecodeError::DimensionMismatch { .. })
        ));
        // Truncated payload.
        let bad = vec![(model.nv() as u32), 0, 0];
        assert!(matches!(
            decode_task(&model, &bad),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn packet_size_matches_io_model() {
        // The timing model's per-task byte counts must agree with the
        // actual packet layout (inputs side).
        let model = robots::atlas();
        let nv = model.nv();
        let task = TaskPacket {
            function: FunctionKind::Id,
            q: model.neutral_config(),
            qd: vec![0.0; nv],
            u: vec![0.0; nv],
            minv_tri: None,
        };
        let words = encode_task(&model, &task);
        // io model counts nq + 2nv input scalars (header excluded).
        assert_eq!(words.len() - 1, model.nq() + 2 * nv);
    }

    #[test]
    fn negative_values_survive_sign_extension() {
        let model = robots::serial_chain(4);
        let task = TaskPacket {
            function: FunctionKind::Id,
            q: vec![-1000.0, -1e-5, -0.5, 1.5],
            qd: vec![-2.25, 0.0078125, 900.0, -1023.0],
            u: vec![-0.25; 4],
            minv_tri: None,
        };
        let back = decode_task(&model, &encode_task(&model, &task)).unwrap();
        for (a, b) in [task.q, task.qd, task.u]
            .iter()
            .flatten()
            .zip([back.q, back.qd, back.u].iter().flatten())
        {
            assert!((a - b).abs() <= Word::epsilon(), "{a} vs {b}");
        }
    }
}
