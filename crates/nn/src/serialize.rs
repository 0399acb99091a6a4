//! Weight (de)serialisation — the transfer-learning "download" step.
//!
//! The paper's flow downloads the meta-trained model onto the drone's NVM
//! and SRAM before deployment (§II-D step 1). This module provides the
//! byte-level hand-off: a self-describing little-endian format (magic,
//! tensor count, per-tensor dims + `f32` payload). A load checks the
//! whole blob before it writes a single weight.

use crate::error::NnError;
use crate::network::Network;

const MAGIC: &[u8; 4] = b"MRNN";

impl Network {
    /// Serialises every parameter tensor to bytes.
    pub fn save_weights(&self) -> Vec<u8> {
        let tensors: Vec<&crate::Tensor> = self
            .layers()
            .flat_map(|l| l.params().into_iter().map(|p| &p.value))
            .collect();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
        for t in tensors {
            out.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
            for &d in t.shape() {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &v in t.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Loads weights previously produced by [`Network::save_weights`] into
    /// this (structurally identical) network.
    ///
    /// All or nothing: the magic, the tensor count, every shape, every
    /// payload length and the absence of trailing bytes are checked
    /// before any weight is written, so an `Err` leaves the network
    /// exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightFormat`] on malformed bytes and
    /// [`NnError::ShapeMismatch`] if the tensor structure differs.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), NnError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = cur.take(4)?;
        if magic != MAGIC {
            return Err(NnError::WeightFormat {
                reason: "bad magic".into(),
            });
        }
        let count = cur.u32()? as usize;

        // Collect mutable param references in the same traversal order.
        let mut params: Vec<&mut crate::Tensor> = Vec::new();
        for l in self.layers_mut() {
            for p in l.params_mut() {
                params.push(&mut p.value);
            }
        }
        if params.len() != count {
            return Err(NnError::ShapeMismatch {
                context: format!("tensor count {} vs {}", params.len(), count),
            });
        }
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(count);
        for t in &params {
            let ndim = cur.u32()? as usize;
            if ndim == 0 || ndim > 8 {
                return Err(NnError::WeightFormat {
                    reason: format!("implausible rank {ndim}"),
                });
            }
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(cur.u32()? as usize);
            }
            if shape != t.shape() {
                return Err(NnError::ShapeMismatch {
                    context: format!("tensor shape {:?} vs {:?}", t.shape(), shape),
                });
            }
            payloads.push(cur.take(4 * t.len())?);
        }
        if cur.pos != bytes.len() {
            return Err(NnError::WeightFormat {
                reason: "trailing bytes".into(),
            });
        }
        for (t, payload) in params.into_iter().zip(payloads) {
            for (v, b) in t.data_mut().iter_mut().zip(payload.chunks_exact(4)) {
                *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        Ok(())
    }

    pub(crate) fn layers_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn crate::Layer>> {
        self.layers_vec_mut().iter_mut()
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NnError> {
        if self.pos + n > self.bytes.len() {
            return Err(NnError::WeightFormat {
                reason: "truncated".into(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, NnError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::NetworkSpec;
    use crate::{NnError, Tensor};

    #[test]
    fn roundtrip_preserves_outputs() {
        let a = NetworkSpec::micro(16, 1, 5).build(11);
        let x = Tensor::filled(&[1, 1, 16, 16], 0.4);
        let mut ws = a.workspace();
        let y_a = a.forward_batch(&x, &mut ws).clone();
        let bytes = a.save_weights();

        let mut b = NetworkSpec::micro(16, 1, 5).build(999);
        assert_ne!(b.forward_batch(&x, &mut ws).data(), y_a.data());
        b.load_weights(&bytes).unwrap();
        assert_eq!(b.forward_batch(&x, &mut ws).data(), y_a.data());
    }

    /// Loads a seed-1 net's bytes, edited by `edit`, into a seed-999
    /// net. The load must fail and leave every weight where it was;
    /// returns its error.
    fn failed_load(edit: impl FnOnce(&mut Vec<u8>)) -> NnError {
        let mut bytes = NetworkSpec::micro(16, 1, 5).build(1).save_weights();
        edit(&mut bytes);
        let mut net = NetworkSpec::micro(16, 1, 5).build(999);
        let before = net.save_weights();
        let err = net.load_weights(&bytes).expect_err("malformed blob");
        assert!(net.save_weights() == before, "a failed load wrote weights");
        err
    }

    #[test]
    fn bad_magic_rejected() {
        let err = failed_load(|b| b[0] = b'X');
        assert!(matches!(err, NnError::WeightFormat { .. }));
    }

    #[test]
    fn truncated_rejected() {
        let err = failed_load(|b| b.truncate(b.len() - 3));
        assert!(matches!(err, NnError::WeightFormat { reason } if reason == "truncated"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let err = failed_load(|b| b.push(0));
        assert!(matches!(err, NnError::WeightFormat { reason } if reason == "trailing bytes"));
    }

    #[test]
    fn structural_mismatch_rejected() {
        let a = NetworkSpec::micro(16, 1, 5).build(0);
        let mut b = NetworkSpec::micro(16, 1, 4).build(0);
        assert!(matches!(
            b.load_weights(&a.save_weights()),
            Err(NnError::ShapeMismatch { .. })
        ));
    }
}
