//! From-scratch CNN library for the `mramrl` reproduction.
//!
//! Implements everything the paper's learning stack needs, with no external
//! ML dependencies:
//!
//! * a dense [`Tensor`] type and seeded initialisers;
//! * the layer zoo of the modified AlexNet (Fig. 3): [`Conv2d`],
//!   [`MaxPool2d`], [`Relu`], [`Lrn`] (local response normalisation),
//!   [`Flatten`], [`Linear`] — every layer with analytic backward passes
//!   verified against numerical differentiation;
//! * a [`Network`] container with per-layer freezing (the mechanism behind
//!   the paper's L2/L3/L4 partial-training topologies), gradient
//!   accumulation over a batch, and [`Sgd`] updates;
//! * [`NetworkSpec`]: declarative network descriptions, including the exact
//!   full-size DATE-19 AlexNet (56.2 M weights; reproduces the Fig. 3(a)
//!   census byte-for-byte) and a width-scaled *micro* variant that keeps
//!   the 5-conv + 5-FC topology but trains in seconds on a CPU;
//! * one f32 GEMM kernel ([`backend`]) behind every conv/FC matrix
//!   product — a register tile on AVX2 lanes (scalar without AVX2 or
//!   under `NN_SIMD=off`), bit-identical to the naive oracle in
//!   [`difftest`] (see `docs/gemm_backends.md`);
//! * a process-persistent deterministic worker [`pool`] behind every
//!   parallel site in the stack (the one parallel rule that splits a
//!   large top-level float pass — conv sample slabs, FC row bands,
//!   `dW ∥ dX`, SGD chunks — plus `VecEnv` lanes and concurrent agent
//!   forwards), sized by `NN_POOL_THREADS` and bit-identical to serial
//!   execution at any thread count (see `docs/threading.md`);
//! * a batch-first 16-bit fixed-point inference **engine** ([`quant`])
//!   mirroring the platform's Q8.8 datapath with wide MAC accumulation:
//!   one integer GEMM kernel ([`qgemm`] — the pair tile, on `pmaddwd`
//!   lanes or scalar adds, bit-identical to its oracle), Q8.8 im2col
//!   packing, and a caller-owned [`quant::QWorkspace`] mirroring the
//!   float [`Workspace`] (see `docs/fixed_point.md`);
//! * weight (de)serialisation for the transfer-learning hand-off.
//!
//! The paper trains with **batch-size-N gradient accumulation** (§III-D);
//! the primary API is batch-first: [`Network::forward_batch`] /
//! [`Network::backward_batch`] process `[N, ...]` tensors against a
//! caller-owned, reusable [`Workspace`] and are **bit-identical** to `N`
//! serial single-image passes (see `docs/batching.md`). The single-image `forward` / `backward` survive
//! as batch-of-1 wrappers (§V: the platform "serially process\[es\] one
//! image at a time"); gradients accumulate until [`Network::apply_sgd`]
//! either way.
//!
//! # Examples
//!
//! ```
//! use mramrl_nn::{NetworkSpec, Sgd};
//!
//! // A tiny conv net: 5 actions from an 8×8 depth image.
//! let spec = NetworkSpec::micro(8, 1, 5);
//! let mut net = spec.build(42);
//! let image = mramrl_nn::Tensor::zeros(&[1, 8, 8]);
//! let q_values = net.forward(&image);
//! assert_eq!(q_values.shape(), &[5]);
//! ```

// `deny` rather than `forbid`: the whole crate is `#![deny(unsafe_code)]`
// except for two audited modules that opt back in with a module-level
// `allow` — [`pool`] (one lifetime-erasure site: the persistent worker
// pool must dispatch borrowed closures, exactly like `crossbeam::scope`
// does internally) and [`simd`] (the `core::arch` lane kernels:
// `target_feature` calls behind runtime detection, bounded unaligned
// vector loads, and the `repr(transparent)` `&[Q8_8]` → `&[i16]`
// reinterpret, each with its own safety comment). Every other module
// rejects `unsafe` at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod conv;
pub mod difftest;
mod error;
mod fc;
mod flatten;
pub mod gemm;
mod init;
mod layer;
mod loss;
mod lrn;
mod maxpool;
mod network;
pub mod pool;
pub mod qgemm;
pub mod quant;
mod relu;
mod serialize;
mod sgd;
pub mod simd;
pub mod spec;
mod tensor;
mod topology;
pub mod workspace;

pub use conv::Conv2d;
pub use error::NnError;
pub use fc::Linear;
pub use flatten::Flatten;
pub use init::WeightInit;
pub use layer::{Layer, ParamTensor};
pub use loss::Loss;
pub use lrn::Lrn;
pub use maxpool::MaxPool2d;
pub use network::Network;
pub use quant::{QWorkspace, QuantizedNet};
pub use relu::Relu;
pub use sgd::Sgd;
pub use spec::{LayerSpec, NetworkSpec};
pub use tensor::{argmax, Tensor};
pub use topology::Topology;
pub use workspace::{LayerWs, Workspace};

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::pool::parse_thread_knob;
    use crate::simd::parse_simd_knob;

    /// Knob-parser inputs: a mix of the tokens the parsers accept or
    /// nearly accept (numbers at the `usize` edge, signs, whitespace,
    /// mixed case, switch names) and arbitrary Unicode scalars — the
    /// space a typo'd environment variable lives in.
    fn knob_string() -> impl Strategy<Value = String> {
        const TOKENS: [&str; 26] = [
            "0",
            "1",
            "7",
            "42",
            "18446744073709551615",
            "18446744073709551616",
            "-",
            "+",
            " ",
            "\t",
            "\n",
            "on",
            "OFF",
            "Auto",
            "true",
            "false",
            "naive",
            "Blocked",
            "THREADED",
            "threaded",
            "Pooled",
            "simd",
            "\u{0}",
            "é",
            "İ",
            "\u{FEFF}",
        ];
        collection::vec((0usize..2 * TOKENS.len(), any::<u32>()), 0..6).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(pick, code)| match TOKENS.get(pick) {
                    Some(token) => (*token).to_string(),
                    None => char::from_u32(code % 0x11_0000)
                        .unwrap_or(char::REPLACEMENT_CHARACTER)
                        .to_string(),
                })
                .collect()
        })
    }

    proptest! {
        /// No input panics a knob parser, and every accepted value
        /// round-trips through its canonical spelling.
        #[test]
        fn knob_parsers_never_panic_and_round_trip(s in knob_string()) {
            if let Some(t) = parse_thread_knob("K", &s) {
                prop_assert!(t > 0);
                prop_assert_eq!(parse_thread_knob("K", &t.to_string()), Some(t));
            }
            if let Some(on) = parse_simd_knob(&s) {
                prop_assert_eq!(parse_simd_knob(if on { "on" } else { "off" }), Some(on));
            }
        }

        /// Every positive thread count round-trips, with or without
        /// surrounding whitespace.
        #[test]
        fn thread_knob_round_trips_every_count(t in 1usize..usize::MAX) {
            prop_assert_eq!(parse_thread_knob("K", &t.to_string()), Some(t));
            prop_assert_eq!(parse_thread_knob("K", &format!(" {t}\n")), Some(t));
        }
    }

    #[test]
    fn send_sync_public_types() {
        fn assert_send<T: Send>() {}
        // `Network: Sync` is what lets the pool run two networks'
        // forwards concurrently (`forward_batch` takes `&self`).
        fn assert_sync<T: Sync>() {}
        assert_send::<crate::Tensor>();
        assert_send::<crate::Network>();
        assert_send::<crate::NnError>();
        assert_sync::<crate::Tensor>();
        assert_sync::<crate::Network>();
    }
}
