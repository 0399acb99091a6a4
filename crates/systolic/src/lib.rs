//! Systolic PE-array model for the `mramrl` platform.
//!
//! Models the paper's 32×32 processing-element array (Fig. 4) and the three
//! row-stationary convolution mapping strategies of §IV:
//!
//! * **Type I** (CONV1): full input depth fits each PE's register file; the
//!   array splits into `floor(32 / filter_height)` segments, each convolving
//!   a different output-channel group over the same input.
//! * **Type II** (CONV2): input channels no longer fit, so they are split
//!   into sequential groups; one set of segments, `out_width` columns used.
//! * **Type III** (CONV3–5): small filters allow two column-wise *sets*,
//!   each processing half of the input channels in parallel with a cross-set
//!   partial-sum merge.
//!
//! Fully-connected layers map as 32×32 weight tiles with row-wise vector
//! propagation (forward, Fig. 7) or column-wise propagation with row-wise
//! accumulation (the transposed product used by backpropagation, Fig. 8 —
//! the O'Leary systolic-transpose trick, so the weight matrix is never
//! physically transposed).
//!
//! The crate computes *structural* quantities — mapping kind, segments,
//! sets, active PEs, pass counts — and an ideal-dataflow cycle roofline.
//! Absolute post-synthesis timing calibration lives in `mramrl-accel`.
//!
//! The *software* twin of these GEMM dataflows is the f32 kernel in
//! `mramrl_nn::backend` (see `docs/gemm_backends.md`): the forward
//! Fig. 7 dataflow corresponds to `matmul_into`, the transposed Fig. 8
//! dataflow to `matmul_at_b_into`. The software kernel never changes
//! any cycle count modelled here — it only changes how fast the
//! simulation itself runs.
//!
//! # Examples
//!
//! ```
//! use mramrl_systolic::{ArraySpec, ConvShape, ConvMapping, RfPolicy};
//!
//! let array = ArraySpec::date19();
//! // CONV1 of the paper's modified AlexNet.
//! let conv1 = ConvShape::new(227, 227, 3, 96, 11, 11, 4, 0);
//! let plan = ConvMapping::plan(&array, &conv1, RfPolicy::Date19).unwrap();
//! assert_eq!(plan.segments_per_set, 2);
//! assert_eq!(plan.active_pes, 704); // Fig. 12(a)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod conv_map;
mod cycles;
mod dataflow;
mod error;
mod fc_map;
pub mod functional;
mod mapping;
mod pe;

pub use array::ArraySpec;
pub use conv_map::ConvMapping;
pub use cycles::CycleModel;
pub use dataflow::{ConvDataflow, FlowEstimate};
pub use error::MappingError;
pub use fc_map::FcMapping;
pub use functional::FcArraySim;
pub use mapping::{ConvShape, MappingKind, RfPolicy};
pub use pe::PeSpec;

#[cfg(test)]
mod tests {
    #[test]
    fn send_sync_public_types() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ArraySpec>();
        assert_send_sync::<crate::ConvMapping>();
        assert_send_sync::<crate::FcMapping>();
        assert_send_sync::<crate::MappingError>();
    }
}
