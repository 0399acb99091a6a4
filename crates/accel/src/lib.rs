//! Analytical latency / energy / power model of the DATE-19 platform.
//!
//! Composes the memory substrate (`mramrl-mem`) and the systolic-array
//! mappings (`mramrl-systolic`) into per-layer forward (§IV) and backward
//! (§V) costs for the paper's modified AlexNet, then into training-
//! iteration costs, supported frame rates and the Fig. 12/13 tables.
//!
//! ## Fidelity contract (read this before quoting numbers)
//!
//! Two calibration profiles exist ([`Calibration::ideal`] and
//! [`Calibration::date19`]); every reported quantity is tagged by where it
//! comes from:
//!
//! * **Derived** (both profiles): all FC-layer forward/backward latencies
//!   (pure weight-streaming model over the 128-bit ingest links — within
//!   ~1–6 % of Fig. 12 with no fitting), the FC1 gradient spill
//!   read-modify-write (from Table 1's 30 ns write pulse), NVM write-back
//!   costs, memory energies, active-PE counts for FC layers and conv
//!   forward, and *every relative claim* (L-topology vs E2E reductions,
//!   fps ratios).
//! * **Anchored** (`date19` only): conv-layer post-synthesis latencies and
//!   backward active-PE counts, which are not derivable from the paper's
//!   public description (its conv utilisations vary 0.9–7.6 % with no
//!   stated schedule). `date19` pins them to Fig. 12 and says so; `ideal`
//!   reports the first-principles roofline instead.
//! * **Fitted**: the power line `P = P₀ + p·PEs + e·stream` (three
//!   constants fitted to Fig. 12's power column, used by both profiles)
//!   and, in `date19` only, one per-training-iteration overhead constant
//!   fitted to the Fig. 13(a) `L4 @ batch 4 = 15 fps` anchor.
//!
//! `make_report` writes ours-vs-paper for every cell of every table under
//! both profiles to `results/REPORT.md`; `tests/paper_claims.rs` pins
//! each claim the paper makes.
//!
//! # Examples
//!
//! ```
//! use mramrl_accel::{Calibration, PlatformModel, Topology};
//!
//! let model = PlatformModel::new(Calibration::date19());
//! let fwd = model.forward_table();
//! assert_eq!(fwd.len(), 10);
//! // The paper's headline: E2E training is ~5× the latency of L4.
//! let l4 = model.per_image(Topology::L4);
//! let e2e = model.per_image(Topology::E2E);
//! assert!(e2e.total_ms() > 4.0 * l4.total_ms());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bwd;
mod calib;
mod cost;
mod fwd;
pub mod paper;
mod params;
mod power;
mod report;
mod training;

pub use calib::Calibration;
pub use cost::{IterationCost, LayerCost, PerImageCost};
pub use params::SystemParams;
pub use power::PowerModel;
pub use report::{compare_rows, RowComparison};
pub use training::{PlatformModel, Topology};

#[cfg(test)]
mod tests {
    #[test]
    fn send_sync_public_types() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Calibration>();
        assert_send_sync::<crate::PlatformModel>();
        assert_send_sync::<crate::LayerCost>();
    }
}
