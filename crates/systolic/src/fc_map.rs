//! Fully-connected layer mapping (§IV-B forward, §V-A backward).

use crate::array::ArraySpec;

/// Direction of the vector-matrix product on the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcDirection {
    /// Forward: row-wise vector propagation, vertical pSUM accumulation
    /// (Fig. 7).
    Forward,
    /// Backward: column-wise vector propagation, row-wise pSUM
    /// accumulation — the vector-*transposed*-matrix product of Fig. 8,
    /// computed without physically transposing the weight tiles.
    /// (Software twin: `mramrl_nn`'s `backend::matmul_at_b_into`, which
    /// also never materialises the transpose — see
    /// `docs/gemm_backends.md`.)
    Transposed,
}

/// A planned FC-layer pass over the array.
///
/// FC layers are **weight-ingest bound**: the weight matrix streams into
/// the array through the 128-bit inter-PE links at 8 × 16-bit words per
/// cycle, while the (tiny) activation vector is broadcast. The cycle count
/// is therefore `ceil(weights / 8)` plus a pipeline fill per 32×32 tile.
/// With a 16-cycle fill this lands within ~1 % of the paper's FC1/FC2
/// forward latencies with no further fitting (see `mramrl-accel`).
///
/// # Examples
///
/// ```
/// use mramrl_systolic::{ArraySpec, FcMapping};
///
/// // FC1: 9216 → 4096.
/// let plan = FcMapping::plan(&ArraySpec::date19(), 9216, 4096);
/// assert_eq!(plan.active_pes, 1024);
/// let ms = plan.total_cycles() as f64 * 1e-6; // 1 GHz → cycles = ns
/// assert!((ms - 5.365).abs() < 0.1, "{ms}"); // Fig. 12(a): 5.365 ms
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcMapping {
    /// Input features.
    pub in_features: u32,
    /// Output features.
    pub out_features: u32,
    /// Direction of the product.
    pub direction: FcDirection,
    /// 32×32 weight tiles required.
    pub tiles: u64,
    /// Active PEs (paper convention: `min(rows,in) × min(cols,out)`; 160
    /// for FC5, 1024 for the rest — Fig. 12).
    pub active_pes: u32,
    /// Weight words streamed (weights + biases).
    pub weight_words: u64,
    /// Cycles spent streaming weights at 8 words/cycle.
    pub stream_cycles: u64,
    /// Pipeline fill cycles (16 per tile).
    pub fill_cycles: u64,
}

/// Pipeline fill/drain cycles charged per 32×32 tile.
///
/// Chosen once so the weight-stream model reproduces Fig. 12(a)'s FC1
/// (5.365 ms) and FC2 (1.189 ms) forward latencies within ~1 %; the same
/// constant is then used for every FC layer and both directions.
pub const TILE_FILL_CYCLES: u64 = 16;

impl FcMapping {
    /// Plans a forward vector-matrix product.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn plan(array: &ArraySpec, in_features: u32, out_features: u32) -> Self {
        Self::plan_directed(array, in_features, out_features, FcDirection::Forward)
    }

    /// Plans a transposed (backward) product.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn plan_transposed(array: &ArraySpec, in_features: u32, out_features: u32) -> Self {
        Self::plan_directed(array, in_features, out_features, FcDirection::Transposed)
    }

    fn plan_directed(
        array: &ArraySpec,
        in_features: u32,
        out_features: u32,
        direction: FcDirection,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "fc dimensions must be positive"
        );
        let row_tiles = u64::from(in_features.div_ceil(array.rows));
        let col_tiles = u64::from(out_features.div_ceil(array.cols));
        let tiles = row_tiles * col_tiles;
        let weight_words =
            u64::from(in_features) * u64::from(out_features) + u64::from(out_features);
        let ingest = u64::from(array.ingest_words_per_cycle());
        let stream_cycles = weight_words.div_ceil(ingest);
        let active_pes = in_features.min(array.rows) * out_features.min(array.cols);
        Self {
            in_features,
            out_features,
            direction,
            tiles,
            active_pes,
            weight_words,
            stream_cycles,
            fill_cycles: tiles * TILE_FILL_CYCLES,
        }
    }

    /// Total cycles for the pass.
    pub fn total_cycles(&self) -> u64 {
        self.stream_cycles + self.fill_cycles
    }

    /// Latency in milliseconds at `clock_ghz`.
    pub fn latency_ms(&self, clock_ghz: f64) -> f64 {
        self.total_cycles() as f64 / clock_ghz * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ArraySpec = ArraySpec::date19();

    #[test]
    fn fc1_latency_matches_fig12a() {
        let p = FcMapping::plan(&A, 9216, 4096);
        assert_eq!(p.weight_words, 37_752_832); // Fig. 3(a) exactly
        assert_eq!(p.tiles, 288 * 128);
        let ms = p.latency_ms(1.0);
        // Paper: 5.365 ms. Model: 4.719 (stream) + 0.590 (fill) = 5.309 ms.
        assert!((ms - 5.365).abs() / 5.365 < 0.02, "{ms}");
    }

    #[test]
    fn fc2_latency_matches_fig12a() {
        let p = FcMapping::plan(&A, 4096, 2048);
        assert_eq!(p.weight_words, 8_390_656);
        let ms = p.latency_ms(1.0);
        // Paper: 1.189 ms. Model: 1.049 + 0.131 = 1.180 ms.
        assert!((ms - 1.189).abs() / 1.189 < 0.02, "{ms}");
    }

    #[test]
    fn fc3_fc4_within_six_percent() {
        for (inf, outf, paper_ms) in [(2048u32, 2048u32, 0.562), (2048, 1024, 0.280)] {
            let ms = FcMapping::plan(&A, inf, outf).latency_ms(1.0);
            assert!(
                (ms - paper_ms).abs() / paper_ms < 0.06,
                "{inf}x{outf}: {ms}"
            );
        }
    }

    #[test]
    fn fc5_active_pes_are_160() {
        // Fig. 12: FC5 (1024 → 5) activates 5 columns × 32 rows.
        let p = FcMapping::plan(&A, 1024, 5);
        assert_eq!(p.active_pes, 160);
    }

    #[test]
    fn big_fc_layers_use_full_array() {
        for (i, o) in [(9216u32, 4096u32), (4096, 2048), (2048, 2048), (2048, 1024)] {
            assert_eq!(FcMapping::plan(&A, i, o).active_pes, 1024);
        }
    }

    #[test]
    fn transposed_costs_match_forward() {
        // The O'Leary systolic transpose reuses the same tiles and stream:
        // backward passes cost the same per traversal as forward.
        let f = FcMapping::plan(&A, 2048, 1024);
        let t = FcMapping::plan_transposed(&A, 2048, 1024);
        assert_eq!(f.total_cycles(), t.total_cycles());
        assert_eq!(t.direction, FcDirection::Transposed);
    }

    #[test]
    fn small_layer_tiles() {
        let p = FcMapping::plan(&A, 5, 5);
        assert_eq!(p.tiles, 1);
        assert_eq!(p.active_pes, 25);
    }

    #[test]
    #[should_panic(expected = "fc dimensions must be positive")]
    fn zero_dimension_panics() {
        let _ = FcMapping::plan(&A, 0, 5);
    }
}
