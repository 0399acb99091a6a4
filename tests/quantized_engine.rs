//! Cross-crate contracts of the batch-first Q8.8 inference engine:
//! the functional systolic model, the memory placement planner and the
//! deployment-mode RL evaluation all consume the same engine.

use mramrl::env::{DepthCamera, VecEnv};
use mramrl::fixed::Q8_8;
use mramrl::mem::{PlacementPlan, PlacementRequest, StorageClass};
use mramrl::nn::{difftest, qgemm};
use mramrl::rl::{evaluate_vec, ActingPrecision};
use mramrl::systolic::{ArraySpec, FcArraySim};
use mramrl::{DroneEnv, EnvKind, NetworkSpec, QAgent};

/// Deterministic Q8.8-exact values (|v| ≤ 0.25, on the 1/256 grid).
fn grid_vals(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h % 129) as f32 - 64.0) / 256.0
        })
        .collect()
}

/// The systolic array's batched FC dataflow (Fig. 7, tile-resident
/// weights) and the engine's integer GEMM compute the **same bits**:
/// both are bias-seeded ascending-`k` Acc32 chains, re-quantised once.
/// This is the one test that pins the functional hardware model to the
/// deployable engine's kernel and to its test oracle.
#[test]
fn systolic_batched_fc_matches_qgemm_engine_bitwise() {
    for (in_f, out_f, n) in [(33usize, 31usize, 4usize), (100, 70, 8)] {
        let w = grid_vals(in_f * out_f, 1);
        let b = grid_vals(out_f, 2);
        let xs = grid_vals(n * in_f, 3);

        // Functional array model: [n × out_f] dequantised.
        let sim = FcArraySim::load(&ArraySpec::date19(), in_f, out_f, &w, &b);
        let array_out = sim.forward_batch(&xs);

        // Engine kernel on the same quantised operands: the FC batch
        // [n × in_f] is the Bᵀ operand, C is [out_f × n].
        let wq: Vec<Q8_8> = w.iter().map(|&v| Q8_8::from_f32(v)).collect();
        let bq: Vec<Q8_8> = b.iter().map(|&v| Q8_8::from_f32(v)).collect();
        let xq: Vec<Q8_8> = xs.iter().map(|&v| Q8_8::from_f32(v)).collect();
        type QGemm = fn(&mut [Q8_8], &[Q8_8], &[Q8_8], &[Q8_8], usize, usize, usize);
        let gemms: [(&str, QGemm); 2] = [
            ("kernel", qgemm::matmul_bt_bias_requant_into),
            ("oracle", difftest::qmatmul_naive),
        ];
        for (be, gemm) in gemms {
            let mut c = vec![Q8_8::ZERO; out_f * n];
            gemm(&mut c, &wq, &xq, &bq, out_f, in_f, n);
            for v in 0..n {
                for j in 0..out_f {
                    assert_eq!(
                        array_out[v * out_f + j].to_bits(),
                        c[j * n + v].to_f32().to_bits(),
                        "{be} in_f={in_f} out_f={out_f} vector={v} out={j}"
                    );
                }
            }
        }
    }
}

/// The engine's per-layer byte accounting is exactly what the placement
/// planner distributes: a deployment-mode (all-frozen) plan puts every
/// engine byte in STT-MRAM, and an online-training tail moves exactly
/// those layers' bytes (plus same-sized gradient accumulators) to SRAM
/// — total conserved either way.
#[test]
fn engine_bytes_round_trip_through_placement() {
    let spec = NetworkSpec::micro(40, 1, 5);
    let engine = mramrl::nn::QuantizedNet::from_network(&spec, &spec.build(3)).unwrap();
    let layer_bytes = engine.layer_weight_bytes();
    let total = engine.weight_bytes();

    // Deployment mode: every layer frozen → all bytes MRAM-resident.
    let frozen: Vec<(String, u64, bool)> = layer_bytes
        .iter()
        .map(|(n, b)| (n.clone(), *b, false))
        .collect();
    let plan =
        PlacementPlan::solve(&PlacementRequest::new(frozen, 1024, 100_000, 10_000_000)).unwrap();
    assert_eq!(plan.mram_weight_bytes(), total);
    assert_eq!(plan.sram_weight_bytes(), 0);
    assert!(plan.is_write_free_nvm());

    // Online tail (the paper's L3): the last 3 layers' engine bytes move
    // to SRAM, twice (weights + gradient sums); the rest stay in MRAM.
    let k = layer_bytes.len();
    let tail3: Vec<(String, u64, bool)> = layer_bytes
        .iter()
        .enumerate()
        .map(|(i, (n, b))| (n.clone(), *b, i >= k - 3))
        .collect();
    let tail_bytes: u64 = layer_bytes[k - 3..].iter().map(|(_, b)| *b).sum();
    let plan =
        PlacementPlan::solve(&PlacementRequest::new(tail3, 1024, 10_000_000, 10_000_000)).unwrap();
    assert_eq!(plan.sram_weight_bytes(), tail_bytes);
    assert_eq!(plan.sram_gradient_bytes(), tail_bytes);
    assert_eq!(plan.mram_weight_bytes() + plan.sram_weight_bytes(), total);
    assert_eq!(
        plan.layer("FC5").unwrap().weights_in,
        StorageClass::Sram,
        "the output layer is always in the trained tail"
    );
}

/// End-to-end deployment: a trained agent evaluated over a VecEnv fleet
/// in fixed-point acting mode — finite, deterministic, and actually on
/// the Q8.8 grid.
#[test]
fn deployment_mode_fleet_evaluation() {
    let spec = NetworkSpec::micro(16, 1, 5);
    let env = |seed| {
        DroneEnv::new(EnvKind::IndoorApartment, seed)
            .with_camera(DepthCamera::new(16, 16, 1.5, 20.0, 0.01))
    };
    let run = || {
        let mut agent = QAgent::new(&spec, 9).with_acting_precision(ActingPrecision::FixedQ8_8);
        let mut venv = VecEnv::from_envs(vec![env(1), env(2), env(3), env(4)]);
        evaluate_vec(&mut agent, &mut venv, 160, 0.02, 7)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "deployment evaluation must be seed-deterministic");
    assert!(a.sfd >= 0.0 && a.mean_reward.is_finite() && a.episodes > 0);
}
