//! Fixed-point inference: the 16-bit Q8.8 engine the platform deploys
//! with, run the way the silicon runs it — **batched**: a `VecEnv`
//! fleet of drones acting through one `QuantizedNet` snapshot per
//! vec-step (deployment mode), with float-vs-Q8.8 greedy agreement
//! measured on the live frames and the engine's weight bytes
//! cross-checked against the accelerator cost model.
//!
//! ```sh
//! cargo run --release --example fixed_point_inference
//! ```

use mramrl::accel::SystemParams;
use mramrl::env::VecEnv;
use mramrl::nn::quant::{QWorkspace, QuantizedNet};
use mramrl::rl::ActingPrecision;
use mramrl::{EnvKind, NetworkSpec, QAgent, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let px = 16usize;
    let lanes = 4usize;
    let spec = NetworkSpec::micro(px, 1, 5);
    let mut agent = QAgent::new(&spec, 5);

    // Deployment mode: every act below runs the Q8.8 engine, batched.
    agent.set_acting_precision(ActingPrecision::FixedQ8_8);
    let qnet: QuantizedNet = agent.quantized_snapshot().clone();
    println!(
        "Quantised model: {} bytes of 16-bit weights+biases (float would be {} bytes of f32)",
        qnet.weight_bytes(),
        qnet.weight_bytes() * 2,
    );
    for (name, bytes) in qnet.layer_weight_bytes() {
        println!("  {name:>6}: {bytes:>6} B (STT-MRAM-resident, read-only in flight)");
    }

    // The accelerator cost model charges exactly the bytes the engine
    // stores — pinned, not assumed.
    let model = mramrl::accel::PlatformModel::with_spec(
        spec.clone(),
        SystemParams::date19(),
        mramrl::accel::Calibration::ideal(),
    );
    model.verify_engine_bytes(&qnet)?;
    println!("Cost-model byte accounting verified against the engine snapshot.\n");

    // A fleet of lanes stepping together: ONE batched engine pass per
    // vec-step selects all actions (Fig. 4(b) datapath, batch = lanes).
    // Lane i is seeded base + i, matching `VecEnv::new`'s convention.
    let mut venv = VecEnv::from_envs(
        (0..lanes as u64)
            .map(|i| {
                mramrl::DroneEnv::new(EnvKind::IndoorApartment, 3 + i).with_camera(
                    mramrl::env::DepthCamera::new(px, px, 90.0f32.to_radians(), 20.0, 0.02),
                )
            })
            .collect(),
    );
    let mut obs: Vec<Tensor> = venv
        .reset_all()
        .iter()
        .map(|img| Tensor::from_vec(&[1, img.height(), img.width()], img.data().to_vec()))
        .collect();

    let mut fws = mramrl::nn::Workspace::for_spec(&spec);
    let mut qws = QWorkspace::for_net(&qnet);
    // Seed 5 = the agent's seed: same weights as the snapshot's source.
    let float_net = spec.build(5);

    let steps = 12usize;
    let mut agree = 0usize;
    let mut total = 0usize;
    println!(
        "{:>5} {:>28} {:>28} {:>7}",
        "step", "q8.8 actions (per lane)", "f32 actions (per lane)", "match"
    );
    for step in 0..steps {
        // Stack the lanes' frames into one [K, 1, H, W] batch.
        let mut data = Vec::with_capacity(lanes * px * px);
        for o in &obs {
            data.extend_from_slice(o.data());
        }
        let batch = Tensor::from_vec(&[lanes, 1, px, px], data);

        // Deployment act: the agent routes through the Q8.8 engine.
        let aq = agent.greedy_actions(&batch);
        // Float reference on the same frames (fidelity, measured live).
        let qf = float_net.forward_batch(&batch, &mut fws);
        let af: Vec<usize> = (0..lanes)
            .map(|i| mramrl::nn::argmax(qf.sample(i)))
            .collect();
        // And the raw engine, to show the agent adds routing only.
        let q_direct = qnet.q_values_batch(&batch, &mut qws);
        assert_eq!(
            aq,
            (0..lanes)
                .map(|i| mramrl::nn::argmax(q_direct.sample(i)))
                .collect::<Vec<_>>()
        );

        let matches = aq.iter().zip(&af).filter(|(a, b)| a == b).count();
        agree += matches;
        total += lanes;
        println!(
            "{:>5} {:>28} {:>28} {:>4}/{}",
            step,
            format!("{aq:?}"),
            format!("{af:?}"),
            matches,
            lanes
        );

        let actions: Vec<mramrl::env::Action> = aq
            .iter()
            .map(|&a| mramrl::env::Action::from_index(a))
            .collect();
        for (i, s) in venv.step(&actions).iter().enumerate() {
            obs[i] = if s.crashed {
                let img = venv.reset(i);
                Tensor::from_vec(&[1, img.height(), img.width()], img.data().to_vec())
            } else {
                Tensor::from_vec(
                    &[1, s.observation.height(), s.observation.width()],
                    s.observation.data().to_vec(),
                )
            };
        }
    }
    println!(
        "\nGreedy-action agreement over {total} live lane-frames: {agree}/{total} \
         — the fidelity the 16-bit hardware datapath relies on, measured batched."
    );
    Ok(())
}
