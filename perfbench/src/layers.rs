//! The per-layer probe of a traced run. It times each layer from
//! outside, around calls into that layer's public functions, at the
//! workload's batch shape ([`BATCH`] samples):
//!
//! * `mramrl_nn`: each layer's `Layer::forward_batch` and
//!   `Layer::backward_batch`, and a one-layer `QuantizedNet`, beside the
//!   whole-pass `Network::forward_batch` / `backward_batch` and
//!   `QuantizedNet::forward_batch` they should add up to;
//! * `mramrl_rl`: acting, `QAgent::accumulate_td_batch`,
//!   `QAgent::apply_update` and `QAgent::quantized_snapshot_shared`,
//!   under the workload's topology;
//! * `mramrl_env`: `step_fleets` over the workload's fleets;
//! * `mramrl_serve`: `decide_batch` for one cap flush and one partial
//!   flush, and `SnapshotStore::publish`;
//! * `mramrl_accel`: the modeled per-layer latency shares of
//!   `PlatformModel::with_spec` on the same net, ranked against the
//!   measured shares (the Fig. 12 cross-check).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mramrl_accel::{Calibration, PlatformModel, SystemParams};
use mramrl_env::{step_fleets, Action};
use mramrl_fixed::Q8_8;
use mramrl_nn::{
    Conv2d, Flatten, Layer, LayerSpec, LayerWs, Linear, Lrn, MaxPool2d, Network, NetworkSpec,
    QWorkspace, QuantizedNet, Relu, Sgd, Tensor, Topology,
};
use mramrl_rl::{QAgent, TransitionBatch};
use mramrl_serve::{decide_batch, ObsRequest, SnapshotStore};

use crate::fixtures::{self, BATCH};
use crate::report::Outcome;
use crate::stats::{median, median_us, spearman, time, us};

/// Timed calls per measured quantity (the median is reported).
const REPS: usize = 25;
/// Timed `step_fleets` calls.
const ENV_REPS: usize = 60;
/// Publishes per timed `SnapshotStore::publish` sample.
const PUBLISHES: usize = 1000;
/// Drones per serving tick; split into one cap flush and one partial.
const TICK_DRONES: usize = 48;

/// How the workload's actors pick actions.
#[derive(Clone, Copy)]
pub enum Acting {
    /// The online float net (`QAgent::q_values_batch_into`).
    Float,
    /// A Q8.8 snapshot (`QuantizedNet::q_values_batch`).
    Q88Snapshot,
}

/// Runs every layer measurement and appends its metrics to `out`.
pub fn probe(out: &mut Outcome, topology: Topology, acting: Acting, obs: &Tensor, seed: u64) {
    let spec = mramrl_bench::batch_td_spec();
    let nn = nn_layers(out, &spec, obs, seed);
    rl_layer(out, &spec, topology, acting, obs, seed);
    env_layer(out, seed);
    serve_layer(out, &spec, obs, seed);
    accel_cross_check(out, &spec, &nn);
}

/// Builds one layer of `spec` on its own, as `NetworkSpec::build` would.
fn build_layer(l: &LayerSpec, seed: u64) -> Box<dyn Layer> {
    match l.clone() {
        LayerSpec::Conv {
            name,
            in_c,
            out_c,
            k,
            stride,
            pad,
        } => Box::new(Conv2d::new(name, in_c, out_c, k, stride, pad, seed)),
        LayerSpec::Relu { name } => Box::new(Relu::new(name)),
        LayerSpec::Lrn { name } => Box::new(Lrn::alexnet(name)),
        LayerSpec::MaxPool { name, k, stride } => Box::new(MaxPool2d::new(name, k, stride)),
        LayerSpec::Flatten { name } => Box::new(Flatten::new(name)),
        LayerSpec::Fc { name, in_f, out_f } => Box::new(Linear::new(name, in_f, out_f, seed)),
    }
}

/// The measured per-layer times the Fig. 12 cross-check ranks.
struct NnTimes {
    /// `(layer, Q8.8 forward µs)` of the parameterised layers.
    q88_fwd: Vec<(String, f64)>,
    /// `(layer, f32 backward µs)` of the parameterised layers.
    f32_bwd: Vec<(String, f64)>,
}

/// One pass kind's samples, per rep: the whole pass and each chained
/// layer, timed back to back.
struct PassSamples {
    whole: Vec<Duration>,
    layers: Vec<Vec<Duration>>,
    coverage: Vec<f64>,
}

impl PassSamples {
    fn new(layers: usize) -> Self {
        Self {
            whole: Vec::new(),
            layers: vec![Vec::new(); layers],
            coverage: Vec::new(),
        }
    }

    fn push(&mut self, whole: Duration, layers: &[Duration]) {
        self.whole.push(whole);
        for (s, &t) in self.layers.iter_mut().zip(layers) {
            s.push(t);
        }
        let sum: Duration = layers.iter().sum();
        self.coverage.push(sum.as_secs_f64() / whole.as_secs_f64());
    }

    /// Reports `nn.<kind>.<LAYER>_us` for conv and FC layers,
    /// `nn.<kind>.other_us` for the rest, the whole pass, and the
    /// coverage: the median over reps of the layer sum over the whole
    /// pass of the same rep. Returns the per-layer medians.
    fn report(&self, out: &mut Outcome, kind: &str, spec: &NetworkSpec) -> Vec<f64> {
        let per_layer: Vec<f64> = self.layers.iter().map(|s| median_of(s)).collect();
        let mut other = 0.0;
        for (l, &t) in spec.layers.iter().zip(&per_layer) {
            match l {
                LayerSpec::Conv { name, .. } | LayerSpec::Fc { name, .. } => {
                    out.metric(format!("nn.{kind}.{name}_us"), t, "us");
                }
                _ => other += t,
            }
        }
        out.metric(format!("nn.{kind}.other_us"), other, "us");
        out.metric(format!("nn.{kind}.total_us"), median_of(&self.whole), "us");
        out.metric(
            format!("nn.{kind}.coverage"),
            median(&self.coverage),
            "ratio",
        );
        per_layer
    }
}

fn param_times(spec: &NetworkSpec, per_layer: &[f64]) -> Vec<(String, f64)> {
    spec.layers
        .iter()
        .zip(per_layer)
        .filter(|(l, _)| matches!(l, LayerSpec::Conv { .. } | LayerSpec::Fc { .. }))
        .map(|(l, &t)| (l.name().to_string(), t))
        .collect()
}

fn median_of(ts: &[Duration]) -> f64 {
    median(&ts.iter().map(|&d| us(d)).collect::<Vec<_>>())
}

/// Times each layer's `forward_batch` along one chained pass.
fn chain_forward(layers: &[Box<dyn Layer>], ws: &mut [LayerWs], x: &Tensor) -> Vec<Duration> {
    (0..layers.len())
        .map(|i| {
            let (prev, rest) = ws.split_at_mut(i);
            let input = match i {
                0 => x,
                _ => prev[i - 1].out.as_ref().expect("layer wrote its output"),
            };
            time(|| layers[i].forward_batch(input, &mut rest[0]))
        })
        .collect()
}

/// Times each layer's `backward_batch` along one chained backward pass
/// (every layer trainable, as in E2E), after [`chain_forward`].
fn chain_backward(
    layers: &mut [Box<dyn Layer>],
    ws: &mut [LayerWs],
    grad: &Tensor,
) -> Vec<Duration> {
    let n = layers.len();
    let mut t = vec![Duration::ZERO; n];
    for i in (0..n).rev() {
        let (cur, rest) = ws.split_at_mut(i + 1);
        let g = match i + 1 == n {
            true => grad,
            false => rest[0].grad_in.as_ref().expect("later layer wrote grad_in"),
        };
        t[i] = time(|| {
            layers[i]
                .backward_batch(g, &mut cur[i])
                .expect("forward ran just before");
        });
    }
    t
}

/// Times each one-layer Q8.8 engine along one chained pass, minus its
/// entry quantization and exit dequantization, which a whole-net pass
/// does only once. Those two conversions are timed separately with the
/// same `Q8_8::from_f32` / `Q8_8::to_f32` calls the engine makes.
fn chain_q88(qlayers: &[QuantizedNet], ws: &mut [QWorkspace], x: &Tensor) -> Vec<Duration> {
    let mut cur = x.clone();
    let mut q = Vec::new();
    let mut f = Vec::new();
    qlayers
        .iter()
        .zip(ws)
        .map(|(ql, qws)| {
            let t0 = Instant::now();
            let y = ql.forward_batch(&cur, qws);
            let t = t0.elapsed();
            q.resize(cur.len().max(y.len()), Q8_8::ZERO);
            let t_in = time(|| {
                for (q, &v) in q.iter_mut().zip(cur.data()) {
                    *q = Q8_8::from_f32(v);
                }
            });
            for (q, &v) in q.iter_mut().zip(y.data()) {
                *q = Q8_8::from_f32(v);
            }
            f.resize(y.len(), 0.0f32);
            let t_out = time(|| {
                for (o, q) in f.iter_mut().zip(&q) {
                    *o = q.to_f32();
                }
            });
            black_box((&q, &f));
            cur = y.clone();
            t.saturating_sub(t_in + t_out)
        })
        .collect()
}

fn nn_layers(out: &mut Outcome, spec: &NetworkSpec, obs: &Tensor, seed: u64) -> NnTimes {
    let n = spec.layers.len();
    let mut net = spec.build(seed);
    net.set_all_trainable();
    let mut ws = net.workspace();
    let qnet = QuantizedNet::from_network(spec, &net).expect("net built from spec");
    let mut qws = QWorkspace::new();
    let actions = match spec.layers.last() {
        Some(LayerSpec::Fc { out_f, .. }) => *out_f,
        _ => unreachable!("the net ends in an FC layer"),
    };
    let grad = Tensor::filled(&[BATCH, actions], 0.01);

    // The same layers built one by one, chained through their own
    // slots, and each also as a one-layer Q8.8 engine.
    let mut layers: Vec<Box<dyn Layer>> =
        spec.layers.iter().map(|l| build_layer(l, seed)).collect();
    let mut lws = vec![LayerWs::new(); n];
    let qlayers: Vec<QuantizedNet> = spec
        .layers
        .iter()
        .map(|l| {
            let one = NetworkSpec {
                input_shape: spec.input_shape,
                layers: vec![l.clone()],
            };
            QuantizedNet::from_network(&one, &Network::new(vec![build_layer(l, seed)]))
                .expect("one-layer net built from its spec")
        })
        .collect();
    let mut lqws = vec![QWorkspace::new(); n];

    // Each rep times the whole passes, then the chained layers, so both
    // see the same machine state. Rep 0 warms up and is dropped.
    let (mut pf, mut pb, mut pq) = (
        PassSamples::new(n),
        PassSamples::new(n),
        PassSamples::new(n),
    );
    for rep in 0..=REPS {
        let f = time(|| net.forward_batch(obs, &mut ws));
        let b = time(|| {
            net.backward_batch(&grad, &mut ws)
                .expect("forward ran just before");
        });
        let q = time(|| qnet.forward_batch(obs, &mut qws));
        let cf = chain_forward(&layers, &mut lws, obs);
        let cb = chain_backward(&mut layers, &mut lws, &grad);
        let cq = chain_q88(&qlayers, &mut lqws, obs);
        if rep > 0 {
            pf.push(f, &cf);
            pb.push(b, &cb);
            pq.push(q, &cq);
        }
    }
    pf.report(out, "f32_fwd", spec);
    let bwd = pb.report(out, "f32_bwd", spec);
    let qfwd = pq.report(out, "q88_fwd", spec);
    out.metric("nn.workspace_elems", ws.footprint() as f64, "count");
    out.metric("nn.qworkspace_elems", qws.footprint() as f64, "count");
    NnTimes {
        q88_fwd: param_times(spec, &qfwd),
        f32_bwd: param_times(spec, &bwd),
    }
}

fn rl_layer(
    out: &mut Outcome,
    spec: &NetworkSpec,
    topology: Topology,
    acting: Acting,
    obs: &Tensor,
    seed: u64,
) {
    let mut agent = QAgent::new(spec, seed);
    topology.apply(agent.net_mut());
    agent.set_gemm_backend(mramrl_nn::backend::default_backend());
    // A TD batch of the workload's shape: states are the frames, next
    // states the same frames shifted by one lane.
    let mut batch = TransitionBatch::zeros(BATCH, &obs.shape()[1..]);
    batch.states = obs.clone();
    for i in 0..BATCH {
        batch
            .next_states
            .sample_mut(i)
            .copy_from_slice(obs.sample((i + 1) % BATCH));
        batch.actions[i] = i % 5;
        batch.rewards[i] = 0.1 * (i % 7) as f32 - 0.2;
        batch.terminals[i] = i % 11 == 0;
    }
    // The learning rate, clip and target-sync period of the workloads.
    let cfg = mramrl_rl::TrainerConfig::online(1, seed);
    let sgd = Sgd::new(cfg.lr).with_grad_clip(cfg.grad_clip);
    let mut qws = QWorkspace::new();
    let mut q = Tensor::zeros(&[1]);
    let (mut td, mut apply, mut snap, mut act) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // The trainer's order: learn, update, refresh the snapshot, act.
    for rep in 0..=REPS {
        let t_td = time(|| agent.accumulate_td_batch(&batch));
        let t_apply = time(|| agent.apply_update(&sgd, BATCH, cfg.target_sync));
        let mut s = None;
        let t_snap = time(|| s = Some(agent.quantized_snapshot_shared()));
        let s = s.expect("snapshot taken");
        let t_act = match acting {
            Acting::Float => time(|| agent.q_values_batch_into(obs, &mut q)),
            Acting::Q88Snapshot => time(|| s.q_values_batch(obs, &mut qws)),
        };
        if rep > 0 {
            td.push(t_td);
            apply.push(t_apply);
            snap.push(t_snap);
            act.push(t_act);
        }
    }
    out.metric("rl.act_us", median_of(&act), "us");
    out.metric("rl.td_batch_us", median_of(&td), "us");
    out.metric("rl.apply_update_us", median_of(&apply), "us");
    out.metric("rl.snapshot_us", median_of(&snap), "us");
}

fn env_layer(out: &mut Outcome, seed: u64) {
    let mut fleets = fixtures::fleets(seed);
    for f in &mut fleets {
        f.reset_all();
    }
    let mut rep = 0usize;
    let step_us = median_us(ENV_REPS, || {
        rep += 1;
        let actions: Vec<Action> = (0..BATCH)
            .map(|lane| Action::from_index((rep + lane) % 5))
            .collect();
        let mut steps = Vec::new();
        let t = time(|| steps = step_fleets(&mut fleets, &actions));
        for (lane, s) in steps.iter().enumerate() {
            if s.crashed {
                fleets[lane / fixtures::LANES].reset(lane % fixtures::LANES);
            }
        }
        t
    });
    out.metric("env.step_us", step_us, "us");
}

fn serve_layer(out: &mut Outcome, spec: &NetworkSpec, obs: &Tensor, seed: u64) {
    let qnet = Arc::new(QuantizedNet::from_network(spec, &spec.build(seed)).expect("from spec"));
    let reqs: Vec<ObsRequest> = (0..TICK_DRONES)
        .map(|d| ObsRequest {
            drone_id: d as u64,
            obs: Tensor::from_vec(&obs.shape()[1..], obs.sample(d % BATCH).to_vec()),
        })
        .collect();
    let mut ws = QWorkspace::new();
    let (cap, partial) = reqs.split_at(BATCH);
    let t_cap = median_us(REPS, || time(|| decide_batch(&qnet, 0, cap, &mut ws)));
    let t_partial = median_us(REPS, || time(|| decide_batch(&qnet, 0, partial, &mut ws)));
    out.metric("serve.flush_us", (t_cap + t_partial) / 2.0, "us");
    let store = SnapshotStore::new(Arc::clone(&qnet));
    let publish_us = median_us(REPS, || {
        time(|| {
            for _ in 0..PUBLISHES {
                store.publish(Arc::clone(&qnet));
            }
        })
    }) / PUBLISHES as f64;
    out.metric("serve.publish_us", publish_us, "us");
}

/// Puts the modeled per-layer latency shares of the platform model on
/// the same net beside the measured shares, and reports their Spearman
/// rank agreement: forward against the Q8.8 engine (the 16-bit
/// datapath the model costs), backward against the f32 backward.
fn accel_cross_check(out: &mut Outcome, spec: &NetworkSpec, nn: &NnTimes) {
    let model =
        PlatformModel::with_spec(spec.clone(), SystemParams::date19(), Calibration::ideal());
    for (dir, table, measured) in [
        ("fwd", model.forward_table(), &nn.q88_fwd),
        ("bwd", model.backward_table(), &nn.f32_bwd),
    ] {
        let pairs: Vec<(&str, f64, f64)> = measured
            .iter()
            .filter_map(|(name, t)| {
                table
                    .iter()
                    .find(|c| &c.name == name)
                    .map(|c| (name.as_str(), c.latency_ms, *t))
            })
            .collect();
        let model_sum: f64 = pairs.iter().map(|p| p.1).sum();
        let meas_sum: f64 = pairs.iter().map(|p| p.2).sum();
        println!("fig12 {dir}: layer  modeled_share  measured_share");
        for (name, m, t) in &pairs {
            println!(
                "fig12 {dir}: {name:<6} {:>13.4} {:>15.4}",
                m / model_sum,
                t / meas_sum
            );
        }
        let model_share: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let meas_share: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        out.metric(
            format!("accel.{dir}_rank_agreement"),
            spearman(&model_share, &meas_share),
            "ratio",
        );
    }
}
