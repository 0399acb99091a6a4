//! Cross-crate integration: the full TL → deploy → online-RL pipeline.

use mramrl::env::VecEnv;
use mramrl::rl::experiment::normalized_sfd;
use mramrl::{
    DeploymentSim, DroneEnv, EnvKind, Fig10Experiment, NetworkSpec, Platform, QAgent, Topology,
    Trainer, TrainerConfig, TransferCache,
};

#[test]
fn tl_then_partial_online_rl_end_to_end() {
    // TL phase on the meta environment (E2E, from scratch).
    let px = 16usize;
    let spec = NetworkSpec::micro(px, 1, 5);
    let cam = || mramrl::env::DepthCamera::new(px, px, 90.0f32.to_radians(), 20.0, 0.02);
    let mut meta_env = VecEnv::from_envs(vec![
        DroneEnv::new(EnvKind::MetaIndoor, 3).with_camera(cam())
    ]);
    let mut meta_agent = QAgent::new(&spec, 3);
    Topology::E2E.apply(meta_agent.net_mut());
    let tl_log = Trainer::new(TrainerConfig::transfer_learning(250, 3))
        .run_vec(&mut meta_agent, &mut meta_env);
    assert!(tl_log.episodes > 0);
    let tl_weights = meta_agent.net().save_weights();

    // Deployment: download the meta model, freeze to L3, train online.
    let mut agent = QAgent::new(&spec, 99);
    agent.load_transfer(&tl_weights).expect("same structure");
    Topology::L3.apply(agent.net_mut());
    assert!(agent.net().trainable_fraction() < 0.9);
    let mut test_env = VecEnv::from_envs(vec![
        DroneEnv::new(EnvKind::IndoorApartment, 3).with_camera(cam())
    ]);
    let log = Trainer::new(TrainerConfig::online(300, 3)).run_vec(&mut agent, &mut test_env);
    assert!(!log.curve.is_empty());
    assert!(log.sfd > 0.0, "drone must fly some distance");

    // The conv stack is bit-identical to the TL download (frozen).
    let mut reference = QAgent::new(&spec, 1);
    reference.load_transfer(&tl_weights).unwrap();
    let conv_of = |a: &QAgent| -> Vec<f32> {
        a.net()
            .layers()
            .filter(|l| l.name().starts_with("CONV"))
            .flat_map(|l| l.params().into_iter().flat_map(|p| p.value.data().to_vec()))
            .collect()
    };
    assert_eq!(conv_of(&agent), conv_of(&reference));
}

#[test]
fn experiment_matrix_produces_fig10_and_fig11_shapes() {
    let mut exp = Fig10Experiment::quick(11);
    exp.tl_iters = 120;
    exp.online_iters = 160;
    let mut cache = TransferCache::new();
    let runs = exp.run_env(&mut cache, EnvKind::OutdoorForest);
    assert_eq!(runs.len(), 4);
    let norm = normalized_sfd(&runs, EnvKind::OutdoorForest);
    assert_eq!(norm.len(), 4);
    let e2e = norm.iter().find(|(t, _)| *t == Topology::E2E).unwrap().1;
    assert!((e2e - 1.0).abs() < 1e-6);
    // Everyone flies: no zero SFD.
    for r in &runs {
        assert!(r.log.sfd > 0.0, "{}", r.topology);
    }
}

#[test]
fn deployment_sim_couples_learning_and_hardware() {
    let platform = Platform::proposed().expect("places");
    let fps = platform.max_fps(4);
    let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 21).fly(200);
    // Energy consistency: total energy ≈ energy/iteration × iterations.
    assert!(report.energy_j > 0.0);
    assert!(report.compute_s > 0.0);
    // The platform sustains the frames it claims: 200 frames at `fps`
    // take 200/fps seconds of wall time ≥ compute time.
    let wall_s = 200.0 / fps;
    assert!(
        report.compute_s <= wall_s * 1.05,
        "compute {} vs wall {}",
        report.compute_s,
        wall_s
    );
    assert_eq!(report.nvm_bytes_written, 0);
}

#[test]
fn transfer_cache_shared_across_indoor_tests() {
    let mut exp = Fig10Experiment::quick(5);
    exp.tl_iters = 100;
    exp.online_iters = 100;
    let mut cache = TransferCache::new();
    let _ = exp.run_env(&mut cache, EnvKind::IndoorApartment);
    let _ = exp.run_env(&mut cache, EnvKind::IndoorHouse);
    assert_eq!(cache.len(), 1, "both indoor tests share one meta model");
    let _ = exp.run_env(&mut cache, EnvKind::OutdoorForest);
    assert_eq!(cache.len(), 2);
}
