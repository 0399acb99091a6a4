//! The serving determinism contract:
//!
//! * a fixed request trace + fixed snapshots replays to a
//!   **byte-identical** action log across pool sizes, on the integer
//!   kernel's lanes and on its scalar tile;
//! * snapshot hot-swap never yields a mixed-generation response — every
//!   decision matches the single-net forward of the generation it is
//!   stamped with;
//! * the live service's decisions equal the engine's, and coalescing
//!   actually coalesces.

use std::collections::BTreeSet;
use std::sync::Arc;

use mramrl_nn::pool::ThreadPool;
use mramrl_nn::{simd, NetworkSpec, QuantizedNet, Tensor};
use mramrl_serve::{replay_trace, RequestTrace, ServeConfig, Service, SnapshotStore, TraceEvent};

const OBS_SHAPE: [usize; 3] = [1, 16, 16];

fn spec() -> NetworkSpec {
    NetworkSpec::micro(16, 1, 5)
}

fn qnet(seed: u64) -> Arc<QuantizedNet> {
    let spec = spec();
    Arc::new(QuantizedNet::from_network(&spec, &spec.build(seed)).expect("valid spec"))
}

/// A small deterministic set of distinct observations.
fn obs_set(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let data: Vec<f32> = (0..OBS_SHAPE.iter().product::<usize>())
                .map(|j| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(j as u64)
                        .wrapping_mul(0x2545_F491_4F6C_DD1D);
                    (h >> 40) as f32 / (1u64 << 24) as f32
                })
                .collect();
            Tensor::from_vec(&OBS_SHAPE, data)
        })
        .collect()
}

/// Expected greedy action of `net` for each observation, via the
/// batch-of-1 engine path (batched ≡ serial is the engine's contract).
fn expected_actions(net: &QuantizedNet, obs: &[Tensor]) -> Vec<usize> {
    obs.iter()
        .map(|o| mramrl_nn::argmax(net.forward(o).data()))
        .collect()
}

#[test]
fn replay_is_bit_identical_across_lanes_and_pools() {
    let trace = RequestTrace::synthetic_fleet(6, 20, 300, OBS_SHAPE, 9);
    let cfg = ServeConfig {
        max_batch: 4,
        max_delay_us: 500,
        pool: None,
    };
    let mut reference: Option<(Vec<u8>, u64)> = None;
    for scalar in [false, true] {
        let _scalar = scalar.then(simd::force_scalar);
        for pool_threads in [1usize, 4] {
            let pool = ThreadPool::new(pool_threads);
            let _installed = pool.install();
            let log = replay_trace(&trace, qnet(42), &cfg);
            assert_eq!(
                log.records().len(),
                trace.len(),
                "scalar={scalar} pool={pool_threads}: every request decided exactly once"
            );
            let bytes = (log.to_bytes(), log.digest());
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(
                    r, &bytes,
                    "scalar={scalar} pool={pool_threads}: action log diverged"
                ),
            }
        }
    }
}

#[test]
fn replay_batching_policy_is_deadline_or_max_batch() {
    // 5 requests at t = 0..5 µs, then a long gap, then 1 more: with
    // max_batch = 4 and a 100 µs deadline the grouping must be
    // [4 (cap), 1 (deadline), 1 (end of trace)] — visible through seq
    // ordering and the one-flush-one-generation stamp after a publish
    // lands between the groups.
    let net0 = qnet(1);
    let net1 = qnet(2001);
    let obs = obs_set(1).remove(0);
    let mut events: Vec<TraceEvent> = (0..5u64)
        .map(|i| TraceEvent::Request {
            at_us: i,
            drone_id: i,
            obs: obs.clone(),
        })
        .collect();
    events.push(TraceEvent::Publish {
        at_us: 50,
        net: Arc::clone(&net1),
    });
    events.push(TraceEvent::Request {
        at_us: 10_000,
        drone_id: 99,
        obs: obs.clone(),
    });
    let log = replay_trace(
        &RequestTrace::from_events(events),
        net0,
        &ServeConfig {
            max_batch: 4,
            max_delay_us: 100,
            pool: None,
        },
    );
    let gens: Vec<u64> = log.records().iter().map(|r| r.generation).collect();
    // First four flush at the cap before the publish (gen 0); the fifth
    // flushes on its deadline, which expires after the publish at 50 µs
    // (gen 1); the last flushes at end of trace (gen 1).
    assert_eq!(gens, vec![0, 0, 0, 0, 1, 1]);
    assert_eq!(
        log.records().iter().map(|r| r.drone_id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4, 99]
    );
}

#[test]
fn replay_hot_swap_has_no_torn_reads() {
    // Four generations, each a different net. Every record must match
    // the single-net forward of the generation it is stamped with —
    // a batch computed partly on one net and stamped with another
    // cannot pass wherever the two nets disagree.
    let nets: Vec<Arc<QuantizedNet>> = (0..4u64).map(|g| qnet(g * 1000 + 7)).collect();
    let drones = 12u64;
    let obs = obs_set(drones as usize);
    let expected: Vec<Vec<usize>> = nets.iter().map(|n| expected_actions(n, &obs)).collect();
    // The check has teeth only where generations disagree; with 4
    // random micro nets over 12 observations that is guaranteed in
    // practice, but assert it so the test can never go vacuous.
    assert!(
        (1..nets.len()).any(|g| expected[g] != expected[0]),
        "test nets all agree — pick different seeds"
    );

    // Interleave: each step all drones request (drone d uses obs[d]),
    // publishes land between steps 5/10/15.
    let mut events = Vec::new();
    for s in 0..20u64 {
        for g in 1..4u64 {
            if s == g * 5 {
                events.push(TraceEvent::Publish {
                    at_us: s * 100,
                    net: Arc::clone(&nets[g as usize]),
                });
            }
        }
        for d in 0..drones {
            events.push(TraceEvent::Request {
                at_us: s * 100 + 1 + d,
                drone_id: d,
                obs: obs[d as usize].clone(),
            });
        }
    }
    let log = replay_trace(
        &RequestTrace::from_events(events),
        Arc::clone(&nets[0]),
        &ServeConfig {
            max_batch: 5, // 5 ∤ 12: batches straddle step boundaries
            max_delay_us: 250,
            pool: None,
        },
    );
    assert_eq!(log.records().len(), 20 * drones as usize);
    let seen: BTreeSet<u64> = log.records().iter().map(|r| r.generation).collect();
    assert_eq!(
        seen,
        (0..4u64).collect::<BTreeSet<_>>(),
        "all four generations must actually serve traffic"
    );
    for r in log.records() {
        assert_eq!(
            r.action as usize, expected[r.generation as usize][r.drone_id as usize],
            "seq {}: decision does not match its stamped generation {}",
            r.seq, r.generation
        );
    }
}

#[test]
fn live_service_matches_engine_and_stays_generation_pure() {
    let nets: Vec<Arc<QuantizedNet>> = (0..6u64).map(|g| qnet(g * 1000 + 7)).collect();
    let n_obs = 8usize;
    let obs = obs_set(n_obs);
    let expected: Vec<Vec<usize>> = nets.iter().map(|n| expected_actions(n, &obs)).collect();
    assert!((1..nets.len()).any(|g| expected[g] != expected[0]));

    let store = Arc::new(SnapshotStore::new(Arc::clone(&nets[0])));
    let service = Service::spawn(
        Arc::clone(&store),
        ServeConfig {
            max_batch: 8,
            max_delay_us: 500,
            pool: None,
        },
    );

    let clients = 4u64;
    let per_client = 40u64;
    let total = clients * per_client;
    // Publish generations 1..=5 as traffic passes request-count
    // thresholds — timing-free, so the swap always lands mid-traffic.
    let publisher = {
        let store = Arc::clone(&store);
        let stats = service.stats_probe();
        std::thread::spawn(move || {
            for g in 1..6u64 {
                let threshold = g * total / 6;
                while stats() < threshold {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                store.publish(Arc::clone(&nets[g as usize]));
            }
        })
    };

    let mut workers = Vec::new();
    for c in 0..clients {
        let client = service.client();
        let obs = obs.clone();
        let expected = expected.clone();
        workers.push(std::thread::spawn(move || {
            let mut gens = BTreeSet::new();
            for i in 0..per_client {
                let which = ((c * per_client + i) as usize) % obs.len();
                let d = client.decide(c, obs[which].clone());
                assert!(d.generation < 6, "unknown generation {}", d.generation);
                assert_eq!(
                    d.action, expected[d.generation as usize][which],
                    "client {c} req {i}: decision does not match generation {}",
                    d.generation
                );
                gens.insert(d.generation);
            }
            gens
        }));
    }
    let mut seen = BTreeSet::new();
    for w in workers {
        seen.extend(w.join().expect("client thread"));
    }
    publisher.join().expect("publisher thread");
    let stats = service.shutdown();
    assert_eq!(stats.requests, total);
    assert!(
        seen.len() >= 2,
        "hot swap never observed mid-traffic: generations {seen:?}"
    );
}

#[test]
fn live_service_coalesces_under_load() {
    let store = Arc::new(SnapshotStore::new(qnet(42)));
    let service = Service::spawn(
        Arc::clone(&store),
        ServeConfig {
            max_batch: 8,
            max_delay_us: 50_000, // generous: fills always win
            pool: None,
        },
    );
    let obs = obs_set(4);
    let mut workers = Vec::new();
    for c in 0..8u64 {
        let client = service.client();
        let obs = obs.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..4u64 {
                let _ = client.decide(c, obs[(i as usize) % obs.len()].clone());
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread");
    }
    let stats = service.shutdown();
    assert_eq!(stats.requests, 32);
    assert!(
        stats.batches * 2 <= stats.requests,
        "no coalescing happened: {stats:?}"
    );
    assert!(stats.max_batch_seen >= 2, "{stats:?}");
}

#[test]
fn live_service_pool_injection_changes_nothing() {
    let net = qnet(42);
    let obs = obs_set(6);
    let expected = expected_actions(&net, &obs);
    for pool_threads in [1usize, 4] {
        let pool = ThreadPool::new(pool_threads);
        let service = Service::spawn(
            Arc::new(SnapshotStore::new(Arc::clone(&net))),
            ServeConfig {
                max_batch: 4,
                max_delay_us: 200,
                pool: Some(pool.handle()),
            },
        );
        let client = service.client();
        for (i, o) in obs.iter().enumerate() {
            let d = client.decide(i as u64, o.clone());
            assert_eq!(d.action, expected[i], "pool={pool_threads} obs {i}");
            assert_eq!(d.generation, 0);
        }
        drop(client);
        let stats = service.shutdown();
        assert_eq!(stats.requests, obs.len() as u64, "pool={pool_threads}");
    }
}
