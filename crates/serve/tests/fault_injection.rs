//! Faults in the serving loop end in a panic or an `Err` within a
//! bounded time, never a hang.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mramrl_nn::{NetworkSpec, QuantizedNet, Tensor};
use mramrl_serve::{ServeConfig, Service, SnapshotStore};

fn qnet(hw: usize, seed: u64) -> Arc<QuantizedNet> {
    let spec = NetworkSpec::micro(hw, 1, 5);
    Arc::new(QuantizedNet::from_network(&spec, &spec.build(seed)).expect("valid spec"))
}

/// A client's request is validated against the 16×16 net and then
/// waits out a long batching deadline. Meanwhile a 12×12 net is
/// published, so the worker's flush panics in the engine. The client
/// must not be stranded: its thread ends with the panic within 5 s.
#[test]
fn wrong_shape_publish_mid_deadline_fails_the_waiting_client() {
    let store = Arc::new(SnapshotStore::new(qnet(16, 1)));
    let service = Service::spawn(
        Arc::clone(&store),
        ServeConfig {
            max_batch: 32,
            max_delay_us: 1_000_000, // the request waits ~1 s for company
            pool: None,
        },
    );
    let client = service.client();
    let (submitting_tx, submitting_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let outcome = thread::spawn(move || {
            submitting_tx.send(()).expect("test thread listening");
            client.decide(7, Tensor::filled(&[1, 16, 16], 0.5))
        })
        .join();
        let _ = done_tx.send(outcome.map(|d| d.action));
    });

    submitting_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("client started");
    // The service offers no hook that shows a request has been queued,
    // so a pause orders the publish after the submission: 100 ms is
    // ample for the client to pass its shape check and submit, and far
    // short of the worker's 1 s deadline. Either order ends the client
    // with a panic; only this one strands it at the parent.
    thread::sleep(Duration::from_millis(100));
    store.publish(qnet(12, 2));

    let outcome = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the client thread must end within 5 s, not hang");
    assert!(
        outcome.is_err(),
        "the client must fail, not get an action: {outcome:?}"
    );
    drop(service);
}
