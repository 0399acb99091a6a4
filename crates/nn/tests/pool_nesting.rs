//! Scheduling contract of nested pool calls made by tasks that the
//! *submitting* thread runs while it drains its own submission.
//!
//! Such a task is a pool executor like any worker: its nested `run` /
//! `join2` goes inline on that thread, in submission order, and never
//! pops a sibling task of the outer submission. Without that, a layer's
//! `dW ∥ dX` join inside the trainer's `backward ∥ actor` step could run
//! the actor task before finishing the backward, serializing the
//! overlap.
//!
//! Both cases are deterministic: one lead task runs on the caller and
//! one on the single worker, which is held until the nested call ends,
//! so the outer submission's sibling is still queued while the nested
//! call is in flight. Every wait is bounded, so a broken contract fails
//! instead of hanging.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mramrl_nn::pool::{self, Task, ThreadPool};

/// Spins until `cond` holds; `false` after `limit`.
fn wait_for(limit: Duration, cond: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while !cond() {
        if t0.elapsed() > limit {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

const LIMIT: Duration = Duration::from_secs(30);

#[derive(Debug, PartialEq, Eq)]
enum Event {
    NestedBegin,
    /// A nested task ran: its index, and whether on the caller thread.
    Nested(usize, bool),
    NestedEnd,
    Sibling,
}

/// Sets its flag on drop, so the held worker is released even when the
/// caller's lead unwinds.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Submits `[lead, lead, sibling]` on a 2-executor pool. Both leads
/// rendezvous, so one runs on the caller and one on the worker; the
/// caller's lead runs `nested`, while the worker's lead holds until
/// `nested` returns or unwinds. The sibling logs `Event::Sibling`.
fn submit_with_caller_lead(pool: &ThreadPool, log: &Mutex<Vec<Event>>, nested: impl Fn() + Sync) {
    let caller = std::thread::current().id();
    let arrived = AtomicUsize::new(0);
    let released = AtomicBool::new(false);
    let lead = || {
        arrived.fetch_add(1, Ordering::SeqCst);
        assert!(
            wait_for(LIMIT, || arrived.load(Ordering::SeqCst) == 2),
            "both lead tasks must start"
        );
        if std::thread::current().id() == caller {
            let _release = Release(&released);
            log.lock().unwrap().push(Event::NestedBegin);
            nested();
            log.lock().unwrap().push(Event::NestedEnd);
        } else {
            assert!(
                wait_for(LIMIT, || released.load(Ordering::SeqCst)),
                "caller's nested call must finish"
            );
        }
    };
    let sibling = || log.lock().unwrap().push(Event::Sibling);
    pool.handle()
        .run(vec![Box::new(&lead), Box::new(&lead), Box::new(sibling)]);
}

/// A nested task's log entry: index and whether it ran on `caller`.
fn nested_event(i: usize, caller: ThreadId) -> Event {
    Event::Nested(i, std::thread::current().id() == caller)
}

/// `true` when a top-level `join2` from this thread runs its two tasks
/// concurrently — i.e. the thread is not marked as inside a pool task.
fn top_level_join_overlaps(pool: &ThreadPool) -> bool {
    let _installed = pool.install();
    let (a, b) = (AtomicBool::new(false), AtomicBool::new(false));
    let short = Duration::from_secs(10);
    let (sa, sb) = pool::join2(
        || {
            a.store(true, Ordering::SeqCst);
            wait_for(short, || b.load(Ordering::SeqCst))
        },
        || {
            b.store(true, Ordering::SeqCst);
            wait_for(short, || a.load(Ordering::SeqCst))
        },
    );
    sa && sb
}

#[test]
fn nested_join_in_a_caller_run_task_stays_inline_and_in_order() {
    let pool = ThreadPool::new(2);
    let caller = std::thread::current().id();
    let log = Mutex::new(Vec::new());
    submit_with_caller_lead(&pool, &log, || {
        pool::join2(
            || log.lock().unwrap().push(nested_event(0, caller)),
            || log.lock().unwrap().push(nested_event(1, caller)),
        );
    });
    assert_eq!(
        log.into_inner().unwrap(),
        vec![
            Event::NestedBegin,
            Event::Nested(0, true),
            Event::Nested(1, true),
            Event::NestedEnd,
            Event::Sibling,
        ],
        "nested tasks run inline on the caller, in order, and no sibling \
         of the outer submission runs while the nested call is in flight"
    );
    assert!(
        top_level_join_overlaps(&pool),
        "after the drain the caller submits to the pool again"
    );
}

#[test]
fn panicking_nested_task_propagates_and_restores_the_caller() {
    let pool = ThreadPool::new(2);
    let caller = std::thread::current().id();
    let log = Mutex::new(Vec::new());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        submit_with_caller_lead(&pool, &log, || {
            let tasks: Vec<Task> = (0..3)
                .map(|i| -> Task {
                    let log = &log;
                    Box::new(move || {
                        log.lock().unwrap().push(nested_event(i, caller));
                        assert!(i != 1, "nested boom {i}");
                    })
                })
                .collect();
            pool.handle().run(tasks);
        });
    }));
    let payload = err.expect_err("the nested panic must reach the submitter");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("nested boom 1"), "payload lost: {msg:?}");
    // Inline execution stops at the panicking task, and the outer
    // submission still joins fully (the sibling ran) before re-raising.
    assert_eq!(
        log.into_inner().unwrap(),
        vec![
            Event::NestedBegin,
            Event::Nested(0, true),
            Event::Nested(1, true),
            Event::Sibling,
        ]
    );
    assert!(
        top_level_join_overlaps(&pool),
        "the caller's in-pool mark is restored after the panic"
    );
}
