//! Stress test of `BatchEval`'s single dispatch body and the `unsafe`
//! invariants of its worker pool: thousands of seeded dispatches on a
//! few long-lived evaluators (0–4 threads), random batch sizes (0–40)
//! and lane widths (1–5), through both entry points, with
//! injected errors and panics and evaluators dropped while idle and
//! right after a panic.
//!
//! What each dispatch checks:
//! * every output slot is written exactly once, with its own index, by
//!   a group that starts on a lane boundary — no two executors share an
//!   output range;
//! * no two executors hold the same scratch slot at the same time;
//! * no group is still running when the dispatch returns or unwinds
//!   (the caller waits for every executor before touching the stack
//!   the dispatched closure borrows);
//! * the error of the group with the smallest start wins;
//! * an injected panic reaches the caller with its payload and the
//!   same evaluator keeps working.

use dadu_rbd::dynamics::BatchEval;
use dadu_rbd::model::{robots, RobotModel, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Dispatches per evaluator slot.
const ROUNDS: usize = 500;
/// Thread counts of the long-lived evaluators.
const THREADS: [usize; 5] = [0, 1, 2, 3, 4];
/// Prefix of every injected panic payload.
const INJECTED: &str = "injected panic";

/// One output slot: how often it was written and the index it saw.
#[derive(Clone, Copy, Default)]
struct Out {
    writes: u32,
    index: usize,
}

/// Per-executor scratch slot with an occupancy flag.
#[derive(Default)]
struct Slot {
    busy: AtomicBool,
    groups: usize,
}

/// What one dispatch does besides writing its outputs.
struct Plan {
    /// Group starts that return `Err(start)`.
    fail: Vec<usize>,
    /// Group start that panics.
    panic_at: Option<usize>,
}

/// Counts groups in flight; decremented on drop, so unwinding counts.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(n: &'a AtomicUsize) -> Self {
        n.fetch_add(1, Ordering::SeqCst);
        Self(n)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The body every entry point runs for one group: occupancy checks,
/// slow-down, planned panic/error, output writes.
fn run_group(
    slot: &mut Slot,
    in_flight: &AtomicUsize,
    plan: &Plan,
    lane_width: usize,
    start: usize,
    items: &[usize],
    outs: &mut [Out],
) -> Result<(), usize> {
    let _guard = InFlight::enter(in_flight);
    assert!(
        !slot.busy.swap(true, Ordering::SeqCst),
        "scratch slot shared by two executors"
    );
    slot.groups += 1;
    assert_eq!(
        start % lane_width,
        0,
        "group start {start} off the lane grid"
    );
    assert!(!items.is_empty() && items.len() <= lane_width);
    assert_eq!(items.len(), outs.len());
    // Keep the group busy for a moment so a panic elsewhere unwinds the
    // caller while this executor is still running.
    let mut x = start as u64;
    for _ in 0..200 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    if plan.panic_at == Some(start) {
        slot.busy.store(false, Ordering::SeqCst);
        panic!("{INJECTED} at group {start}");
    }
    for (off, (&it, o)) in items.iter().zip(outs.iter_mut()).enumerate() {
        assert_eq!(it, start + off, "item handed to the wrong group");
        o.writes += 1;
        o.index = it;
    }
    slot.busy.store(false, Ordering::SeqCst);
    if plan.fail.contains(&start) {
        Err(start)
    } else {
        Ok(())
    }
}

/// Which entry point a dispatch goes through.
#[derive(Clone, Copy, Debug)]
enum Entry {
    LaneGroups(usize),
    WithScratch,
}

/// One dispatch through `entry`.
fn dispatch(
    batch: &mut BatchEval,
    entry: Entry,
    slots: &mut [Slot],
    in_flight: &AtomicUsize,
    plan: &Plan,
    items: &[usize],
    outs: &mut [Out],
) -> Result<(), usize> {
    match entry {
        Entry::LaneGroups(width) => {
            batch.for_each_lane_groups(width, items, outs, slots, |_, _, sc, start, group, o| {
                run_group(sc, in_flight, plan, width, start, group, o)
            })
        }
        Entry::WithScratch => {
            batch.for_each_with_scratch(items, outs, slots, |_, _, sc, k, it, o| {
                run_group(
                    sc,
                    in_flight,
                    plan,
                    1,
                    k,
                    std::slice::from_ref(it),
                    std::slice::from_mut(o),
                )
            })
        }
    }
}

/// Uniform draw from `0..n`.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// A clean dispatch that must fully succeed (used after a panic).
fn check_clean(batch: &mut BatchEval, slots: &mut [Slot], in_flight: &AtomicUsize, ctx: &str) {
    let items: Vec<usize> = (0..17).collect();
    let mut outs = vec![Out::default(); items.len()];
    let plan = Plan {
        fail: Vec::new(),
        panic_at: None,
    };
    let r = dispatch(
        batch,
        Entry::LaneGroups(3),
        slots,
        in_flight,
        &plan,
        &items,
        &mut outs,
    );
    assert_eq!(r, Ok(()), "{ctx}: clean dispatch after a panic");
    for (k, o) in outs.iter().enumerate() {
        assert_eq!((o.writes, o.index), (1, k), "{ctx}: slot {k}");
    }
}

fn new_evaluator(model: &RobotModel, threads: usize) -> (BatchEval<'_>, Vec<Slot>) {
    let batch = BatchEval::with_threads(model, threads);
    let slots = (0..batch.threads()).map(|_| Slot::default()).collect();
    (batch, slots)
}

#[test]
fn seeded_dispatches_keep_every_pool_invariant() {
    // Injected panics are expected; keep their messages off stderr but
    // let every other panic (a failed assertion) report normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !panic_message(info.payload()).starts_with(INJECTED) {
            default_hook(info);
        }
    }));

    let model = robots::serial_chain(2);
    let mut evaluators: Vec<(BatchEval, Vec<Slot>)> =
        THREADS.iter().map(|&t| new_evaluator(&model, t)).collect();
    let in_flight = AtomicUsize::new(0);
    let mut rng = SplitMix64::new(0x5EED_BA7C);
    let (mut dispatches, mut panics, mut errors, mut drops_after_panic) = (0, 0, 0, 0);
    let mut engaged_max = 0;

    for round in 0..ROUNDS {
        for (e, &threads) in THREADS.iter().enumerate() {
            let seed = rng.next_u64();
            let mut case = SplitMix64::new(seed);
            let ctx = format!("case seed {seed:#x} ({threads} threads, round {round})");
            let n = below(&mut case, 41);
            let entry = match below(&mut case, 2) {
                0 => Entry::LaneGroups(1 + below(&mut case, 5)),
                _ => Entry::WithScratch,
            };
            let width = match entry {
                Entry::LaneGroups(w) => w,
                _ => 1,
            };
            let starts: Vec<usize> = (0..n).step_by(width).collect();
            let mut plan = Plan {
                fail: Vec::new(),
                panic_at: None,
            };
            if !starts.is_empty() {
                match below(&mut case, 10) {
                    0 => plan.panic_at = Some(starts[below(&mut case, starts.len())]),
                    1..=3 => {
                        for _ in 0..1 + below(&mut case, 3) {
                            plan.fail.push(starts[below(&mut case, starts.len())]);
                        }
                    }
                    _ => {}
                }
            }
            // Tiny per-point costs keep the dispatch inline; huge ones
            // engage every executor the item count allows.
            let flops = [1.0, 2e4, 1e9][below(&mut case, 3)];

            let (batch, slots) = &mut evaluators[e];
            batch.set_point_flops(flops);
            let items: Vec<usize> = (0..n).collect();
            let mut outs = vec![Out::default(); n];
            let result = catch_unwind(AssertUnwindSafe(|| {
                dispatch(batch, entry, slots, &in_flight, &plan, &items, &mut outs)
            }));
            dispatches += 1;
            assert_eq!(
                in_flight.load(Ordering::SeqCst),
                0,
                "{ctx}: a group outlived its dispatch"
            );
            assert!(
                slots.iter().all(|s| !s.busy.load(Ordering::SeqCst)),
                "{ctx}: scratch slot left occupied"
            );
            assert!(batch.last_workers() <= batch.threads().min(n.max(1)));
            engaged_max = engaged_max.max(batch.last_workers());

            match (plan.panic_at, result) {
                (Some(at), Err(payload)) => {
                    panics += 1;
                    let msg = panic_message(payload.as_ref());
                    assert_eq!(
                        msg,
                        format!("{INJECTED} at group {at}"),
                        "{ctx}: payload ({entry:?})"
                    );
                    if below(&mut case, 4) == 0 {
                        // Drop right after the panic, then start afresh.
                        drops_after_panic += 1;
                        evaluators[e] = new_evaluator(&model, threads);
                    } else {
                        let (batch, slots) = &mut evaluators[e];
                        check_clean(batch, slots, &in_flight, &ctx);
                    }
                }
                (Some(_), Ok(r)) => panic!("{ctx}: injected panic was swallowed ({r:?})"),
                (None, Err(payload)) => std::panic::resume_unwind(payload),
                (None, Ok(r)) => {
                    let expected = plan.fail.iter().copied().min();
                    if expected.is_some() {
                        errors += 1;
                    }
                    assert_eq!(
                        r.err(),
                        expected,
                        "{ctx}: smallest failing start ({entry:?})"
                    );
                    // Every group ran (failing ones too): each slot
                    // written exactly once with its own index.
                    for (k, o) in outs.iter().enumerate() {
                        assert_eq!(
                            (o.writes, o.index),
                            (1, k),
                            "{ctx}: output slot {k} of {n} ({entry:?})"
                        );
                    }
                }
            }
        }
        if round % 100 == 99 {
            // Drop an evaluator while idle, plus one that never
            // dispatched, and carry on with a fresh one.
            let e = below(&mut rng, THREADS.len());
            evaluators[e] = new_evaluator(&model, THREADS[e]);
            drop(new_evaluator(&model, 4));
        }
    }
    let total_groups: usize = evaluators
        .iter()
        .flat_map(|(_, slots)| slots.iter().map(|s| s.groups))
        .sum();
    drop(evaluators);
    let _ = std::panic::take_hook();
    println!(
        "{dispatches} dispatches ({panics} panics, {drops_after_panic} drops after a panic, \
         {errors} with errors), {total_groups} groups on surviving evaluators"
    );

    assert!(dispatches >= 2000, "{dispatches} dispatches");
    assert!(panics >= 50, "only {panics} injected panics");
    assert!(
        drops_after_panic >= 5,
        "only {drops_after_panic} drops after a panic"
    );
    assert!(errors >= 100, "only {errors} dispatches with errors");
    assert_eq!(
        engaged_max, 4,
        "the 4-thread pool never engaged every executor"
    );
}
