//! `RunPlan` semantics: seeding, repetition pooling, observer
//! transparency and capture transparency. These pin the exact
//! contract the blessed goldens were produced under, so the builder
//! cannot drift without a failure here.

use std::cell::RefCell;
use std::rc::Rc;

use latency_core::prelude::*;

fn quick(net: NetKind, size: usize) -> Experiment {
    let mut e = Experiment::rpc(net, size);
    e.iterations = 25;
    e.warmup = 3;
    e
}

fn assert_same(a: &RunResult, b: &RunResult) {
    assert_eq!(a.rtts, b.rtts);
    assert_eq!(a.events, b.events);
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.bytes_moved, b.bytes_moved);
    assert_eq!(a.verify_failures, b.verify_failures);
    assert_eq!(a.mbufs_leaked, b.mbufs_leaked);
    assert_eq!(a.breakdown_iters, b.breakdown_iters);
    // Breakdowns are f64 averages computed by the same fold in the
    // same order, so they too must be bit-equal.
    assert_eq!(a.tx.user.to_bits(), b.tx.user.to_bits());
    assert_eq!(a.tx.cksum.to_bits(), b.tx.cksum.to_bits());
    assert_eq!(a.rx.user.to_bits(), b.rx.user.to_bits());
    assert_eq!(a.rx.cksum.to_bits(), b.rx.cksum.to_bits());
}

#[test]
fn same_seed_is_bit_identical() {
    for seed in [1, 7, 0xdead_beef] {
        let a = quick(NetKind::Atm, 200).plan().seed(seed).execute();
        let b = quick(NetKind::Atm, 200).plan().seed(seed).execute();
        assert_same(&a, &b);
    }
}

#[test]
fn different_seeds_differ() {
    // A clean run consumes no randomness — seed independence there is
    // the design. The seed must matter the moment a stochastic
    // element is armed, so drive a jittered fault schedule: same
    // workload, different RNG stream, different sample vector.
    let sc = latency_core::recovery::scenario("jitter").expect("jitter scenario exists");
    let a = latency_core::recovery::experiment(&sc, 1400, 25)
        .plan()
        .seed(1)
        .execute();
    let b = latency_core::recovery::experiment(&sc, 1400, 25)
        .plan()
        .seed(2)
        .execute();
    assert_eq!(a.rtts.len(), b.rtts.len());
    assert_ne!(a.rtts, b.rtts);
}

#[test]
fn reps_pool_sequential_seeds() {
    // Repetition r (1-based, starting from the plan seed) must be
    // bit-identical to a single run at that seed, and the pooled
    // vector is their concatenation in order.
    let base = 41u64;
    let pooled = quick(NetKind::Ether, 200)
        .plan()
        .seed(base.wrapping_add(1))
        .reps(3)
        .execute();
    let mut expect = Vec::new();
    for r in 1..=3u64 {
        let one = quick(NetKind::Ether, 200)
            .plan()
            .seed(base.wrapping_add(r))
            .execute();
        expect.extend_from_slice(&one.rtts);
    }
    assert_eq!(pooled.rtts, expect);
}

/// The breakdown fields of a result, in a fixed order.
fn breakdown(r: &RunResult) -> [f64; 13] {
    [
        r.tx.user,
        r.tx.cksum,
        r.tx.mcopy,
        r.tx.segment,
        r.tx.ip,
        r.tx.driver,
        r.rx.driver,
        r.rx.ipq,
        r.rx.ip,
        r.rx.cksum,
        r.rx.segment,
        r.rx.wakeup,
        r.rx.user,
    ]
}

#[test]
fn reps_weigh_every_repetition_equally() {
    // Bit errors make the repetitions differ, so the pooled
    // breakdowns are a real mean: each one must be the running mean
    // of the three single repetitions, and the iteration counts sum.
    let mut e = quick(NetKind::Atm, 1400);
    e.ber = 2e-5;
    let base = 11u64;
    let pooled = e.plan().seed(base).reps(3).execute();
    let singles: Vec<RunResult> = (0..3).map(|r| e.plan().seed(base + r).execute()).collect();
    assert!(
        singles
            .windows(2)
            .any(|w| breakdown(&w[0]) != breakdown(&w[1])),
        "the error rate must make the repetitions differ"
    );
    let mut mean = breakdown(&singles[0]);
    for (i, one) in singles.iter().enumerate().skip(1) {
        let n = (i + 1) as f64;
        for (acc, x) in mean.iter_mut().zip(breakdown(one)) {
            *acc += (x - *acc) / n;
        }
    }
    let bits = |v: [f64; 13]| v.map(f64::to_bits);
    assert_eq!(bits(breakdown(&pooled)), bits(mean));
    let iters: usize = singles.iter().map(|r| r.breakdown_iters).sum();
    assert_eq!(pooled.breakdown_iters, iters);
    assert_eq!(pooled.rtts.len(), pooled.rtts.capacity(), "exact reserve");
}

#[test]
fn clean_reps_keep_one_repetitions_breakdowns() {
    let one = quick(NetKind::Atm, 200).plan().seed(4).execute();
    let three = quick(NetKind::Atm, 200).plan().seed(4).reps(3).execute();
    let bits = |v: [f64; 13]| v.map(f64::to_bits);
    assert_eq!(bits(breakdown(&three)), bits(breakdown(&one)));
    assert_eq!(three.breakdown_iters, 3 * one.breakdown_iters);
}

#[test]
fn observers_do_not_perturb_and_fire_in_order() {
    let silent = quick(NetKind::Atm, 500).plan().seed(5).execute();
    let firsts = Rc::new(RefCell::new(Vec::new()));
    let seconds = Rc::new(RefCell::new(Vec::new()));
    let (f, s) = (Rc::clone(&firsts), Rc::clone(&seconds));
    let observed = quick(NetKind::Atm, 500)
        .plan()
        .seed(5)
        .observer(Box::new(move |_, t, _| f.borrow_mut().push(t)))
        .observer(Box::new(move |w, t, _| {
            // Registration order: by the time the second observer
            // fires for event n, the first has already seen it.
            assert_eq!(w.hosts.len(), 2);
            s.borrow_mut().push(t);
        }))
        .execute();
    assert_same(&observed, &silent);
    let firsts = firsts.borrow();
    assert_eq!(firsts.len() as u64, silent.events);
    assert_eq!(*firsts, *seconds.borrow());
}

#[test]
fn captured_plan_matches_uncaptured_results() {
    let silent = quick(NetKind::Atm, 200).plan().seed(3).execute();
    let plan = quick(NetKind::Atm, 200).plan().seed(3).captured().execute();
    assert_same(&plan.result, &silent);
    assert!(!plan.client.frames.is_empty());
    assert!(!plan.server.frames.is_empty());
    // The captures themselves are deterministic too: serialize one
    // tap from each of two identical runs and compare the bytes.
    let again = quick(NetKind::Atm, 200).plan().seed(3).captured().execute();
    for tap in [simcap::TapPoint::Wire, simcap::TapPoint::SockSend] {
        assert_eq!(plan.client.pcap(tap), again.client.pcap(tap));
    }
}

#[test]
#[should_panic(expected = "at least one repetition")]
fn zero_reps_refused() {
    let _ = quick(NetKind::Atm, 200).plan().reps(0).execute();
}
