//! Property tests for partial (first-K-of-N) fan-out: with a
//! `TailPolicy` whose only lever is `quorum = K`, a logical request
//! completes exactly when its K-th fastest sub-request lands — for
//! every fan-out width, every K up to the width, and several seeds —
//! and the run tears down without leaking a single mbuf.

use simkit::SimTime;
use world::dc::run_dc_world;
use world::{run_dc, TailPolicy, Topology, TrafficSchedule};

/// Sweep fan-out widths x K x seeds and check, round by round, that
/// every recorded completion equals the K-th smallest of that round's
/// sub-request RTTs across the host's connections. This mirrors the
/// wait-for-all property in `fanout_sync.rs`: K = width degenerates
/// to the max, K = 1 to the min.
#[test]
fn completion_is_kth_smallest_subrequest_rtt_across_widths_and_k() {
    for &width in &[1usize, 2, 3, 5, 8] {
        for k in 1..=width {
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                let mut t = Topology::fanout(2, width);
                t.iterations = 3;
                t.warmup = 1;
                t.tail = TailPolicy {
                    quorum: k,
                    ..TailPolicy::default()
                };
                let w = run_dc_world(&t, TrafficSchedule::staggered(), seed);
                for h in 0..t.clients {
                    let ctl = w.hosts[h].fanout.as_ref().expect("fan-out client");
                    assert!(!ctl.aborted, "width {width} K {k} seed {seed}: abort");
                    assert_eq!(
                        ctl.completions.len(),
                        t.iterations as usize,
                        "width {width} K {k} seed {seed}: measured rounds"
                    );
                    for (r, &done) in ctl.completions.iter().enumerate() {
                        let mut times: Vec<SimTime> =
                            (0..width).map(|j| w.hosts[h].conns[j].rtts[r]).collect();
                        times.sort();
                        assert_eq!(
                            done,
                            times[k - 1],
                            "width {width} K {k} seed {seed} host {h} round {r}: \
                             completion must be the K-th smallest sub-request RTT"
                        );
                        assert!(done > SimTime::ZERO);
                        // Stragglers past the quorum are observed and
                        // counted, never dropped mid-flight: the round
                        // still records one RTT per slot.
                        assert!(times.iter().all(|&rt| rt >= times[0]));
                    }
                    // Cost counters span the whole run, warmup rounds
                    // included; the measured rounds give a lower bound
                    // and each warmup round can add at most width - K
                    // stragglers on top.
                    let measured_cancelled: u64 = (0..t.iterations as usize)
                        .map(|r| {
                            let done = ctl.completions[r];
                            (0..width)
                                .filter(|&j| w.hosts[h].conns[j].rtts[r] > done)
                                .count() as u64
                        })
                        .sum();
                    let slack = t.warmup * (width - k) as u64;
                    assert!(
                        ctl.cost.cancelled >= measured_cancelled
                            && ctl.cost.cancelled <= measured_cancelled + slack,
                        "width {width} K {k} seed {seed} host {h}: cancelled \
                         {} outside [{measured_cancelled}, {}]",
                        ctl.cost.cancelled,
                        measured_cancelled + slack
                    );
                }
            }
        }
    }
}

/// The quorum path releases every buffer it touched: after the run
/// drains, the pooled run result reports zero leaked mbufs.
#[test]
fn kofn_runs_tear_down_without_leaking_mbufs() {
    for &(width, k) in &[(4usize, 1usize), (4, 2), (8, 5)] {
        let mut t = Topology::fanout(2, width);
        t.iterations = 4;
        t.warmup = 1;
        t.tail = TailPolicy {
            quorum: k,
            ..TailPolicy::default()
        };
        let r = run_dc(&t, TrafficSchedule::staggered(), 7);
        assert_eq!(r.fanout_aborts, 0, "width {width} K {k}: abort");
        assert_eq!(
            r.mbufs_leaked, 0,
            "width {width} K {k}: quorum teardown leaked mbufs"
        );
        assert_eq!(r.verify_failures, 0, "width {width} K {k}: bad payload");
    }
}
