//! # perfkit — the performance measurement kit
//!
//! Everything behind `repro bench`: the engine microbenchmark (the
//! calendar-queue engine vs a frozen copy of the `BinaryHeap` engine
//! it replaced, on an identical synthetic workload), end-to-end
//! simulated-RTT throughput, whole-sweep wall-clock at several worker
//! counts, and the machine-readable `BENCH_<n>.json` report the CI
//! regression gate compares against.
//!
//! Two rules keep the numbers meaningful:
//!
//! 1. **Same workload, bit for bit.** Both engines run the same
//!    self-rescheduling event churn and must end with the same event
//!    count and world checksum; [`engine_bench`] panics if they
//!    disagree. A benchmark that computes different things measures
//!    nothing.
//! 2. **Ratios over absolutes.** Wall-clock numbers differ across
//!    machines; the heap-vs-calendar *speedup* is measured in the
//!    same process on the same workload, so it transfers. The CI gate
//!    compares speedups, not seconds.
//!
//! The frozen baseline (see [`baseline`]) is in fact slightly leaner
//! than the engine that shipped — event labels were stripped from its
//! queue entries — so the reported speedup is a floor, not a cherry
//! pick.

#![warn(missing_docs)]

pub mod baseline;

use std::time::Instant;

use latency_core::experiment::{Experiment, NetKind};
use simkit::{Sim, SimTime};
use sweep::report::json_string;
use sweep::Sweep;

/// The series number of the benchmark report this tree writes:
/// `repro bench` emits `BENCH_5.json`, and CI gates against the
/// checked-in copy of the same name.
pub const BENCH_SERIES: u32 = 5;

/// Concurrent event sources in the synthetic engine workload. Enough
/// to keep a realistic queue depth (the TCP simulation holds a few
/// dozen pending events: timers, NIC DMA, link deliveries).
const SOURCES: u64 = 64;

/// The synthetic engine workload: `SOURCES` self-rescheduling event
/// streams whose delays come from a multiplicative mix, spreading
/// arrivals across calendar buckets the way protocol timers spread
/// across time. Both engines run this exact state machine.
struct Churn {
    fired: u64,
    budget: u64,
    mix: u64,
}

impl Churn {
    fn new(budget: u64, seed: u64) -> Self {
        Churn {
            fired: 0,
            budget,
            // An even seed would shorten the multiplicative orbit.
            mix: seed | 1,
        }
    }

    /// Advances the workload for one firing of source `src`; returns
    /// the next delay, or `None` once the event budget is spent.
    #[inline]
    fn next_delay(&mut self, src: u64) -> Option<SimTime> {
        self.fired += 1;
        self.mix = self
            .mix
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(src);
        if self.fired >= self.budget {
            return None;
        }
        // 40 ns .. ~650 µs in clock ticks: near timers and far
        // timers, so the calendar's bucket walk gets exercised too.
        let ticks = (self.mix >> 33) % 16_384;
        Some(SimTime::from_ns(40 + ticks * 40))
    }

    fn checksum(&self) -> u64 {
        self.mix ^ self.fired
    }
}

fn run_heap(budget: u64, seed: u64) -> (u64, u64) {
    fn tick(src: u64) -> impl FnOnce(&mut Churn, &mut baseline::Scheduler<Churn>) {
        move |w, s| {
            if let Some(delay) = w.next_delay(src) {
                s.schedule(delay, tick(src));
            }
        }
    }
    let mut sim = baseline::HeapSim::new(Churn::new(budget, seed));
    for src in 0..SOURCES {
        sim.schedule_at(SimTime::from_ns(src * 40), tick(src));
    }
    sim.run();
    (sim.events_executed(), sim.world.checksum())
}

fn run_calendar(budget: u64, seed: u64) -> (u64, u64) {
    fn tick(w: &mut Churn, s: &mut simkit::Scheduler<Churn>, src: u64) {
        if let Some(delay) = w.next_delay(src) {
            s.schedule_raw(delay, "churn", tick, src);
        }
    }
    let mut sim = Sim::new(Churn::new(budget, seed));
    for src in 0..SOURCES {
        sim.schedule_raw_at(SimTime::from_ns(src * 40), "churn", tick, src);
    }
    sim.run();
    (sim.events_executed(), sim.world.checksum())
}

/// Result of the engine microbenchmark: both engines over the same
/// synthetic workload.
pub struct EngineBench {
    /// Events each engine executed (identical by construction).
    pub events: u64,
    /// Final workload checksum (identical across engines, asserted).
    pub checksum: u64,
    /// Wall-clock seconds for the frozen heap engine.
    pub heap_wall_s: f64,
    /// Wall-clock seconds for the calendar-queue engine.
    pub calendar_wall_s: f64,
}

impl EngineBench {
    /// Events per second through the frozen heap engine.
    #[must_use]
    pub fn heap_events_per_sec(&self) -> f64 {
        self.events as f64 / self.heap_wall_s
    }

    /// Events per second through the calendar-queue engine.
    #[must_use]
    pub fn calendar_events_per_sec(&self) -> f64 {
        self.events as f64 / self.calendar_wall_s
    }

    /// Calendar-queue throughput over heap throughput.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.heap_wall_s / self.calendar_wall_s
    }
}

/// Runs the synthetic workload of `events` events through both
/// engines and times them.
///
/// Both engines get an unmeasured warmup pass (an eighth of the
/// budget) so neither pays cold-cache costs for the other's benefit;
/// the heap engine is then measured first.
///
/// # Panics
///
/// Panics if the two engines disagree on the event count or final
/// checksum — a disagreement means the benchmark is comparing two
/// different computations and its numbers are void.
#[must_use]
pub fn engine_bench(events: u64, seed: u64) -> EngineBench {
    let warmup = (events / 8).max(SOURCES + 1);
    run_heap(warmup, seed);
    run_calendar(warmup, seed);

    // Three alternating rounds, best-of per engine: alternation keeps
    // thermal/turbo drift from systematically favouring whichever
    // engine runs second, and the minimum is the least-disturbed run.
    let mut heap_wall_s = f64::INFINITY;
    let mut calendar_wall_s = f64::INFINITY;
    let mut heap = (0, 0);
    let mut cal = (0, 0);
    for _ in 0..3 {
        let t = Instant::now();
        heap = run_heap(events, seed);
        heap_wall_s = heap_wall_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        cal = run_calendar(events, seed);
        calendar_wall_s = calendar_wall_s.min(t.elapsed().as_secs_f64());
    }

    assert_eq!(
        heap, cal,
        "engines disagree on the synthetic workload; the benchmark is void"
    );
    EngineBench {
        events: heap.0,
        checksum: heap.1,
        heap_wall_s,
        calendar_wall_s,
    }
}

/// End-to-end throughput of one experiment: simulated RTTs and
/// simulation events per wall-clock second.
pub struct RttBench {
    /// Substrate name (`"atm"` or `"ether"`).
    pub net: String,
    /// Message size in bytes.
    pub size: usize,
    /// Measured iterations requested.
    pub iterations: u64,
    /// RTT samples actually collected.
    pub rtts: u64,
    /// Simulation events executed.
    pub sim_events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl RttBench {
    /// Simulated round trips per wall-clock second.
    #[must_use]
    pub fn rtts_per_sec(&self) -> f64 {
        self.rtts as f64 / self.wall_s
    }

    /// Simulation events per wall-clock second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 / self.wall_s
    }
}

/// Times one RPC experiment end to end (the full stack, not just the
/// engine): `iterations` echo round trips of `size` bytes.
#[must_use]
pub fn measure_rtt(net: NetKind, size: usize, iterations: u64, seed: u64) -> RttBench {
    let mut exp = Experiment::rpc(net, size);
    exp.iterations = iterations;
    exp.warmup = 16;
    let t = Instant::now();
    let run = exp.plan().seed(seed).execute();
    let wall_s = t.elapsed().as_secs_f64();
    RttBench {
        net: format!("{net:?}").to_lowercase(),
        size,
        iterations,
        rtts: run.rtts.len() as u64,
        sim_events: run.events,
        wall_s,
    }
}

/// The `--sketch` observability benchmark: a synthetic million-sample
/// fan-out completion stream pushed through per-shard sketch-mode
/// recorders, merged in shard (grid) order, and gated three ways —
/// retained memory stays under the sketch's documented ceiling, the
/// merged sketch p99 stays within 1% of the exact nearest-rank p99
/// over the same stream, and the merged result is byte-identical
/// whether the shards ran on 1 worker or 4.
pub struct SketchBench {
    /// Samples streamed (across all shards).
    pub samples: u64,
    /// Shards the stream was split into (one recorder each).
    pub shards: usize,
    /// Wall-clock seconds for the sharded sketch pass (jobs = 4).
    pub wall_s: f64,
    /// Bytes retained by the merged sketch recorder.
    pub memory_bytes: usize,
    /// Exact nearest-rank p99 over the full stream, in ns.
    pub exact_p99_ns: i64,
    /// Merged-sketch p99, in ns.
    pub sketch_p99_ns: i64,
    /// Whether the jobs=1 and jobs=4 merges agreed bit for bit
    /// (count, sum, min, max, and every probed percentile).
    pub jobs_byte_identical: bool,
}

impl SketchBench {
    /// `|sketch − exact| / exact` at p99 (0 when exact is 0).
    #[must_use]
    pub fn p99_drift(&self) -> f64 {
        if self.exact_p99_ns == 0 {
            return 0.0;
        }
        (self.sketch_p99_ns - self.exact_p99_ns).abs() as f64 / self.exact_p99_ns as f64
    }

    /// Samples per wall-clock second through the sharded sketch pass.
    #[must_use]
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// Sequential splitmix64: the standard 64-bit finalizer-based PRNG,
/// deterministic per (seed, shard) by construction.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One synthetic fan-out completion time in ns: a ~50–250 µs body
/// with a 1-in-64 heavy tail stretching into tens of ms — the shape
/// the tails study produces, scaled to exercise many sketch octaves.
fn synthetic_completion_ns(r: u64, tail: u64) -> i64 {
    let body = 50_000 + (r % 200_000);
    let spike = if r.is_multiple_of(64) {
        tail % 50_000_000
    } else {
        0
    };
    (body + spike) as i64
}

/// Runs the sharded sketch pass at one worker count and returns the
/// merged recorder (shards merged in shard order).
fn sketch_pass(samples: u64, shards: usize, seed: u64, jobs: usize) -> simcap::Recorder {
    let per_shard = samples / shards as u64;
    let shard_ids: Vec<u64> = (0..shards as u64).collect();
    let parts = sweep::pool::run_ordered(&shard_ids, jobs, |_, &shard| {
        let mut state = seed ^ (shard.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut rec = simcap::Recorder::sketched();
        for _ in 0..per_shard {
            let r = splitmix64(&mut state);
            let tail = splitmix64(&mut state);
            rec.observe_ns(synthetic_completion_ns(r, tail));
        }
        rec
    });
    let mut merged = simcap::Recorder::sketched();
    for part in &parts {
        merged.merge(part);
    }
    merged
}

/// Measures the sketch-mode observability path on a synthetic stream
/// of `samples` completions split across `shards` recorders.
///
/// The exact reference pools every sample and takes the nearest-rank
/// p99 (the same rule `simcap::LatencyDist` applies); the sketch pass
/// runs twice, at 1 and 4 workers, and the two merges must agree bit
/// for bit — the gates themselves are applied by the caller.
///
/// # Panics
///
/// Panics if `shards` is zero or `samples < shards`.
#[must_use]
pub fn sketch_bench(samples: u64, shards: usize, seed: u64) -> SketchBench {
    use simcap::Quantiles;
    assert!(shards >= 1 && samples >= shards as u64);
    // Exact reference: pool the identical stream, nearest-rank p99.
    let per_shard = samples / shards as u64;
    let mut exact: Vec<i64> = Vec::with_capacity((per_shard * shards as u64) as usize);
    for shard in 0..shards as u64 {
        let mut state = seed ^ (shard.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        for _ in 0..per_shard {
            let r = splitmix64(&mut state);
            let tail = splitmix64(&mut state);
            exact.push(synthetic_completion_ns(r, tail));
        }
    }
    let exact_dist = simcap::LatencyDist::from_samples(exact);

    let t = Instant::now();
    let merged = sketch_pass(samples, shards, seed, 4);
    let wall_s = t.elapsed().as_secs_f64();
    let single = sketch_pass(samples, shards, seed, 1);

    let probe = |r: &simcap::Recorder| {
        (
            Quantiles::count(r),
            r.percentile_ns(50.0),
            r.percentile_ns(99.0),
            r.percentile_ns(99.9),
            Quantiles::min_ns(r),
            Quantiles::max_ns(r),
            r.mean_us().to_bits(),
        )
    };
    SketchBench {
        samples: per_shard * shards as u64,
        shards,
        wall_s,
        memory_bytes: merged.memory_bytes(),
        exact_p99_ns: simcap::LatencyDist::percentile_ns(&exact_dist, 99.0),
        sketch_p99_ns: merged.percentile_ns(99.0).unwrap_or(0),
        jobs_byte_identical: probe(&merged) == probe(&single),
    }
}

/// Wall-clock for one whole sweep grid at one worker count.
pub struct SweepBench {
    /// Grid name (from [`Sweep::new`]).
    pub grid: String,
    /// Worker count the grid ran with.
    pub jobs: usize,
    /// Cells in the grid.
    pub cells: usize,
    /// Simulation events summed over every cell.
    pub sim_events: u64,
    /// RTT samples summed over every cell.
    pub rtts: u64,
    /// Wall-clock seconds for the whole grid.
    pub wall_s: f64,
}

impl SweepBench {
    /// Simulation events per wall-clock second across the grid.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 / self.wall_s
    }
}

/// Runs `sw` at the given worker count and times it.
#[must_use]
pub fn measure_sweep(sw: &Sweep, jobs: usize) -> SweepBench {
    let t = Instant::now();
    let results = sw.run(jobs);
    let wall_s = t.elapsed().as_secs_f64();
    SweepBench {
        grid: results.name.clone(),
        jobs,
        cells: results.outcomes.len(),
        sim_events: results.outcomes.iter().map(|o| o.result.events).sum(),
        rtts: results
            .outcomes
            .iter()
            .map(|o| o.result.rtts.len() as u64)
            .sum(),
        wall_s,
    }
}

/// The full `repro bench` report, serialized to `BENCH_<series>.json`.
///
/// The JSON schema (`perfkit-bench-v1`) is documented in README.md;
/// wall-clock fields are machine-local, the `speedup` ratio is what
/// transfers across machines and what CI gates on.
pub struct BenchReport {
    /// Report series (`BENCH_<series>.json`).
    pub series: u32,
    /// Whether this was the `--quick` CI scale.
    pub quick: bool,
    /// Base seed of the directly seeded measurements.
    pub seed: u64,
    /// Engine microbenchmark.
    pub engine: EngineBench,
    /// End-to-end RTT throughput measurements.
    pub rtt: Vec<RttBench>,
    /// Whole-grid timings, one entry per (grid, jobs) pair.
    pub sweeps: Vec<SweepBench>,
    /// Sketch-mode observability benchmark (`--sketch` only).
    pub sketch: Option<SketchBench>,
}

impl BenchReport {
    /// Serializes the report (hand-rolled JSON; the workspace takes
    /// no serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"perfkit-bench-v1\",\n");
        s.push_str(&format!("  \"series\": {},\n", self.series));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"engine\": {\n");
        s.push_str(&format!("    \"events\": {},\n", self.engine.events));
        s.push_str(&format!(
            "    \"checksum\": \"{:#018x}\",\n",
            self.engine.checksum
        ));
        s.push_str(&format!(
            "    \"heap_wall_s\": {:.6},\n",
            self.engine.heap_wall_s
        ));
        s.push_str(&format!(
            "    \"heap_events_per_sec\": {:.1},\n",
            self.engine.heap_events_per_sec()
        ));
        s.push_str(&format!(
            "    \"calendar_wall_s\": {:.6},\n",
            self.engine.calendar_wall_s
        ));
        s.push_str(&format!(
            "    \"calendar_events_per_sec\": {:.1},\n",
            self.engine.calendar_events_per_sec()
        ));
        s.push_str(&format!(
            "    \"speedup\": {:.3}\n  }},\n",
            self.engine.speedup()
        ));
        s.push_str("  \"rtt\": [\n");
        for (i, r) in self.rtt.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"net\": {}, \"size\": {}, \"iterations\": {}, \"rtts\": {}, \
                 \"sim_events\": {}, \"wall_s\": {:.6}, \"rtts_per_sec\": {:.1}, \
                 \"events_per_sec\": {:.1}}}{}\n",
                json_string(&r.net),
                r.size,
                r.iterations,
                r.rtts,
                r.sim_events,
                r.wall_s,
                r.rtts_per_sec(),
                r.events_per_sec(),
                if i + 1 < self.rtt.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"sweeps\": [\n");
        for (i, b) in self.sweeps.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"grid\": {}, \"jobs\": {}, \"cells\": {}, \"sim_events\": {}, \
                 \"rtts\": {}, \"wall_s\": {:.6}, \"events_per_sec\": {:.1}}}{}\n",
                json_string(&b.grid),
                b.jobs,
                b.cells,
                b.sim_events,
                b.rtts,
                b.wall_s,
                b.events_per_sec(),
                if i + 1 < self.sweeps.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
        if let Some(sk) = &self.sketch {
            s.push_str(&format!(
                ",\n  \"sketch\": {{\"samples\": {}, \"shards\": {}, \"wall_s\": {:.6}, \
                 \"samples_per_sec\": {:.1}, \"memory_bytes\": {}, \"exact_p99_ns\": {}, \
                 \"sketch_p99_ns\": {}, \"p99_drift\": {:.6}, \"jobs_byte_identical\": {}}}",
                sk.samples,
                sk.shards,
                sk.wall_s,
                sk.samples_per_sec(),
                sk.memory_bytes,
                sk.exact_p99_ns,
                sk.sketch_p99_ns,
                sk.p99_drift(),
                sk.jobs_byte_identical
            ));
        }
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_the_synthetic_workload() {
        // engine_bench asserts (events, checksum) equality internally.
        // Events already queued when the budget hits still fire, so
        // the total lands within SOURCES of the budget.
        let b = engine_bench(20_000, 7);
        assert!(b.events >= 20_000 && b.events < 20_000 + SOURCES);
        assert!(b.heap_wall_s > 0.0 && b.calendar_wall_s > 0.0);
    }

    #[test]
    fn churn_is_seed_sensitive_and_deterministic() {
        assert_eq!(run_calendar(5_000, 3), run_calendar(5_000, 3));
        assert_ne!(run_calendar(5_000, 3).1, run_calendar(5_000, 4).1);
    }

    #[test]
    fn rtt_bench_collects_samples() {
        let r = measure_rtt(NetKind::Atm, 200, 20, 1);
        assert_eq!(r.net, "atm");
        assert_eq!(r.rtts, 20);
        assert!(r.sim_events > 0 && r.wall_s > 0.0);
    }

    #[test]
    fn report_serializes_every_section() {
        let report = BenchReport {
            series: BENCH_SERIES,
            quick: true,
            seed: 1,
            engine: engine_bench(20_000, 1),
            rtt: vec![measure_rtt(NetKind::Atm, 200, 10, 1)],
            sweeps: Vec::new(),
            sketch: None,
        };
        let json = report.to_json();
        for key in [
            "\"schema\": \"perfkit-bench-v1\"",
            "\"series\": 5",
            "\"speedup\"",
            "\"heap_events_per_sec\"",
            "\"calendar_events_per_sec\"",
            "\"rtts_per_sec\"",
            "\"sweeps\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces: a cheap structural check without a parser.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn sketch_bench_meets_its_own_gates_at_small_scale() {
        let b = sketch_bench(40_000, 8, 42);
        assert_eq!(b.samples, 40_000);
        assert!(b.jobs_byte_identical, "jobs 1 vs 4 merges diverged");
        assert!(
            b.p99_drift() < 0.01,
            "sketch p99 {} vs exact {} drift {:.4}",
            b.sketch_p99_ns,
            b.exact_p99_ns,
            b.p99_drift()
        );
        assert!(b.memory_bytes <= simcap::MAX_MEMORY_BYTES);
    }

    #[test]
    fn report_serializes_the_sketch_section_when_present() {
        let report = BenchReport {
            series: BENCH_SERIES,
            quick: true,
            seed: 1,
            engine: engine_bench(20_000, 1),
            rtt: Vec::new(),
            sweeps: Vec::new(),
            sketch: Some(sketch_bench(4_000, 4, 7)),
        };
        let json = report.to_json();
        for key in ["\"sketch\":", "\"p99_drift\"", "\"jobs_byte_identical\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }
}
