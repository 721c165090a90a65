//! `perfbench` — the simulator's own benchmark: host wall time per
//! simulated RTT, end to end and per layer, on three workloads.
//!
//! The paper timestamped code-path boundaries to find where TCP's
//! round trip goes. This benchmark asks the same of the simulator's
//! host time. It calls the repository's crates only through their
//! public functions and changes none of them. See `README.md` beside
//! this crate for the workloads, the metrics and how to run it.

#![warn(missing_docs)]

pub mod dc;
pub mod env;
pub mod layers;
pub mod rpc;
pub mod stats;

use std::time::{Duration, Instant};

use dc::DcWorkload;
use rpc::RpcWorkload;
use stats::Metrics;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = [
    "rpc-atm-4b-long",
    "rpc-8000b-atm-ether",
    "dc-incast-1024pcb",
];

/// The end-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_rtts_per_s", "RTT/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_frac", "ratio"),
    ("paper_rtt_err_pct", "%"),
];

/// The per-layer metrics (`--trace 1`), with their units. A layer a
/// workload never enters reports 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("core.app-wakeup.self_ns", "ns"),
    ("core.app-wakeup.per_rtt", "count"),
    ("core.app-wakeup.share", "ratio"),
    ("core.atm-arrival.self_ns", "ns"),
    ("core.atm-arrival.per_rtt", "count"),
    ("core.atm-arrival.share", "ratio"),
    ("core.eth-arrival.self_ns", "ns"),
    ("core.eth-arrival.per_rtt", "count"),
    ("core.eth-arrival.share", "ratio"),
    ("core.softintr.self_ns", "ns"),
    ("core.softintr.per_rtt", "count"),
    ("core.softintr.share", "ratio"),
    ("core.tcp-timer.self_ns", "ns"),
    ("core.tcp-timer.per_rtt", "count"),
    ("core.tcp-timer.share", "ratio"),
    ("core.post_run_s", "s"),
    ("core.post_run.share", "ratio"),
    ("core.trace_overhead_frac", "ratio"),
    ("core.breakdown.ns_per_iter", "ns"),
    ("core.breakdown.scaling_ratio", "ratio"),
    ("cksum.crc10.ns_per_cell", "ns"),
    ("cksum.hec.ns_per_cell", "ns"),
    ("cksum.inet.ns_per_kb", "ns"),
    ("cksum.crc32.ns_per_frame", "ns"),
    ("cksum.crc_bytes_per_rtt", "B"),
    ("atm.sar.segment_ns_per_cell", "ns"),
    ("atm.sar.reassemble_ns_per_cell", "ns"),
    ("atm.cells_per_rtt", "count"),
    ("atm.switch.forward_ns_per_cell", "ns"),
    ("atm.switch.drops_per_rtt", "count"),
    ("mbuf.chain_copy_ns_per_kb", "ns"),
    ("ether.frame.encode_ns", "ns"),
    ("ether.frame.decode_ns", "ns"),
    ("tcpip.spans_per_rtt", "count"),
    ("tcpip.pcb.mtf.lookup_ns", "ns"),
    ("tcpip.pcb.cache.lookup_ns", "ns"),
    ("tcpip.pcb.hash.lookup_ns", "ns"),
    ("tcpip.pcb.mtf.traversed_per_lookup", "count"),
    ("tcpip.pcb.cache.traversed_per_lookup", "count"),
    ("tcpip.pcb.hash.traversed_per_lookup", "count"),
    ("tcpip.pcb.traversed_per_rtt", "count"),
    ("tcpip.rexmits_per_rtt", "count"),
    ("tcpip.rto_fires", "count"),
    ("tcpip.predict_hit_rate", "ratio"),
    ("simkit.events_per_rtt", "count"),
    ("simkit.ns_per_event", "ns"),
    ("world.run_dc_s_per_cell", "s"),
    ("world.report_s", "s"),
    ("sweep.pool_overhead_frac", "ratio"),
    ("simcap.recorder.observe_ns", "ns"),
    ("simcap.recorder.p99_query_ns", "ns"),
    ("simcap.sketch.merge_ns", "ns"),
    ("simcap.recorder.bytes", "B"),
    ("decstation.calibrate_s", "s"),
];

/// Fewest set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Workload size: the benchmark's own, or a tiny one for its tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Every workload shrunk to run in well under a second.
    Tiny,
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

impl Config {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// and the test-only `--tiny`.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag, a missing or bad value, or
    /// an unknown workload.
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                cfg.scale = Scale::Tiny;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => cfg.workload.clone_from(value),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(cfg)
    }
}

/// What one invocation measured.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// The first failed check, if any.
    pub error: Option<String>,
    /// RPCs attempted in the measured jobs.
    pub attempted: u64,
    /// RPCs that failed verification, aborted or never completed.
    pub failed: u64,
    /// Every metric measured, with all samples.
    pub metrics: Metrics,
    /// Digest of the simulated results (equal in every job).
    pub digest: u64,
    /// Jobs measured.
    pub jobs: usize,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and the
    /// contract's metrics for this mode.
    #[must_use]
    pub fn result_json(&self, trace: bool) -> String {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        // A failed check may have ended the run before every metric
        // was measured; its result line carries none.
        let metrics = if self.error.is_some() {
            "{}".to_string()
        } else {
            self.metrics.contract_json(&names)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Seconds since `t`.
#[must_use]
pub fn seconds(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What the measuring loop needs from a workload.
pub trait Bench {
    /// What one job produced.
    type Job;

    /// Runs one timed job.
    fn run_job(&self) -> Self::Job;

    /// Host seconds the job's timed span took.
    fn wall(job: &Self::Job) -> f64;

    /// Measured RTT samples the job completed.
    fn rtts(&self, job: &Self::Job) -> u64;

    /// Digest of everything the job simulated.
    fn digest(job: &Self::Job) -> u64;

    /// RPCs one job attempts.
    fn attempted(&self) -> u64;

    /// RPCs of `job` that failed verification, aborted or never
    /// completed.
    fn failed(&self, job: &Self::Job) -> u64;

    /// The output checks, run once outside the timed region.
    ///
    /// # Errors
    ///
    /// A description of the first check that failed.
    fn check(&self, job: &Self::Job, m: &mut Metrics) -> Result<(), String>;

    /// Error of the job's mean RTT against Table 1, in percent, when
    /// the workload has a Table 1 row.
    fn paper_err(&self, job: &Self::Job) -> Option<f64>;

    /// The traced measurement for `budget`: adds the per-layer
    /// metrics and returns the jobs whose digests it checked.
    ///
    /// # Errors
    ///
    /// A description of the first check that failed.
    fn trace(&self, budget: Duration, m: &mut Metrics) -> Result<Vec<Self::Job>, String>;
}

enum Workload {
    Rpc(RpcWorkload),
    Dc(DcWorkload),
}

impl Workload {
    fn build(cfg: &Config) -> Workload {
        let (seed, scale) = (cfg.seed, cfg.scale);
        match cfg.workload.as_str() {
            "rpc-atm-4b-long" => Workload::Rpc(RpcWorkload::atm_4b_long(seed, scale)),
            "rpc-8000b-atm-ether" => Workload::Rpc(RpcWorkload::rpc_8000b(seed, scale)),
            "dc-incast-1024pcb" => Workload::Dc(DcWorkload::incast_1024pcb(seed, scale)),
            other => unreachable!("Config::parse admits only known workloads, not {other}"),
        }
    }

    /// Builds the workload and runs an unmeasured warm-up: a short
    /// job of the same shape. The incast workload also runs the paper's
    /// 4-byte ATM RPC, which anchors its `paper_rtt_err_pct`.
    fn setup(cfg: &Config) -> (Workload, Option<f64>) {
        let w = Workload::build(cfg);
        let anchor = match &w {
            Workload::Rpc(r) => {
                let _ = r.shortened(r.exps[0].iterations / 4).run_job();
                None
            }
            Workload::Dc(d) => {
                let _ = d.warm_up().run_job();
                let a = RpcWorkload::atm_4b_long(0, cfg.scale).shortened(200);
                let job = a.run_job();
                Some(a.paper_err_pct(&job))
            }
        };
        (w, anchor)
    }
}

/// One set-up, its host seconds appended to `times`.
fn timed_setup(cfg: &Config, times: &mut Vec<f64>) -> (Workload, Option<f64>) {
    let t = Instant::now();
    let built = Workload::setup(cfg);
    times.push(seconds(t));
    built
}

/// Runs one invocation.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let mut m = Metrics::default();
    let mut setups = Vec::new();
    let (workload, anchor) = timed_setup(cfg, &mut setups);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let out = {
        // One more set-up after each untraced job spreads the samples
        // over the run, so their median does not hang on one moment's
        // host load.
        let mut again = || drop(timed_setup(cfg, &mut setups));
        match &workload {
            Workload::Rpc(r) => measure(r, cfg.trace, anchor, budget, &mut again, &mut m),
            Workload::Dc(d) => measure(d, cfg.trace, anchor, budget, &mut again, &mut m),
        }
    };
    while setups.len() < SETUPS {
        drop(timed_setup(cfg, &mut setups));
    }
    m.add_all("setup_s", "s", &setups);
    if cfg.trace {
        layers::probe_all(cfg.seed, cfg.scale, &mut m);
        for (name, unit) in PER_LAYER {
            if m.get(name).is_none() {
                m.add(name, unit, 0.0);
            }
        }
    }
    let (attempted, failed, digest, jobs, error) = match out {
        Ok(t) => (t.0, t.1, t.2, t.3, None),
        Err(e) => (1, 1, 0, 0, Some(e)),
    };
    Outcome {
        correct: error.is_none() && failed == 0,
        error,
        attempted,
        failed,
        metrics: m,
        digest,
        jobs,
    }
}

/// `(attempted, failed, digest, jobs)` of the measured jobs.
type Measured = Result<(u64, u64, u64, usize), String>;

/// The untraced run (jobs back to back for `budget`, then the
/// end-to-end metrics) or the traced one, then the output checks.
fn measure<B: Bench>(
    b: &B,
    trace: bool,
    anchor: Option<f64>,
    budget: Duration,
    again: &mut dyn FnMut(),
    m: &mut Metrics,
) -> Measured {
    let jobs = if trace {
        b.trace(budget, m)?
    } else {
        let start = Instant::now();
        let mut jobs = Vec::new();
        let (mut rtts, mut wall) = (0, 0.0);
        while jobs.is_empty() || start.elapsed() < budget {
            let job = b.run_job();
            m.add(
                "sim_rtts_per_s.job",
                "RTT/s",
                b.rtts(&job) as f64 / B::wall(&job),
            );
            rtts += b.rtts(&job);
            wall += B::wall(&job);
            jobs.push(job);
            again();
        }
        // Throughput over the whole measured span, not the median
        // job: on a shared host, co-tenants slow jobs in spells that
        // last tens of seconds. A median picks one spell; the total
        // averages them.
        m.add("sim_rtts_per_s", "RTT/s", rtts as f64 / wall);
        if let Some(mib) = env::peak_rss_mib() {
            m.add("peak_rss_mb", "MiB", mib);
        }
        jobs
    };
    let digest = B::digest(&jobs[0]);
    if jobs.iter().any(|j| B::digest(j) != digest) {
        return Err("repeated jobs of one seed simulated different results".into());
    }
    b.check(&jobs[0], m)?;
    let failed: u64 = jobs.iter().map(|j| b.failed(j)).sum();
    let attempted = b.attempted() * jobs.len() as u64;
    if !trace {
        let completed = (attempted - failed) as f64 / attempted as f64;
        m.add("completed_frac", "ratio", completed);
        let err = b.paper_err(&jobs[0]).or(anchor);
        m.add(
            "paper_rtt_err_pct",
            "%",
            err.expect("the incast set-up runs the anchor"),
        );
    }
    Ok((attempted, failed, digest, jobs.len()))
}
