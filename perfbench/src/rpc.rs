//! The two-host workloads: the paper's RPC echo between two
//! DECstations, driven through `latency_core::RunPlan`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use latency_core::breakdown::compute_breakdowns;
use latency_core::experiment::{Experiment, NetKind, RunResult};
use latency_core::paper;
use simcap::TapPoint;
use simkit::SimTime;

use crate::stats::{Digest, Metrics};
use crate::{seconds, Bench, Scale};

/// The event labels the two-host world schedules, in report order.
/// Rare labels (connection start, abort wake-ups) are charged too but
/// only summed into the totals.
pub const LABELS: [&str; 5] = [
    "app-wakeup",
    "atm-arrival",
    "eth-arrival",
    "softintr",
    "tcp-timer",
];

/// One two-host workload: one experiment per network it crosses.
pub struct RpcWorkload {
    /// The experiments run back to back in one job.
    pub exps: Vec<Experiment>,
    /// Repetitions per experiment (`RunPlan::reps`).
    pub reps: u64,
    /// The first repetition's seed (`RunPlan::seed`).
    pub seed: u64,
    /// Iterations of the analysis-scaling probe's short run.
    pub probe_iterations: u64,
}

/// What one job of a two-host workload produced.
pub struct RpcJob {
    /// Host seconds from the first world build to the digest.
    pub wall: f64,
    /// The pooled result of each experiment.
    pub runs: Vec<RunResult>,
    /// Digest of every simulated result.
    pub digest: u64,
}

/// The seed's share of the workload: 8 to 15 unmeasured warm-up
/// iterations. Clean two-host runs draw no random numbers, so
/// `RunPlan::seed` alone leaves them unchanged; the warm-up length
/// moves the measured window against the TCP timers instead.
#[must_use]
pub fn warmup_for(seed: u64) -> u64 {
    8 + splitmix(seed) % 8
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RpcWorkload {
    /// `rpc-atm-4b-long`: 4-byte RPCs over ATM, paper-style depth.
    #[must_use]
    pub fn atm_4b_long(seed: u64, scale: Scale) -> RpcWorkload {
        let iterations = match scale {
            Scale::Full => 2000,
            Scale::Tiny => 40,
        };
        RpcWorkload {
            exps: vec![experiment(NetKind::Atm, 4, iterations, seed)],
            reps: 3,
            seed,
            probe_iterations: probe_iterations(scale),
        }
    }

    /// `rpc-8000b-atm-ether`: 8000-byte RPCs over ATM and Ethernet.
    #[must_use]
    pub fn rpc_8000b(seed: u64, scale: Scale) -> RpcWorkload {
        let iterations = match scale {
            Scale::Full => 200,
            Scale::Tiny => 12,
        };
        RpcWorkload {
            exps: vec![
                experiment(NetKind::Atm, 8000, iterations, seed),
                experiment(NetKind::Ether, 8000, iterations, seed),
            ],
            reps: 1,
            seed,
            probe_iterations: probe_iterations(scale),
        }
    }

    /// The same workload shortened to `iterations` per repetition.
    #[must_use]
    pub fn shortened(&self, iterations: u64) -> RpcWorkload {
        RpcWorkload {
            exps: self
                .exps
                .iter()
                .map(|e| experiment(e.net, e.size, iterations, self.seed))
                .collect(),
            reps: 1,
            seed: self.seed,
            probe_iterations: self.probe_iterations,
        }
    }

    /// Round trips executed per job, warm-up included: the divisor
    /// of every per-RTT work counter.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.exps
            .iter()
            .map(|e| (e.warmup + e.iterations) * self.reps)
            .sum()
    }

    /// Mean absolute error of the simulated mean RTT against Table 1,
    /// in percent, over this workload's experiments.
    #[must_use]
    pub fn paper_err_pct(&self, job: &RpcJob) -> f64 {
        let errs: Vec<f64> = self
            .exps
            .iter()
            .zip(&job.runs)
            .map(|(e, r)| {
                let paper = paper_rtt_us(e);
                ((r.mean_rtt_us() - paper) / paper * 100.0).abs()
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    fn run_traced(&self) -> (RpcJob, LabelAcc) {
        let acc = Rc::new(RefCell::new(LabelAcc::default()));
        let mut wall = 0.0;
        let mut runs = Vec::new();
        for e in &self.exps {
            acc.borrow_mut().begin();
            let t0 = Instant::now();
            let shared = Rc::clone(&acc);
            let run = e
                .plan()
                .seed(self.seed)
                .reps(self.reps)
                .observer(Box::new(move |_, t, label| {
                    shared.borrow_mut().stamp(t, label)
                }))
                .execute();
            acc.borrow_mut().end();
            wall += t0.elapsed().as_secs_f64();
            runs.push(run);
        }
        let digest = digest_runs(&runs);
        let acc = Rc::into_inner(acc)
            .expect("the plan drops its observer when it returns")
            .into_inner();
        (RpcJob { wall, runs, digest }, acc)
    }

    fn add_trace_metrics(
        &self,
        job: &RpcJob,
        acc: &LabelAcc,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let executed = self.executed() as f64;
        let charged = acc.event_ns() + acc.outside_ns;
        let wall_ns = job.wall * 1e9;
        if (charged - wall_ns).abs() > 0.1 * wall_ns {
            return Err(format!(
                "trace accounts for {charged:.0} ns of {wall_ns:.0} ns traced wall time"
            ));
        }
        for label in LABELS {
            let (count, ns) = acc.get(label);
            let per_event = if count == 0 { 0.0 } else { ns / count as f64 };
            m.add(&format!("core.{label}.self_ns"), "ns", per_event);
            m.add(
                &format!("core.{label}.per_rtt"),
                "count",
                count as f64 / executed,
            );
            m.add(&format!("core.{label}.share"), "ratio", ns / wall_ns);
        }
        m.add("core.post_run_s", "s", acc.outside_ns / 1e9);
        m.add("core.post_run.share", "ratio", acc.outside_ns / wall_ns);
        m.add(
            "simkit.ns_per_event",
            "ns",
            acc.event_ns() / acc.events() as f64,
        );
        Ok(())
    }

    /// Exact simulated counts of one job, per executed round trip.
    fn add_counters(&self, job: &RpcJob, m: &mut Metrics) {
        let executed = self.executed() as f64;
        let sum = |f: &dyn Fn(&RunResult) -> u64| job.runs.iter().map(f).sum::<u64>() as f64;
        let events = sum(&|r| r.events);
        let rexmits = sum(&|r| r.client_tcp.rexmits + r.server_tcp.rexmits);
        let rto = sum(&|r| r.client_kernel.rto_fires + r.server_kernel.rto_fires);
        let checks = sum(&|r| r.client_tcp.predict_checks + r.server_tcp.predict_checks);
        let hits = sum(&|r| {
            r.client_tcp.predict_data_hits
                + r.client_tcp.predict_ack_hits
                + r.server_tcp.predict_data_hits
                + r.server_tcp.predict_ack_hits
        });
        m.add("simkit.events_per_rtt", "count", events / executed);
        m.add("tcpip.rexmits_per_rtt", "count", rexmits / executed);
        m.add("tcpip.rto_fires", "count", rto);
        m.add(
            "tcpip.predict_hit_rate",
            "ratio",
            if checks == 0.0 { 0.0 } else { hits / checks },
        );
        let bytes: usize = job.runs.iter().map(|r| r.recorder().memory_bytes()).sum();
        m.add("simcap.recorder.bytes", "B", bytes as f64);
    }

    /// One captured repetition per experiment: the client's own spans
    /// time `compute_breakdowns`, and the link taps count cells and
    /// frames. A second, 500-iteration capture gives the scaling
    /// probe's base.
    fn add_capture_metrics(&self, m: &mut Metrics) {
        let mut cells = 0usize;
        let mut crc_bytes = 0.0;
        let mut spans = 0usize;
        let mut iters = 0u64;
        let mut breakdown_ns = 0.0;
        for e in &self.exps {
            let cap = e.plan().seed(self.seed).captured().execute();
            let n = e.warmup + e.iterations;
            let atm_cells = cap.client.at(TapPoint::LinkCell).count()
                + cap.server.at(TapPoint::LinkCell).count();
            let frame_bytes: usize = cap
                .client
                .at(TapPoint::LinkFrame)
                .chain(cap.server.at(TapPoint::LinkFrame))
                .map(|f| f.bytes.len() - 4)
                .sum();
            // Each cell's CRC-10 covers 46.75 bytes and its HEC 4
            // header bytes; each frame's CRC-32 covers everything but
            // the FCS. Both are computed once to send, once to check.
            crc_bytes += 2.0 * (atm_cells as f64 * 50.75 + frame_bytes as f64);
            cells += atm_cells;
            spans += cap.client_spans.spans().len();
            iters += n;
            breakdown_ns += time_breakdowns(&cap.client_spans);
        }
        m.add("atm.cells_per_rtt", "count", cells as f64 / iters as f64);
        m.add("cksum.crc_bytes_per_rtt", "B", crc_bytes / iters as f64);
        m.add("tcpip.spans_per_rtt", "count", spans as f64 / iters as f64);
        let per_iter = breakdown_ns / iters as f64;
        m.add("core.breakdown.ns_per_iter", "ns", per_iter);

        let short = self.shortened(self.probe_iterations);
        let mut short_ns = 0.0;
        let mut short_iters = 0;
        for e in &short.exps {
            let cap = e.plan().seed(self.seed).captured().execute();
            short_ns += time_breakdowns(&cap.client_spans);
            short_iters += e.warmup + e.iterations;
        }
        m.add(
            "core.breakdown.scaling_ratio",
            "ratio",
            per_iter / (short_ns / short_iters as f64),
        );
    }
}

impl Bench for RpcWorkload {
    type Job = RpcJob;

    /// One timed job: every experiment's plan, executed, digested.
    fn run_job(&self) -> RpcJob {
        let start = Instant::now();
        let runs: Vec<RunResult> = self
            .exps
            .iter()
            .map(|e| e.plan().seed(self.seed).reps(self.reps).execute())
            .collect();
        let digest = digest_runs(&runs);
        RpcJob {
            wall: start.elapsed().as_secs_f64(),
            runs,
            digest,
        }
    }

    fn wall(job: &RpcJob) -> f64 {
        job.wall
    }

    fn rtts(&self, job: &RpcJob) -> u64 {
        job.runs.iter().map(|r| r.rtts.len() as u64).sum()
    }

    fn digest(job: &RpcJob) -> u64 {
        job.digest
    }

    fn paper_err(&self, job: &RpcJob) -> Option<f64> {
        Some(self.paper_err_pct(job))
    }

    /// RPCs attempted per job (measured iterations only).
    fn attempted(&self) -> u64 {
        self.exps.iter().map(|e| e.iterations * self.reps).sum()
    }

    /// Failed RPCs of a job: missing samples plus verify failures.
    fn failed(&self, job: &RpcJob) -> u64 {
        let completed: u64 = job.runs.iter().map(|r| r.rtts.len() as u64).sum();
        let verify: u64 = job.runs.iter().map(|r| r.verify_failures).sum();
        (self.attempted() - completed.min(self.attempted()) + verify).min(self.attempted())
    }

    /// The output checks, on one more run outside the timed region:
    /// the clean run verified every payload, leaked no mbuf and
    /// aborted nothing, simulated what `job` did, and its RTTs equal
    /// the analytic oracle's.
    ///
    /// The oracle walks the RPC timeline without the TCP fast and
    /// slow timers. Until a repetition's first timer event every RTT
    /// must match it bit for bit. After that, an RTT may differ only
    /// where a timer event landed inside it, or by one 40 ns clock
    /// tick, the quantization phase the interrupt shifted. Both counts
    /// go to `m`, so the oracle's gap stays visible in every report.
    ///
    /// # Errors
    ///
    /// A description of the first check that failed.
    fn check(&self, job: &RpcJob, m: &mut Metrics) -> Result<(), String> {
        let (mut perturbed, mut drifted) = (0u64, 0u64);
        for (e, r) in self.exps.iter().zip(&job.runs) {
            let what = format!("{:?} {} B", e.net, e.size);
            if r.verify_failures != 0 || r.aborted || r.mbufs_leaked != (0, 0) {
                return Err(format!(
                    "{what}: {} verify failures, aborted {}, leaked {:?}",
                    r.verify_failures, r.aborted, r.mbufs_leaked
                ));
            }
            let n = e.iterations as usize;
            if r.rtts.len() != n * self.reps as usize {
                return Err(format!("{what}: {} RTT samples", r.rtts.len()));
            }
            // Per repetition, the measured iteration each TCP timer
            // event interrupted.
            let timers: Rc<RefCell<Vec<Vec<usize>>>> = Rc::default();
            let seen = Rc::clone(&timers);
            let mut last_t = None;
            let observed = e
                .plan()
                .seed(self.seed)
                .reps(self.reps)
                .observer(Box::new(move |w, t, label| {
                    let mut seen = seen.borrow_mut();
                    if last_t.is_none_or(|prev| t < prev) {
                        seen.push(Vec::new());
                    }
                    last_t = Some(t);
                    if label == "tcp-timer" {
                        let i = w.hosts[0].app.stats.rtts.len();
                        seen.last_mut().expect("pushed at the first event").push(i);
                    }
                }))
                .execute();
            if observed.rtts != r.rtts {
                return Err(format!("{what}: an observed run simulated different RTTs"));
            }
            let pred = oracle::predict(e).map_err(|err| format!("{what}: oracle: {err}"))?;
            let w = e.warmup as usize;
            let expect = pred
                .rtts
                .get(w..w + n)
                .ok_or_else(|| format!("{what}: oracle walked too few iterations"))?;
            let timers = timers.borrow();
            for (rep, got) in r.rtts.chunks(n).enumerate() {
                let fired = timers.get(rep).map_or(&[][..], Vec::as_slice);
                for (i, (g, x)) in got.iter().zip(expect).enumerate() {
                    if g == x {
                        continue;
                    }
                    let hit = fired.contains(&i);
                    let after = fired.first().is_some_and(|&f| f <= i);
                    let tick = g.as_ns().abs_diff(x.as_ns()) == simkit::time::CLOCK_PERIOD_NS;
                    if hit {
                        perturbed += 1;
                    } else if after && tick {
                        drifted += 1;
                    } else {
                        return Err(format!(
                            "{what}: rep {rep} iteration {i}: RTT {} ns, oracle {} ns",
                            g.as_ns(),
                            x.as_ns()
                        ));
                    }
                }
            }
        }
        m.add("oracle.timer_perturbed_iters", "count", perturbed as f64);
        m.add("oracle.tick_drift_iters", "count", drifted as f64);
        Ok(())
    }

    /// The traced measurement: jobs with a per-event observer,
    /// alternating with untraced jobs, for `budget`; then the capture
    /// and analysis probes. Adds every per-layer metric this workload
    /// measures and returns the traced jobs.
    ///
    /// # Errors
    ///
    /// A description of the first output check that failed.
    fn trace(&self, budget: Duration, m: &mut Metrics) -> Result<Vec<RpcJob>, String> {
        let start = Instant::now();
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        while traced.is_empty() || start.elapsed() < budget {
            let reference = self.run_job();
            let (job, acc) = self.run_traced();
            if job.digest != reference.digest {
                return Err("traced and untraced runs simulated different results".into());
            }
            self.add_trace_metrics(&job, &acc, m)?;
            plain.push(reference.wall);
            traced.push(job);
        }
        let untraced = crate::stats::median(&plain);
        for job in &traced {
            m.add(
                "core.trace_overhead_frac",
                "ratio",
                job.wall / untraced - 1.0,
            );
        }
        self.add_counters(&traced[0], m);
        self.add_capture_metrics(m);
        Ok(traced)
    }
}

/// Median host ns of `compute_breakdowns` over a run's client spans.
fn time_breakdowns(spans: &tcpip::SpanRecorder) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(compute_breakdowns(std::hint::black_box(spans)));
            seconds(t) * 1e9
        })
        .collect();
    crate::stats::median(&samples)
}

/// The analysis-scaling probe's base: 500 iterations, the point the
/// ROADMAP's scaling target compares against.
fn probe_iterations(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 500,
        Scale::Tiny => 20,
    }
}

fn experiment(net: NetKind, size: usize, iterations: u64, seed: u64) -> Experiment {
    let mut e = Experiment::rpc(net, size);
    e.iterations = iterations;
    e.warmup = warmup_for(seed);
    e
}

fn paper_rtt_us(e: &Experiment) -> f64 {
    let i = paper::SIZES
        .iter()
        .position(|&s| s == e.size)
        .expect("workload sizes are Table 1 sizes");
    match e.net {
        NetKind::Atm => paper::T1_ATM_RTT[i],
        NetKind::Ether => paper::T1_ETHERNET_RTT[i],
    }
}

/// Digest of every simulated quantity the runs report.
#[must_use]
pub fn digest_runs(runs: &[RunResult]) -> u64 {
    let mut d = Digest::default();
    for r in runs {
        d.u64(r.rtts.len() as u64);
        for t in &r.rtts {
            d.u64(t.as_ns());
        }
        for v in [
            r.tx.user,
            r.tx.cksum,
            r.tx.mcopy,
            r.tx.segment,
            r.tx.ip,
            r.tx.driver,
        ] {
            d.f64(v);
        }
        for v in [
            r.rx.driver,
            r.rx.ipq,
            r.rx.ip,
            r.rx.cksum,
            r.rx.segment,
            r.rx.wakeup,
            r.rx.user,
        ] {
            d.f64(v);
        }
        for v in [
            r.breakdown_iters as u64,
            r.verify_failures,
            r.bytes_moved,
            r.events,
            r.sim_time.as_ns(),
            u64::from(r.aborted),
            r.mbufs_leaked.0,
            r.mbufs_leaked.1,
            r.client_tcp.segs_out,
            r.server_tcp.segs_out,
            r.client_tcp.rexmits,
            r.server_tcp.rexmits,
        ] {
            d.u64(v);
        }
    }
    d.value()
}

/// Host time charged per event label by the traced run's observer:
/// each stamp's gap since the previous stamp goes to the label of the
/// event that just ran. The gap before a repetition's first event
/// (world build, and the previous repetition's analysis and teardown)
/// and the tail after the last event are charged to `outside_ns`.
#[derive(Default)]
struct LabelAcc {
    labels: Vec<(&'static str, u64, f64)>,
    /// Host ns outside any event: build, post-run analysis, teardown.
    outside_ns: f64,
    last: Option<Instant>,
    last_t: Option<SimTime>,
}

impl LabelAcc {
    fn begin(&mut self) {
        self.last = Some(Instant::now());
        self.last_t = None;
    }

    fn stamp(&mut self, t: SimTime, label: &'static str) {
        let now = Instant::now();
        let gap = self.last.map_or(0.0, |l| (now - l).as_nanos() as f64);
        // Simulated time restarts with each repetition's fresh world.
        if self.last_t.is_none_or(|prev| t < prev) {
            self.outside_ns += gap;
        } else {
            match self.labels.iter_mut().find(|(l, _, _)| *l == label) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += gap;
                }
                None => self.labels.push((label, 1, gap)),
            }
        }
        self.last = Some(now);
        self.last_t = Some(t);
    }

    fn end(&mut self) {
        if let Some(l) = self.last.take() {
            self.outside_ns += l.elapsed().as_nanos() as f64;
        }
    }

    /// `(events, host ns)` charged to `label`.
    fn get(&self, label: &str) -> (u64, f64) {
        self.labels
            .iter()
            .find(|(l, _, _)| *l == label)
            .map_or((0, 0.0), |&(_, c, ns)| (c, ns))
    }

    fn event_ns(&self) -> f64 {
        self.labels.iter().map(|(_, _, ns)| ns).sum()
    }

    fn events(&self) -> u64 {
        self.labels.iter().map(|(_, c, _)| c).sum()
    }
}
