//! The datacenter workload: N hosts behind one ATM switch, driven
//! through `world`'s study pipeline (cells → `sweep` pool → canonical
//! JSON).

use std::time::{Duration, Instant};

use world::{DcCell, DcCellResult, DcRunResult, DcWorld, PcbStrategy, Topology, TrafficSchedule};

use crate::stats::{median, Digest, Metrics};
use crate::{seconds, Bench, Scale};

/// `dc-incast-1024pcb`: one `repro dc` incast cell per PCB strategy.
pub struct DcWorkload {
    /// The cells one job runs, in `PcbStrategy::ALL` order.
    pub cells: Vec<DcCell>,
}

/// What one job produced.
pub struct DcJob {
    /// Host seconds running the cells through the pool.
    pub run_s: f64,
    /// Host seconds rendering the canonical report.
    pub report_s: f64,
    /// Per-cell results, in grid order.
    pub results: Vec<DcCellResult>,
    /// Digest of the canonical report and every cell's counters.
    pub digest: u64,
}

impl DcWorkload {
    /// 32 clients x 64 connections at fan-in 16 (1024 PCBs per
    /// server), once per PCB strategy.
    #[must_use]
    pub fn incast_1024pcb(seed: u64, scale: Scale) -> DcWorkload {
        match scale {
            Scale::Full => Self::incast(seed, 32, 16, 64),
            Scale::Tiny => Self::incast(seed, 4, 2, 4),
        }
    }

    fn incast(seed: u64, clients: usize, fanin: usize, conns: usize) -> DcWorkload {
        let cells = PcbStrategy::ALL
            .into_iter()
            .map(|strategy| {
                let mut topo = Topology::incast(clients, fanin, conns);
                topo.iterations = 3;
                topo.warmup = 1;
                topo.strategy = strategy;
                let mut cell = DcCell::new(topo, TrafficSchedule::staggered(), 1);
                cell.key = format!("perfbench/{}/s{seed}", cell.key);
                cell
            })
            .collect();
        DcWorkload { cells }
    }

    /// A world of an eighth of the hosts and connections, for the
    /// unmeasured warm-up. It runs on one fixed seed, so set-up does
    /// the same work whatever the workload's seed.
    #[must_use]
    pub fn warm_up(&self) -> DcWorkload {
        let t = &self.cells[0].topo;
        let eighth = |n: usize| n.div_ceil(8);
        Self::incast(
            0,
            eighth(t.clients),
            eighth(t.effective_fanin()),
            eighth(t.conns_per_host),
        )
    }

    /// Client round trips executed per job, warm-up included: the
    /// divisor of every per-RTT work counter.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| {
                (c.topo.clients * c.topo.conns_per_host) as u64
                    * (c.topo.warmup + c.topo.iterations)
            })
            .sum()
    }

    fn report(results: &[DcCellResult]) -> String {
        world::canonical_json("dc-incast-1024pcb", results)
    }

    /// Exact simulated counts of one job, per executed round trip.
    fn add_counters(&self, job: &DcJob, m: &mut Metrics) {
        let executed = self.executed() as f64;
        let sum = |f: &dyn Fn(&DcCellResult) -> u64| job.results.iter().map(f).sum::<u64>() as f64;
        m.add(
            "simkit.events_per_rtt",
            "count",
            sum(&|r| r.events) / executed,
        );
        m.add(
            "atm.cells_per_rtt",
            "count",
            sum(&|r| r.switch_forwarded) / executed,
        );
        m.add(
            "atm.switch.drops_per_rtt",
            "count",
            sum(&|r| r.switch_drops) / executed,
        );
        m.add(
            "tcpip.rexmits_per_rtt",
            "count",
            sum(&|r| r.rexmits) / executed,
        );
        m.add("tcpip.rto_fires", "count", sum(&|r| r.rto_fires));
        m.add(
            "tcpip.pcb.traversed_per_rtt",
            "count",
            sum(&|r| r.server_pcb.traversed) / executed,
        );
        for (c, r) in self.cells.iter().zip(&job.results) {
            let name = format!("tcpip.pcb.{}.traversed_per_lookup", c.topo.strategy.tag());
            m.add(&name, "count", r.search_len());
        }
        let bytes: usize = job.results.iter().map(|r| r.rtts.memory_bytes()).sum();
        m.add("simcap.recorder.bytes", "B", bytes as f64);
    }
}

impl Bench for DcWorkload {
    type Job = DcJob;

    /// One timed job: the cells through the `sweep` pool on one
    /// worker, then the canonical report.
    fn run_job(&self) -> DcJob {
        let start = Instant::now();
        let results = world::run_dc_cells(&self.cells, 1);
        let run_s = seconds(start);
        let start = Instant::now();
        let report = Self::report(&results);
        let report_s = seconds(start);
        let mut d = Digest::default();
        d.bytes(report.as_bytes());
        d.u64(summary_digest(results.iter().map(Summary::of_cell)));
        DcJob {
            run_s,
            report_s,
            results,
            digest: d.value(),
        }
    }

    fn wall(job: &DcJob) -> f64 {
        job.run_s + job.report_s
    }

    fn digest(job: &DcJob) -> u64 {
        job.digest
    }

    /// The world has no Table 1 row.
    fn paper_err(&self, _: &DcJob) -> Option<f64> {
        None
    }

    /// Measured RPCs attempted per job: every client connection's
    /// measured iterations.
    fn attempted(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| (c.topo.clients * c.topo.conns_per_host) as u64 * c.topo.iterations)
            .sum()
    }

    /// Failed RPCs of a job: RPCs that never completed plus payload
    /// verification failures.
    fn failed(&self, job: &DcJob) -> u64 {
        let verify: u64 = job.results.iter().map(|r| r.verify_failures).sum();
        let attempted = self.attempted();
        (attempted - self.rtts(job).min(attempted) + verify).min(attempted)
    }

    /// Measured RTT samples of a job.
    fn rtts(&self, job: &DcJob) -> u64 {
        job.results.iter().map(|r| r.rtts.len() as u64).sum()
    }

    /// The output checks: every measured RPC completed and verified,
    /// no connection aborted, no mbuf leaked.
    ///
    /// # Errors
    ///
    /// A description of the first check that failed.
    fn check(&self, job: &DcJob, _: &mut Metrics) -> Result<(), String> {
        for (c, r) in self.cells.iter().zip(&job.results) {
            if r.verify_failures != 0 || r.aborted_conns != 0 || r.mbufs_leaked != 0 {
                return Err(format!(
                    "{}: {} verify failures, {} aborted connections, {} leaked mbufs",
                    r.key, r.verify_failures, r.aborted_conns, r.mbufs_leaked
                ));
            }
            let want = (c.topo.clients * c.topo.conns_per_host) as u64 * c.topo.iterations;
            if r.rtts.len() as u64 != want {
                return Err(format!("{}: {} of {want} RTT samples", r.key, r.rtts.len()));
            }
        }
        Ok(())
    }

    /// The traced measurement, repeated for `budget`: an untraced
    /// pool job, then every cell again with `world::run_dc` called
    /// directly and the world build timed on its own. Both must
    /// simulate the same counters. Adds every per-layer metric this
    /// workload measures and returns the untraced jobs.
    ///
    /// # Errors
    ///
    /// A description of the first output check that failed.
    fn trace(&self, budget: Duration, m: &mut Metrics) -> Result<Vec<DcJob>, String> {
        let start = Instant::now();
        let mut jobs = Vec::new();
        while jobs.is_empty() || start.elapsed() < budget {
            let job = self.run_job();
            let (mut build_s, mut direct_s) = (0.0, 0.0);
            let mut direct = Vec::new();
            for c in &self.cells {
                let seed = world::rep_seed(&c.key, 0);
                let t = Instant::now();
                let w = DcWorld::new(c.topo.clone(), c.sched, seed);
                build_s += seconds(t);
                drop(w);
                let t = Instant::now();
                let r = world::run_dc(&c.topo, c.sched, seed);
                direct_s += seconds(t);
                direct.push(r);
            }
            let same = summary_digest(direct.iter().map(Summary::of_run))
                == summary_digest(job.results.iter().map(Summary::of_cell));
            if !same {
                return Err("direct and pooled runs simulated different results".into());
            }
            let events: u64 = job.results.iter().map(|r| r.events).sum();
            m.add(
                "simkit.ns_per_event",
                "ns",
                (direct_s - build_s) * 1e9 / events as f64,
            );
            m.add(
                "sweep.pool_overhead_frac",
                "ratio",
                job.run_s / direct_s - 1.0,
            );
            m.add(
                "world.run_dc_s_per_cell",
                "s",
                job.run_s / self.cells.len() as f64,
            );
            let report: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(Self::report(&job.results));
                    seconds(t)
                })
                .collect();
            m.add("world.report_s", "s", median(&report));
            jobs.push(job);
        }
        self.add_counters(&jobs[0], m);
        Ok(jobs)
    }
}

/// The simulated counters both `DcCellResult` and `DcRunResult` carry.
struct Summary([u64; 12]);

impl Summary {
    fn of_cell(r: &DcCellResult) -> Summary {
        Summary([
            r.rtts.len() as u64,
            r.events,
            r.sim_time.as_ns(),
            r.verify_failures,
            r.aborted_conns,
            r.server_pcb.lookups,
            r.server_pcb.traversed,
            r.switch_forwarded,
            r.switch_drops,
            r.rexmits,
            r.rto_fires,
            r.mbufs_leaked,
        ])
    }

    fn of_run(r: &DcRunResult) -> Summary {
        Summary([
            r.rtts.len() as u64,
            r.events,
            r.sim_time.as_ns(),
            r.verify_failures,
            r.aborted_conns,
            r.server_pcb.lookups,
            r.server_pcb.traversed,
            r.switch_forwarded,
            r.switch_drops,
            r.rexmits,
            r.rto_fires,
            r.mbufs_leaked,
        ])
    }
}

fn summary_digest(summaries: impl Iterator<Item = Summary>) -> u64 {
    let mut d = Digest::default();
    for s in summaries {
        for v in s.0 {
            d.u64(v);
        }
    }
    d.value()
}
