//! The world studies — `repro dc`, `tails`, `hedge` and `cc` — as one
//! pipeline: declare cells → [`run_dc_cells`] → one canonical writer.
//!
//! `repro dc` sweeps hosts x connections x PCB strategy x incast
//! fan-in; `repro tails` sweeps fan-out width x fault scenario x
//! background churn over the fan-out/wait-for-all world; `repro hedge`
//! prices tail mitigations at fan-out 16; `repro cc` crosses
//! congestion-control variants with UBR drop policies. Each is one
//! [`Study`] in [`STUDIES`]: it names its grid, picks the sample set
//! its report summarizes, and adds its own fields, table and failure
//! condition. Everything else is shared, including the fan-out
//! reduction behind `tails` and `hedge`: one row type, one `reduce`
//! and one `amplify` whose baseline each study picks.
//!
//! Each grid cell is one [`Topology`] + [`TrafficSchedule`] pair; its
//! seed derives from the cell *key* (not its position), so adding or
//! reordering cells never changes any other cell's bytes, and cells
//! run under `sweep::pool::run_ordered` so the report is
//! byte-identical at any `--jobs` value. The canonical JSON goes
//! through `sweep::report`'s one cell writer, so the oracle's report
//! parser and the golden comparator work on it unchanged (a study's
//! extra per-cell fields follow `verify_failures`; the parser carries
//! them as extras and the comparator checks them pairwise).
//!
//! Repetition seeding: rep 0 runs on the key-derived base seed (so
//! single-rep grids — every golden — are untouched), and rep `r > 0`
//! folds the rep into the key hash (`cell_seed("<key>/r<r>")`).
//! The older `seed + rep` derivation could collide with an adjacent
//! cell's base seed, silently correlating cells that must be
//! independent.

use std::fmt::Write as _;

use atm::{DropPolicy, TrainMarking};
use faultkit::{FaultSchedule, FlapSchedule, GilbertElliott, PauseSchedule};
use latency_core::recovery::Scenario;
use latency_core::{ObsMode, Samples};
use simcap::Quantiles as _;
use simkit::SimTime;
pub use sweep::report::Field;
use sweep::report::{json_num, ReportCell};
use tcpip::{CcVariant, PcbCounters};

use crate::dc::{run_dc, MitigationCost};
use crate::topology::{
    ChurnTraffic, HedgePolicy, PcbStrategy, RetryPolicy, TailPolicy, Topology, TrafficSchedule,
};

/// One grid cell: a named, self-contained world description.
pub struct DcCell {
    /// The cell key; also the seed source via [`sweep::cell_seed`].
    pub key: String,
    /// The world.
    pub topo: Topology,
    /// The traffic schedule.
    pub sched: TrafficSchedule,
    /// Repetitions pooled into one sample set. Rep 0 runs on the
    /// key-derived base seed; rep `r > 0` runs on
    /// `cell_seed("<key>/r<r>")`, independent of every cell's base
    /// seed by construction.
    pub reps: u64,
}

impl DcCell {
    /// Builds a cell and derives its key from the topology axes.
    #[must_use]
    pub fn new(topo: Topology, sched: TrafficSchedule, reps: u64) -> DcCell {
        let key = format!(
            "dc/h{}/c{}/{}/f{}/i{}r{}",
            topo.clients,
            topo.conns_per_host,
            topo.strategy.tag(),
            topo.effective_fanin(),
            topo.iterations,
            reps,
        );
        DcCell {
            key,
            topo,
            sched,
            reps,
        }
    }
}

/// One cell's pooled outcome.
pub struct DcCellResult {
    /// The cell key.
    pub key: String,
    /// The key-derived base seed.
    pub seed: u64,
    /// Repetitions pooled.
    pub reps: u64,
    /// Every measured RPC round-trip, in (rep, client host,
    /// connection, iteration) order — exact by default, a bounded
    /// sketch under [`ObsMode::Sketch`].
    pub rtts: Samples,
    /// Events executed, summed over reps.
    pub events: u64,
    /// Final simulated time (max over reps).
    pub sim_time: SimTime,
    /// Payload verification failures, summed.
    pub verify_failures: u64,
    /// Aborted connections, summed.
    pub aborted_conns: u64,
    /// Server-side PCB lookup counters, summed.
    pub server_pcb: PcbCounters,
    /// Switch cells forwarded, summed.
    pub switch_forwarded: u64,
    /// Switch tail drops, summed.
    pub switch_drops: u64,
    /// Cells discarded by Early Packet Discard, summed.
    pub epd_drops: u64,
    /// Cells discarded by Partial Packet Discard, summed.
    pub ppd_drops: u64,
    /// Largest output-queue backlog seen (max over reps).
    pub max_backlog_cells: usize,
    /// Segments retransmitted (RTO + fast), summed over hosts and reps.
    pub rexmits: u64,
    /// Retransmission timeouts fired, summed over hosts and reps.
    pub rto_fires: u64,
    /// Fan-out logical-request completions (max over each round's N
    /// sub-request RTTs, or the tail policy's K-th-fastest capped by
    /// the deadline), pooled across reps. Empty for incast cells.
    pub completions: Samples,
    /// Client hosts whose fan-out rounds were killed by the
    /// retransmit-limit abort, summed over reps.
    pub fanout_aborts: u64,
    /// Mbufs still outstanding after world teardown, summed over reps
    /// (must be zero: cancelled and hedged requests may not leak).
    pub mbufs_leaked: u64,
    /// Tail-mitigation cost counters, summed over reps. All zero for
    /// unmitigated cells.
    pub cost: MitigationCost,
}

impl DcCellResult {
    /// Mean traversed entries per server-side lookup.
    #[must_use]
    pub fn search_len(&self) -> f64 {
        self.server_pcb.search_len()
    }

    /// Server-side single-entry-cache hit rate (0 with the cache off).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.server_pcb.cache_hit_rate()
    }
}

impl AsRef<DcCell> for DcCell {
    fn as_ref(&self) -> &DcCell {
        self
    }
}

/// One study cell: a world cell plus the labels its topology cannot
/// carry. Everything else a study reports about a cell (fan-out width,
/// churn, congestion-control variant, drop policy, buffer size) is
/// read back from `cell.topo`.
pub struct StudyCell {
    /// The world cell (key, topology, schedule, reps).
    pub cell: DcCell,
    /// Fault-scenario name (`tails`, `hedge`); empty for `dc` and `cc`.
    pub scenario: String,
    /// The hedge study's tail mitigation; [`Mitigation::None`] for
    /// every other study.
    pub mitigation: Mitigation,
}

impl StudyCell {
    /// A cell that carries no label beyond its topology.
    fn plain(cell: DcCell) -> StudyCell {
        StudyCell {
            cell,
            scenario: String::new(),
            mitigation: Mitigation::None,
        }
    }
}

impl AsRef<DcCell> for StudyCell {
    fn as_ref(&self) -> &DcCell {
        &self.cell
    }
}

/// One world study: what differs between `repro dc`, `tails`, `hedge`
/// and `cc`. Running the grid, writing the canonical report, the
/// shared failure check and golden verification are common to all.
pub trait Study: Sync {
    /// The subcommand name, also the stem of the report name.
    fn name(&self) -> &'static str;

    /// The full grid, or the `--quick` grid (CI and golden scale).
    fn grid(&self, quick: bool) -> Vec<StudyCell>;

    /// The sample set the canonical prefix summarizes: RPC round trips
    /// unless the study measures fan-out completions.
    fn samples<'r>(&self, r: &'r DcCellResult) -> &'r Samples {
        &r.rtts
    }

    /// The fields each cell appends after `verify_failures`, one list
    /// per cell in grid order (empty: no extra fields).
    fn extra_fields(&self, _cells: &[StudyCell], _results: &[DcCellResult]) -> Vec<Vec<Field>> {
        Vec::new()
    }

    /// The printed table.
    fn table(&self, cells: &[StudyCell], results: &[DcCellResult]) -> String;

    /// A failure condition beyond the shared one of [`Study::failed`].
    fn extra_failure(&self, _r: &DcCellResult) -> bool {
        false
    }

    /// The report name: `<name>_quick` for the quick grid (the golden
    /// file stem), `<name>` for the full one.
    fn report_name(&self, quick: bool) -> String {
        if quick {
            format!("{}_quick", self.name())
        } else {
            self.name().to_string()
        }
    }

    /// Whether a cell failed: payload verify failures, leaked mbufs, or
    /// no samples without an abort — plus [`Study::extra_failure`].
    fn failed(&self, r: &DcCellResult) -> bool {
        r.verify_failures > 0
            || r.mbufs_leaked > 0
            || (self.samples(r).is_empty() && r.fanout_aborts == 0)
            || self.extra_failure(r)
    }

    /// The deterministic report: the `sweep.json` cell schema over
    /// [`Study::samples`], then [`Study::extra_fields`].
    fn report_json(&self, name: &str, cells: &[StudyCell], results: &[DcCellResult]) -> String {
        let extras = self.extra_fields(cells, results);
        sweep::report::canonical_report(
            name,
            results.iter().enumerate().map(|(i, r)| {
                report_cell(r, self.samples(r), extras.get(i).map_or(&[], Vec::as_slice))
            }),
        )
    }
}

/// Every world study, in the order `repro verify` gates their goldens.
pub static STUDIES: [&dyn Study; 4] = [&DcStudy, &TailsStudy, &HedgeStudy, &CcStudy];

/// The study whose subcommand is `name`.
#[must_use]
pub fn study(name: &str) -> Option<&'static dyn Study> {
    STUDIES.iter().copied().find(|s| s.name() == name)
}

/// The seed for repetition `rep` of the cell named `key`.
///
/// Rep 0 is the base seed itself — single-rep grids (every golden)
/// see exactly the bytes they always did. Higher reps fold the rep
/// number into the key *hash* rather than adding it to the seed: the
/// old `base + rep` walk could land on a neighboring cell's base seed
/// (cell seeds are only 32 bits of FNV output), silently correlating
/// cells the grid treats as independent.
#[must_use]
pub fn rep_seed(key: &str, rep: u64) -> u64 {
    let base = sweep::cell_seed(key);
    if rep == 0 {
        base
    } else {
        sweep::cell_seed(&format!("{key}/r{rep}"))
    }
}

/// Runs one cell: every rep on its [`rep_seed`], outcomes pooled
/// into `mode`-appropriate containers.
fn run_one_cell(cell: &DcCell, mode: ObsMode) -> DcCellResult {
    let reps = cell.reps.max(1);
    let mut acc = DcCellResult {
        key: cell.key.clone(),
        seed: sweep::cell_seed(&cell.key),
        reps,
        rtts: Samples::new(mode),
        events: 0,
        sim_time: SimTime::ZERO,
        verify_failures: 0,
        aborted_conns: 0,
        server_pcb: PcbCounters::default(),
        switch_forwarded: 0,
        switch_drops: 0,
        epd_drops: 0,
        ppd_drops: 0,
        max_backlog_cells: 0,
        rexmits: 0,
        rto_fires: 0,
        completions: Samples::new(mode),
        fanout_aborts: 0,
        mbufs_leaked: 0,
        cost: MitigationCost::default(),
    };
    for rep in 0..reps {
        let r = run_dc(&cell.topo, cell.sched, rep_seed(&cell.key, rep));
        acc.rtts.extend_from(&r.rtts);
        acc.events += r.events;
        acc.sim_time = acc.sim_time.max(r.sim_time);
        acc.verify_failures += r.verify_failures;
        acc.aborted_conns += r.aborted_conns;
        acc.server_pcb += r.server_pcb;
        acc.switch_forwarded += r.switch_forwarded;
        acc.switch_drops += r.switch_drops;
        acc.epd_drops += r.epd_drops;
        acc.ppd_drops += r.ppd_drops;
        acc.max_backlog_cells = acc.max_backlog_cells.max(r.max_backlog_cells);
        acc.rexmits += r.rexmits;
        acc.rto_fires += r.rto_fires;
        acc.completions.extend_from(&r.completions);
        acc.fanout_aborts += r.fanout_aborts;
        acc.mbufs_leaked += r.mbufs_leaked;
        acc.cost += r.cost;
    }
    acc
}

/// Runs a grid on up to `jobs` workers; results come back in grid
/// order regardless of scheduling, so downstream reports are
/// byte-identical at any worker count.
#[must_use]
pub fn run_dc_cells<C: AsRef<DcCell> + Sync>(cells: &[C], jobs: usize) -> Vec<DcCellResult> {
    run_dc_cells_with(cells, jobs, ObsMode::Exact)
}

/// [`run_dc_cells`] with an explicit retention mode (`--sketch` passes
/// [`ObsMode::Sketch`]); the grid-order pool keeps either mode
/// byte-identical at any `--jobs` value.
#[must_use]
pub fn run_dc_cells_with<C: AsRef<DcCell> + Sync>(
    cells: &[C],
    jobs: usize,
    mode: ObsMode,
) -> Vec<DcCellResult> {
    sweep::pool::run_ordered(cells, jobs, move |_, cell| {
        run_one_cell(cell.as_ref(), mode)
    })
}

/// The `repro dc` report: the `sweep.json` cell schema over RPC round
/// trips, with no extra fields.
#[must_use]
pub fn canonical_json(name: &str, results: &[DcCellResult]) -> String {
    sweep::report::canonical_report(name, results.iter().map(|r| report_cell(r, &r.rtts, &[])))
}

/// One cell of the shared `sweep.json` schema, its statistics taken
/// over `samples`.
fn report_cell<'a>(r: &'a DcCellResult, samples: &Samples, extras: &'a [Field]) -> ReportCell<'a> {
    ReportCell {
        key: &r.key,
        seed: r.seed,
        reps: r.reps,
        samples: samples.len(),
        mean_us: samples.mean_us(),
        stddev_us: samples.stddev_us(),
        min_us: samples.min_us(),
        max_us: samples.max_us(),
        events: r.events,
        sim_time: r.sim_time,
        verify_failures: r.verify_failures,
        extras,
    }
}

/// A JSON number, or `null` for an honestly unavailable statistic
/// (under-sampled p999, missing amplification baseline).
fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_num)
}

/// A right-aligned table column, `-` for an unavailable statistic.
fn opt_col(v: Option<f64>, width: usize, prec: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.prec$}"),
        None => format!("{:>width$}", "-"),
    }
}

/// A world cell on the staggered schedule.
fn staggered(key: String, topo: Topology, reps: u64) -> DcCell {
    DcCell {
        key,
        topo,
        sched: TrafficSchedule::staggered(),
        reps,
    }
}

/// How deep a fan-out family runs: clients, measured rounds, warm-up
/// rounds and repetitions.
#[derive(Clone, Copy)]
struct Depth {
    clients: usize,
    iterations: u64,
    warmup: u64,
    reps: u64,
}

impl Depth {
    const fn new(clients: usize, iterations: u64, warmup: u64, reps: u64) -> Depth {
        Depth {
            clients,
            iterations,
            warmup,
            reps,
        }
    }
}

/// The depth of the `+reno` re-runs: shallower than the base families
/// (60 rounds, one rep), because the column of interest is the p99
/// shift under cwnd dynamics, not a p999 floor.
const RENO_DEPTH: Depth = Depth::new(4, 60, 2, 1);

/// One fan-out cell of the tails or hedge family under `sc`'s faults.
///
/// The story is "a server hiccups", not "the whole fabric is broken":
/// clients stay clean, so every tail in the data came from the remote
/// side. Under `reno` the cell runs the cc-study transport — cold-start
/// Reno over the classical-IP MTU with 16 kB sub-requests, so the
/// congestion window actually binds — and its scenario is labelled
/// `<name>+reno`. The base worlds move 200-byte single-segment
/// sub-requests; cwnd never constrains one segment, so arming a
/// variant there would change nothing. `key` builds the cell key from
/// the scenario label and the depth tag `i<rounds>r<reps>`.
fn fanout_cell(
    sc: &Scenario,
    reno: bool,
    width: usize,
    depth: Depth,
    key: impl FnOnce(&str, &str) -> String,
) -> StudyCell {
    let mut topo = Topology::fanout(depth.clients, width);
    topo.iterations = depth.iterations;
    topo.warmup = depth.warmup;
    if !sc.faults.is_clean() {
        topo.faults = Some(sc.faults);
    }
    if reno {
        topo.mtu = 1500;
        topo.rpc_size = 16_000;
        topo.stack.cc = CcVariant::Reno;
        topo.stack.initial_cwnd_segs = Some(2);
    }
    let scenario = format!("{}{}", sc.name, if reno { "+reno" } else { "" });
    let key = key(&scenario, &format!("i{}r{}", depth.iterations, depth.reps));
    StudyCell {
        cell: staggered(key, topo, depth.reps),
        scenario,
        mitigation: Mitigation::None,
    }
}

/// `repro dc`: the switch-centered datacenter study. Sweeps client
/// hosts x connections/host x PCB lookup strategy x incast fan-in,
/// reporting per-cell RTT distributions next to the server-side PCB
/// counters the paper's §3 cost model predicts. An aborted connection
/// fails the run.
pub struct DcStudy;

/// Builds the dc grid from explicit axes.
fn dc_cells(
    clients: &[usize],
    conns: &[usize],
    fanins: &[usize],
    iterations: u64,
    reps: u64,
) -> Vec<DcCell> {
    let mut cells = Vec::new();
    for &h in clients {
        for &c in conns {
            for strat in PcbStrategy::ALL {
                for &f in fanins {
                    let mut topo = Topology::incast(h, f, c);
                    topo.iterations = iterations;
                    topo.warmup = 1;
                    topo.strategy = strat;
                    let cell = DcCell::new(topo, TrafficSchedule::staggered(), reps);
                    if cells.iter().all(|x: &DcCell| x.key != cell.key) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

impl Study for DcStudy {
    fn name(&self) -> &'static str {
        "dc"
    }

    /// Full: hosts {2, 32, 256} x connections/host {1, 64} x all three
    /// strategies x fan-in {1, 16}. Quick: hosts {2, 8} x
    /// connections/host {1, 16} x all three strategies x fan-in {1, 4}.
    fn grid(&self, quick: bool) -> Vec<StudyCell> {
        let cells = if quick {
            dc_cells(&[2, 8], &[1, 16], &[1, 4], 2, 1)
        } else {
            dc_cells(&[2, 32, 256], &[1, 64], &[1, 16], 3, 1)
        };
        cells.into_iter().map(StudyCell::plain).collect()
    }

    /// One row per cell, then the §3 ordering made visible: per
    /// (clients, conns, fan-in) group, the mean server-side search
    /// length under each strategy. The single-entry cache's list
    /// degrades as the PCB table grows; the hash table stays flat.
    fn table(&self, cells: &[StudyCell], results: &[DcCellResult]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>8}",
            "cell", "samples", "mean_us", "p50_us", "p99_us", "search", "hit%", "drops", "backlog"
        );
        for r in results {
            let rec = r.rtts.recorder();
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>7.2} {:>6.1} {:>6} {:>8}",
                r.key.trim_start_matches("dc/"),
                r.rtts.len(),
                rec.mean_us(),
                percentile_us(&rec, 50.0),
                percentile_us(&rec, 99.0),
                r.search_len(),
                r.cache_hit_rate() * 100.0,
                r.switch_drops,
                r.max_backlog_cells
            );
        }
        let group = |t: &Topology| (t.clients, t.conns_per_host, t.effective_fanin());
        let groups: std::collections::BTreeSet<_> =
            cells.iter().map(|c| group(&c.cell.topo)).collect();
        out.push_str("\nserver-side mean search length by strategy (PCB lookup, §3):\n");
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>8} {:>8}",
            "clients x conns x fanin", "mtf", "cache", "hash"
        );
        for (h, c, f) in groups {
            let of = |strategy: PcbStrategy| {
                cells
                    .iter()
                    .zip(results)
                    .find(|(x, _)| {
                        group(&x.cell.topo) == (h, c, f) && x.cell.topo.strategy == strategy
                    })
                    .map_or(f64::NAN, |(_, r)| r.search_len())
            };
            let [mtf, cache, hash] = PcbStrategy::ALL.map(of);
            let _ = writeln!(
                out,
                "h{h:<4} c{c:<4} f{f:<6} {mtf:>8.2} {cache:>8.2} {hash:>8.2}"
            );
        }
        out
    }

    fn extra_failure(&self, r: &DcCellResult) -> bool {
        r.aborted_conns > 0
    }
}

/// The tails study's fault regimes, clean baseline first.
///
/// Order is part of the report: tables and canonical JSON render in
/// this order. Names are stable sweep-key components.
fn tails_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            blurb: "no injected faults (tail from contention alone)",
            faults: FaultSchedule::default(),
        },
        Scenario {
            name: "burst-loss",
            blurb: "rare short cell-loss bursts (GE light) on server uplinks",
            faults: FaultSchedule::default().with_atm_loss(GilbertElliott::light_bursts()),
        },
        Scenario {
            name: "fifo-overrun",
            blurb: "8-cell server RX FIFO + 12-cell drain stalls",
            faults: FaultSchedule::default()
                .with_rx_fifo_cells(8)
                .with_rx_contention(0.002, 12),
        },
        Scenario {
            name: "mbuf-exhaustion",
            blurb: "server pools sized below the incast burst: ENOBUFS sheds",
            faults: FaultSchedule::default().with_mbuf_limit(12),
        },
    ]
}

/// The hedge study's fault regimes: the tails study's `clean` and
/// `burst-loss`, then host pauses and link flaps.
///
/// The pause and flap schedules are pure time functions (no RNG):
/// their windows land identically in every cell, so mitigation columns
/// differ only by the mitigation.
fn hedge_scenarios() -> Vec<Scenario> {
    let mut all = tails_scenarios();
    all.truncate(2);
    all.extend([
        Scenario {
            name: "host-pause",
            blurb: "servers stall 3 ms every 25 ms (GC-style pause windows)",
            faults: FaultSchedule::default().with_host_pause(PauseSchedule::new(
                SimTime::from_ms(1),
                SimTime::from_ms(25),
                SimTime::from_ms(3),
            )),
        },
        Scenario {
            name: "link-flap",
            blurb: "server uplinks drop everything 2 ms every 30 ms",
            faults: FaultSchedule::default().with_link_flap(FlapSchedule::new(
                SimTime::from_us(500),
                SimTime::from_ms(30),
                SimTime::from_ms(2),
            )),
        },
    ]);
    all
}

/// One fan-out cell of the tails or hedge study, reduced to its
/// completion-time columns.
///
/// Percentile hygiene matters more here than anywhere else in the
/// repo: p999 is `None` (rendered `-`, JSON `null`) below `simcap`'s
/// minimum sample floor rather than a number that just repeats the
/// max.
struct FanoutRow<'c> {
    /// The cell: scenario, mitigation, fan-out width and churn.
    cell: &'c StudyCell,
    /// Measured logical-request completions.
    samples: u64,
    /// Client hosts whose fan-out round was aborted by the retransmit
    /// limit (their remaining rounds are missing from `samples`).
    aborted: u64,
    /// Mean completion in µs.
    mean_us: f64,
    /// Median completion in µs.
    p50_us: f64,
    /// 99th-percentile completion in µs.
    p99_us: f64,
    /// 99.9th-percentile completion in µs; `None` when the cell holds
    /// fewer than [`simcap::P999_MIN_SAMPLES`] samples (nearest-rank
    /// p999 would just repeat the max).
    p999_us: Option<f64>,
    /// Worst completion in µs.
    max_us: f64,
    /// `p50 / p50(baseline)`; `None` until [`amplify`] runs or when
    /// the baseline is missing or degenerate.
    amp_p50: Option<f64>,
    /// `p99 / p99(baseline)` — the tail-amplification ratio.
    amp_p99: Option<f64>,
    /// The mitigation's cost counters.
    cost: MitigationCost,
}

impl<'c> FanoutRow<'c> {
    /// The cell's world: fan-out width and churn.
    fn topo(&self) -> &'c Topology {
        &self.cell.cell.topo
    }

    /// The amplification group: scenario label x churn.
    fn group(&self) -> (&'c str, bool) {
        (&self.cell.scenario, self.topo().churn.is_some())
    }

    /// The completion percentiles both fan-out reports carry; `null`
    /// marks an honestly unavailable statistic and must match as
    /// `null`.
    fn percentile_fields(&self) -> Vec<Field> {
        let sampled = self.samples > 0;
        vec![
            ("p50_us", opt_num(sampled.then_some(self.p50_us))),
            ("p99_us", opt_num(sampled.then_some(self.p99_us))),
            ("p999_us", opt_num(self.p999_us)),
        ]
    }
}

/// Nanoseconds as the µs every study table and report prints.
fn us(ns: i64) -> f64 {
    ns as f64 / 1_000.0
}

/// The `p`-th percentile of `rec` in µs; 0 when `rec` is empty.
fn percentile_us(rec: &simcap::Recorder, p: f64) -> f64 {
    us(rec.percentile_ns(p).unwrap_or(0))
}

/// Reduces one cell's completion times to a row. The amplification
/// columns start `None`; [`amplify`] fills them once every row of the
/// study exists.
fn reduce<'c>(
    cell: &'c StudyCell,
    completions: &Samples,
    aborted: u64,
    cost: MitigationCost,
) -> FanoutRow<'c> {
    let rec = completions.recorder();
    FanoutRow {
        cell,
        samples: completions.len() as u64,
        aborted,
        mean_us: rec.mean_us(),
        p50_us: percentile_us(&rec, 50.0),
        p99_us: percentile_us(&rec, 99.0),
        p999_us: rec.p999_ns().map(us),
        max_us: us(rec.max_ns().unwrap_or(0)),
        amp_p50: None,
        amp_p99: None,
        cost,
    }
}

/// Fills the amplification columns: each row is divided by the
/// baseline of its scenario x churn group, the first sampled row there
/// that `is_base` accepts (tails: fan-out 1; hedge, whose cells never
/// carry churn: no mitigation).
///
/// A row with no baseline (the group has none, or the baseline
/// percentile is zero or itself unsampled) keeps `None` — rendered as
/// `-` / JSON `null` rather than a made-up ratio.
fn amplify(rows: &mut [FanoutRow<'_>], is_base: impl Fn(&FanoutRow<'_>) -> bool) {
    let bases: Vec<_> = rows
        .iter()
        .filter(|r| r.samples > 0 && is_base(r))
        .map(|r| (r.group(), r.p50_us, r.p99_us))
        .collect();
    for row in rows.iter_mut().filter(|r| r.samples > 0) {
        if let Some(&(_, b50, b99)) = bases.iter().find(|(g, _, _)| *g == row.group()) {
            row.amp_p50 = (b50 > 0.0).then(|| row.p50_us / b50);
            row.amp_p99 = (b99 > 0.0).then(|| row.p99_us / b99);
        }
    }
}

/// Reduces a fan-out study's results to rows, amplification filled in
/// against the baselines `is_base` picks.
fn fanout_rows<'c>(
    cells: &'c [StudyCell],
    results: &[DcCellResult],
    is_base: impl Fn(&FanoutRow<'_>) -> bool,
) -> Vec<FanoutRow<'c>> {
    assert_eq!(
        cells.len(),
        results.len(),
        "rows require one result per cell"
    );
    let mut rows: Vec<_> = cells
        .iter()
        .zip(results)
        .map(|(c, r)| reduce(c, &r.completions, r.fanout_aborts, r.cost))
        .collect();
    amplify(&mut rows, is_base);
    rows
}

/// `repro tails`: the fan-out/wait-for-all completion-tail study.
///
/// The paper's tables price one round trip between two hosts; modern
/// datacenter services price the *slowest of N*. A client that fans a
/// logical request out to N servers and waits for every reply turns a
/// rare per-server hiccup into a common per-request one: if a single
/// sub-request lands in the slow tail with probability `p`, the
/// logical request does with probability `1 - (1 - p)^N`. At N = 64 a
/// 1-in-100 hiccup hits nearly half of all requests — the p99 becomes
/// the p50's problem ("Deconstructing the Tail at Scale Effect",
/// PAPERS.md).
///
/// Each client issues one logical request as N parallel sub-requests to
/// N distinct servers and completes on the slowest reply; the table
/// reports completion p50/p99/p999 and the tail-amplification ratio
/// (p99 at fan-out N over p99 at fan-out 1) per faultkit scenario,
/// with and without background churn traffic. The paper-predicted
/// signature is amplification growing with N while the median stays
/// near flat.
///
/// Retransmit-limit aborts are *data*, not failures: the
/// mbuf-exhaustion regime is expected to kill client rounds, and the
/// table flags such cells with `!`.
pub struct TailsStudy;

/// Builds a tails family: every scenario x every fan-out width x
/// every churn setting.
///
/// The `+reno` family re-runs the headline cells at fan-out {1, 16},
/// churn off. Width 1 rides along as the in-family amplification
/// baseline — `amplify` groups by the scenario label, so
/// `burst-loss+reno/f16` is priced against `burst-loss+reno/f1`, not
/// against the warm-stack cells.
fn tails_cells(widths: &[usize], churns: &[bool], depth: Depth, reno: bool) -> Vec<StudyCell> {
    let mut cells = Vec::new();
    for sc in tails_scenarios() {
        for &w in widths {
            for &churn in churns {
                let solo = if churn { "churn" } else { "solo" };
                let mut c = fanout_cell(&sc, reno, w, depth, |label, d| {
                    format!("tails/{label}/f{w}/{solo}/{d}")
                });
                if churn {
                    c.cell.topo.churn = Some(ChurnTraffic::background());
                }
                cells.push(c);
            }
        }
    }
    cells
}

impl TailsStudy {
    /// The study's rows, each amplified against the fan-out-1 cell of
    /// its scenario x churn group.
    fn rows<'c>(cells: &'c [StudyCell], results: &[DcCellResult]) -> Vec<FanoutRow<'c>> {
        fanout_rows(cells, results, |r| r.topo().fanout_width == 1)
    }
}

impl Study for TailsStudy {
    fn name(&self) -> &'static str {
        "tails"
    }

    /// Full: fan-out {1, 4, 16, 64} x all four scenarios x churn {off,
    /// on}, sized so every un-aborted cell clears the p999 sample
    /// floor three times over (4 clients x 250 measured rounds x 3
    /// reps = 3000 completions — a p99 estimate stable enough for the
    /// amplification ratio to be trusted), plus the `+reno` headline
    /// re-runs (cold-start Reno, see `fanout_cell`). Quick: fan-out
    /// {1, 4, 16} x all four scenarios x churn {off, on}, 2 clients x
    /// 6 measured rounds; its p999 column is honestly `null`
    /// throughout.
    fn grid(&self, quick: bool) -> Vec<StudyCell> {
        let both = [false, true];
        if quick {
            return tails_cells(&[1, 4, 16], &both, Depth::new(2, 6, 1, 1), false);
        }
        let mut cells = tails_cells(&[1, 4, 16, 64], &both, Depth::new(4, 250, 2, 3), false);
        cells.extend(tails_cells(&[1, 16], &[false], RENO_DEPTH, true));
        cells
    }

    fn samples<'r>(&self, r: &'r DcCellResult) -> &'r Samples {
        &r.completions
    }

    /// Completion percentiles, amplification and aborts.
    fn extra_fields(&self, cells: &[StudyCell], results: &[DcCellResult]) -> Vec<Vec<Field>> {
        TailsStudy::rows(cells, results)
            .iter()
            .map(|row| {
                let mut fields = row.percentile_fields();
                fields.extend([
                    ("amp_p50", opt_num(row.amp_p50)),
                    ("amp_p99", opt_num(row.amp_p99)),
                    ("fanout_aborts", row.aborted.to_string()),
                ]);
                fields
            })
            .collect()
    }

    fn table(&self, cells: &[StudyCell], results: &[DcCellResult]) -> String {
        tails_table(&TailsStudy::rows(cells, results))
    }
}

/// The tails table, one row per scenario x fan-out x churn cell, in
/// the given order.
fn tails_table(rows: &[FanoutRow<'_>]) -> String {
    let mut out = String::from(
        "tail at scale (fan-out/wait-for-all RPC over the switched ATM\n\
         fabric): completion time = max over N parallel sub-requests\n",
    );
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>5}",
        "scenario",
        "N",
        "churn",
        "mean(us)",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "worst(us)",
        "amp(p50)",
        "amp(p99)",
        "n"
    );
    for r in rows {
        let churn = if r.topo().churn.is_some() {
            "on"
        } else {
            "off"
        };
        let (scenario, width) = (&r.cell.scenario, r.topo().fanout_width);
        if r.samples == 0 {
            let _ = writeln!(
                out,
                "{scenario:<16} {width:>4} {churn:>6} | {:>9} {:>9} {:>9} {:>9} {:>10} | {:>8} {:>8} | {:>4}!",
                "-", "-", "-", "-", "-", "-", "-", 0,
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{scenario:<16} {width:>4} {churn:>6} | {:>9.0} {:>9.0} {:>9.0} {} {:>10.0} | {} {} | {:>4}{}",
            r.mean_us,
            r.p50_us,
            r.p99_us,
            opt_col(r.p999_us, 9, 0),
            r.max_us,
            opt_col(r.amp_p50, 8, 2),
            opt_col(r.amp_p99, 8, 2),
            r.samples,
            if r.aborted > 0 { "!" } else { "" },
        );
    }
    out.push_str(
        "(p999 '-' = under the 1000-sample nearest-rank floor; '!' =\n\
         some client rounds hit the retransmit-limit abort; amp = ratio\n\
         to the fan-out-1 cell of the same scenario x churn group.)\n",
    );
    out
}

/// One mitigation column of the hedge study, mapped onto a
/// [`TailPolicy`] by [`mitigation_policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mitigation {
    /// Classic wait-for-all: the tails-study baseline.
    None,
    /// A 10 ms request deadline; stragglers cancelled, the outcome
    /// typed `DeadlineExceeded`.
    Deadline,
    /// Budgeted application-level retries (exponential backoff,
    /// key-derived jitter, token-bucket budget).
    Retry,
    /// Hedged requests: reissue the slowest outstanding sub-request
    /// to a replica after the running-p95 delay, take the first reply.
    Hedge,
    /// Hedging plus partial fan-out: the request completes at the
    /// K-th fastest slot (K = N - 2) instead of the slowest.
    HedgeQuorum,
}

/// Every mitigation, in report order (baseline first).
pub const MITIGATIONS: [Mitigation; 5] = [
    Mitigation::None,
    Mitigation::Deadline,
    Mitigation::Retry,
    Mitigation::Hedge,
    Mitigation::HedgeQuorum,
];

impl Mitigation {
    /// Stable sweep-key component.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::Deadline => "deadline",
            Mitigation::Retry => "retry",
            Mitigation::Hedge => "hedge",
            Mitigation::HedgeQuorum => "hedge-kofn",
        }
    }
}

/// `repro hedge`: the tail-tolerant RPC study. The tails study
/// establishes the problem; this one prices the *mitigations* from
/// "The Tail at Scale" (PAPERS.md) against each other. Every cell runs
/// the fan-out-16 world under one fault regime (clean, burst-loss,
/// host pause windows, link flap) and one mitigation (none, deadline,
/// budgeted retries, hedged requests, hedge + first-K-of-N), and the
/// table prices each mitigation's p50/p99/p999 against the
/// unmitigated baseline — `amp(p99) < 1` means the mitigation cut the
/// tail.
///
/// Every mitigation has a cost column, not just a latency column:
/// hedges won vs. wasted, retries issued vs. suppressed by the token
/// bucket, requests that traded completeness for the deadline, and
/// stragglers cancelled past the quorum. A mitigation that "wins" the
/// p99 while wasting most of its hedges or starving its retry budget
/// is visible as such — the study reports the trade, not a verdict.
///
/// Like `repro tails`, retransmit-limit aborts are data (`!` rows);
/// a leaked mbuf after teardown (cancelled and hedged requests must
/// clean up) fails the run like in every study.
pub struct HedgeStudy;

/// Maps a study mitigation onto the world's [`TailPolicy`]; the
/// baseline is the no-op policy, wait-for-all.
#[must_use]
pub fn mitigation_policy(m: Mitigation, width: usize) -> TailPolicy {
    match m {
        Mitigation::None => TailPolicy::default(),
        Mitigation::Deadline => TailPolicy {
            deadline: Some(SimTime::from_ms(10)),
            ..TailPolicy::default()
        },
        Mitigation::Retry => TailPolicy {
            retry: Some(RetryPolicy::default()),
            ..TailPolicy::default()
        },
        Mitigation::Hedge => TailPolicy {
            hedge: Some(HedgePolicy::default()),
            ..TailPolicy::default()
        },
        Mitigation::HedgeQuorum => TailPolicy {
            hedge: Some(HedgePolicy::default()),
            quorum: width.saturating_sub(2).max(1),
            ..TailPolicy::default()
        },
    }
}

/// Builds a hedge family: every scenario x every listed mitigation
/// at fan-out 16.
///
/// The `+reno` family pairs the baseline with the retry mitigation.
/// It targets the retry-storm column: `retries_issued` and `amp_p99`
/// (priced against the in-family `+reno`/`none` baseline) show how
/// slow-start restarts after loss stretch sub-request completions into
/// the retry window.
fn hedge_cells(mitigations: &[Mitigation], depth: Depth, reno: bool) -> Vec<StudyCell> {
    const WIDTH: usize = 16;
    let mut cells = Vec::new();
    for sc in hedge_scenarios() {
        for &m in mitigations {
            let mut c = fanout_cell(&sc, reno, WIDTH, depth, |label, d| {
                format!("hedge/{label}/{}/f{WIDTH}/{d}", m.tag())
            });
            c.cell.topo.tail = mitigation_policy(m, WIDTH);
            c.mitigation = m;
            cells.push(c);
        }
    }
    cells
}

impl HedgeStudy {
    /// The study's rows, each amplified against the no-mitigation cell
    /// of its scenario.
    fn rows<'c>(cells: &'c [StudyCell], results: &[DcCellResult]) -> Vec<FanoutRow<'c>> {
        fanout_rows(cells, results, |r| r.cell.mitigation == Mitigation::None)
    }
}

impl Study for HedgeStudy {
    fn name(&self) -> &'static str {
        "hedge"
    }

    /// Full: all four scenarios x all five mitigations at fan-out 16,
    /// sized to clear the p999 sample floor (4 clients x 150 measured
    /// rounds x 2 reps = 1200 completions per cell), plus the `+reno`
    /// headline re-runs (cold-start Reno, see `fanout_cell`). Quick:
    /// the same 4 x 5 cells at 2 clients x 6 measured rounds; its p999
    /// column is honestly `null`.
    fn grid(&self, quick: bool) -> Vec<StudyCell> {
        if quick {
            return hedge_cells(&MITIGATIONS, Depth::new(2, 6, 1, 1), false);
        }
        let mut cells = hedge_cells(&MITIGATIONS, Depth::new(4, 150, 2, 2), false);
        let renos = [Mitigation::None, Mitigation::Retry];
        cells.extend(hedge_cells(&renos, RENO_DEPTH, true));
        cells
    }

    fn samples<'r>(&self, r: &'r DcCellResult) -> &'r Samples {
        &r.completions
    }

    /// Completion percentiles, amplification (p99 only), and the
    /// mitigation-cost ledger.
    fn extra_fields(&self, cells: &[StudyCell], results: &[DcCellResult]) -> Vec<Vec<Field>> {
        HedgeStudy::rows(cells, results)
            .iter()
            .zip(results)
            .map(|(row, r)| {
                let mut fields = row.percentile_fields();
                fields.extend([
                    ("amp_p99", opt_num(row.amp_p99)),
                    ("hedges_issued", row.cost.hedges_issued.to_string()),
                    ("hedges_won", row.cost.hedges_won.to_string()),
                    ("hedges_wasted", row.cost.hedges_wasted.to_string()),
                    ("retries_issued", row.cost.retries_issued.to_string()),
                    ("budget_exhausted", row.cost.budget_exhausted.to_string()),
                    ("deadline_exceeded", row.cost.deadline_exceeded.to_string()),
                    ("cancelled", row.cost.cancelled.to_string()),
                    ("mbufs_leaked", r.mbufs_leaked.to_string()),
                    ("fanout_aborts", row.aborted.to_string()),
                ]);
                fields
            })
            .collect()
    }

    fn table(&self, cells: &[StudyCell], results: &[DcCellResult]) -> String {
        hedge_table(&HedgeStudy::rows(cells, results))
    }
}

/// The hedge table, one row per scenario x mitigation cell, in the
/// given order.
fn hedge_table(rows: &[FanoutRow<'_>]) -> String {
    let mut out = String::from(
        "tail tolerance (fan-out RPC under mitigation): completion =\n\
         K-th fastest sub-request capped by the deadline, vs. classic\n\
         wait-for-all in the same fault regime\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:<11} {:>4} | {:>8} {:>8} {:>8} {:>8} | {:>8} | {:>11} {:>7} {:>7} {:>5} | {:>5}",
        "scenario",
        "mitigation",
        "N",
        "p50(us)",
        "p99(us)",
        "p999(us)",
        "max(us)",
        "amp(p99)",
        "hedge w/l/i",
        "retry",
        "no-tok",
        "ddl",
        "n"
    );
    for r in rows {
        let (scenario, mitigation) = (&r.cell.scenario, r.cell.mitigation.tag());
        let width = r.topo().fanout_width;
        if r.samples == 0 {
            let _ = writeln!(
                out,
                "{scenario:<12} {mitigation:<11} {width:>4} | {:>8} {:>8} {:>8} {:>8} | {:>8} | {:>11} {:>7} {:>7} {:>5} | {:>4}!",
                "-", "-", "-", "-", "-", "-", "-", "-", "-", 0,
            );
            continue;
        }
        let c = &r.cost;
        let hedge = format!("{}/{}/{}", c.hedges_won, c.hedges_wasted, c.hedges_issued);
        let _ = writeln!(
            out,
            "{scenario:<12} {mitigation:<11} {width:>4} | {:>8.0} {:>8.0} {} {:>8.0} | {} | {:>11} {:>7} {:>7} {:>5} | {:>4}{}",
            r.p50_us,
            r.p99_us,
            opt_col(r.p999_us, 8, 0),
            r.max_us,
            opt_col(r.amp_p99, 8, 2),
            hedge,
            c.retries_issued,
            c.budget_exhausted,
            c.deadline_exceeded,
            r.samples,
            if r.aborted > 0 { "!" } else { "" },
        );
    }
    out.push_str(
        "(amp(p99) = p99 / p99(none) in the same scenario, <1 = the\n\
         mitigation cut the tail; hedge w/l/i = hedges won/wasted/\n\
         issued; no-tok = retries suppressed by the budget; ddl =\n\
         requests past their deadline; '!' = retransmit-limit aborts.)\n",
    );
    out
}

/// `repro cc`: the congestion-control study. Every cell runs a
/// cold-start 4-client incast (16 kB RPCs into one server port) under
/// one sender variant (Tahoe, Reno, NewReno, SACK), one UBR cell-drop
/// policy (tail, EPD, PPD), and one switch buffer size, and the table
/// reports goodput next to the recovery-latency percentiles and the
/// loss ledger (retransmits, RTO fires, cells dropped per policy).
/// Retransmissions and RTOs are the study's *data*.
pub struct CcStudy;

/// The drop policies the cc study sweeps for a given buffer size.
///
/// The EPD threshold sits at half the queue: early refusal needs
/// headroom below capacity to be "early" at all, and half is the
/// classic rule of thumb — deep enough to admit a committed train's
/// tail, shallow enough to refuse new trains before tail drop starts.
fn cc_policies(queue_cells: usize) -> [DropPolicy; 3] {
    [
        DropPolicy::Tail,
        DropPolicy::Epd {
            threshold_cells: (queue_cells / 2).max(1),
        },
        DropPolicy::Ppd,
    ]
}

/// Builds the cc grid: every variant x every drop policy x every
/// buffer size, over a 4-client incast into one server port, 16 kB
/// RPCs, 3 measured rounds.
///
/// The worlds start **cold** (`initial_cwnd_segs = Some(2)`) so slow
/// start, loss recovery and the variant differences are actually on
/// the wire, and the switch reads AAL3/4 SAR segment types for train
/// boundaries — the adaptation layer the world's NICs run.
fn cc_cells(buffers: &[usize]) -> Vec<StudyCell> {
    let mut cells = Vec::new();
    for variant in CcVariant::ALL {
        for &q in buffers {
            for policy in cc_policies(q) {
                let mut topo = Topology::incast(4, 4, 1);
                topo.rpc_size = 16_000;
                topo.iterations = 3;
                topo.warmup = 1;
                // Classical-IP LIS MTU: MSS 1460 instead of the ATM
                // 9188. A 16 kB RPC is then ~11 segments, so a loss
                // leaves enough trailing segments to generate the dup
                // ACKs fast retransmit needs — with page-sized
                // segments every window fits in 4 and all recovery
                // collapses into RTOs, erasing the variant contrast.
                topo.mtu = 1500;
                topo.stack.cc = variant;
                topo.stack.initial_cwnd_segs = Some(2);
                topo.switch.queue_cells = q;
                topo.switch.drop_policy = policy;
                topo.switch.marking = TrainMarking::Aal34SegType;
                let key = format!("cc/{}/{}/q{q}/i3r1", variant.name(), policy.name());
                cells.push(StudyCell::plain(staggered(key, topo, 1)));
            }
        }
    }
    cells
}

/// The derived columns of one cc cell; the loss ledger is read from
/// the cell result directly.
struct CcRow {
    /// Per-flow application goodput in Mbit/s over the measured RPCs:
    /// one round trip's request+echo payload bits over the mean round
    /// trip. Recovery stalls (RTO towers especially) land in the mean,
    /// so wasted windows show up here even though the final simulated
    /// time — which also spans warmup and trailing timer drain — does
    /// not enter the figure.
    goodput_mbps: f64,
    /// Median RPC round trip in µs.
    p50_us: f64,
    /// 99th-percentile RPC round trip in µs — recovery latency lives
    /// in this tail: a round trip is slow exactly when its segments
    /// needed retransmission.
    p99_us: f64,
    /// Worst RPC round trip in µs.
    max_us: f64,
}

impl CcRow {
    fn new(c: &StudyCell, r: &DcCellResult) -> CcRow {
        let rec = r.rtts.recorder();
        let rpc_bits = (c.cell.topo.rpc_size * 2 * 8) as f64;
        let mean_us = r.rtts.mean_us();
        CcRow {
            goodput_mbps: if mean_us > 0.0 {
                rpc_bits / mean_us
            } else {
                0.0
            },
            p50_us: percentile_us(&rec, 50.0),
            p99_us: percentile_us(&rec, 99.0),
            max_us: us(rec.max_ns().unwrap_or(0)),
        }
    }
}

impl Study for CcStudy {
    fn name(&self) -> &'static str {
        "cc"
    }

    /// Full: 4 variants x 3 policies x buffers {128, 256, 512, 1024}
    /// cells. Quick: the {128, 512} buffer subset, 24 cells.
    ///
    /// 128 cells is barely more than one 16 kB request's worth of
    /// AAL3/4 cells, so a 4-way incast overruns it hard; 1024 gives
    /// the fabric real room. The cc worlds are loss-deterministic
    /// (overflow, not a fault process), so the full grid widens along
    /// the *buffer* axis rather than re-running the same cell under
    /// more seeds or deeper into steady-state congestion, where every
    /// variant collapses into back-to-back RTO towers and the contrast
    /// washes out.
    fn grid(&self, quick: bool) -> Vec<StudyCell> {
        if quick {
            cc_cells(&[128, 512])
        } else {
            cc_cells(&[128, 256, 512, 1024])
        }
    }

    /// Goodput, recovery-latency percentiles and the drop ledger.
    fn extra_fields(&self, cells: &[StudyCell], results: &[DcCellResult]) -> Vec<Vec<Field>> {
        cells
            .iter()
            .zip(results)
            .map(|(c, r)| {
                let row = CcRow::new(c, r);
                vec![
                    ("goodput_mbps", json_num(row.goodput_mbps)),
                    ("p50_us", json_num(row.p50_us)),
                    ("p99_us", json_num(row.p99_us)),
                    ("rexmits", r.rexmits.to_string()),
                    ("rto_fires", r.rto_fires.to_string()),
                    ("queue_drops", r.switch_drops.to_string()),
                    ("epd_drops", r.epd_drops.to_string()),
                    ("ppd_drops", r.ppd_drops.to_string()),
                    ("aborted_conns", r.aborted_conns.to_string()),
                    ("mbufs_leaked", r.mbufs_leaked.to_string()),
                ]
            })
            .collect()
    }

    fn table(&self, cells: &[StudyCell], results: &[DcCellResult]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:<5} {:>5} {:>7} {:>8} {:>9} {:>9} {:>10} {:>7} {:>4} {:>6} {:>6} {:>6}",
            "variant",
            "drop",
            "queue",
            "samples",
            "goodput",
            "p50_us",
            "p99_us",
            "max_us",
            "rexmit",
            "rto",
            "qdrop",
            "epd",
            "ppd"
        );
        for (c, r) in cells.iter().zip(results) {
            let row = CcRow::new(c, r);
            let t = &c.cell.topo;
            let _ = writeln!(
                out,
                "{:<8} {:<5} {:>5} {:>7} {:>8.2} {:>9.1} {:>9.1} {:>10.1} {:>7} {:>4} {:>6} {:>6} {:>6}",
                t.stack.cc.name(),
                t.switch.drop_policy.name(),
                t.switch.queue_cells,
                r.rtts.len(),
                row.goodput_mbps,
                row.p50_us,
                row.p99_us,
                row.max_us,
                r.rexmits,
                r.rto_fires,
                r.switch_drops,
                r.epd_drops,
                r.ppd_drops
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of `study`'s grid that `keep` selects.
    fn pick(study: &dyn Study, quick: bool, keep: impl Fn(&StudyCell) -> bool) -> Vec<StudyCell> {
        study.grid(quick).into_iter().filter(keep).collect()
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    fn pool(ts: &[SimTime]) -> Samples {
        let mut s = Samples::new(ObsMode::Exact);
        s.extend_from(ts);
        s
    }

    /// A fan-out cell carrying only the labels a row reads.
    fn labelled(scenario: &str, mitigation: Mitigation, width: usize, churn: bool) -> StudyCell {
        let mut topo = Topology::fanout(2, width);
        if churn {
            topo.churn = Some(ChurnTraffic::background());
        }
        StudyCell {
            cell: staggered(String::new(), topo, 1),
            scenario: scenario.to_string(),
            mitigation,
        }
    }

    /// A tails-study cell (no mitigation).
    fn tails_cell(scenario: &str, width: usize, churn: bool) -> StudyCell {
        labelled(scenario, Mitigation::None, width, churn)
    }

    /// A hedge-study cell at fan-out 16.
    fn hedge_cell(scenario: &str, m: Mitigation) -> StudyCell {
        labelled(scenario, m, 16, false)
    }

    fn tails_base(r: &FanoutRow<'_>) -> bool {
        r.topo().fanout_width == 1
    }

    fn hedge_base(r: &FanoutRow<'_>) -> bool {
        r.cell.mitigation == Mitigation::None
    }

    fn no_cost() -> MitigationCost {
        MitigationCost::default()
    }

    fn names(all: &[Scenario]) -> Vec<&'static str> {
        all.iter().map(|s| s.name).collect()
    }

    fn assert_unique_and_clean_first(all: &[Scenario]) {
        assert_eq!(all[0].name, "clean");
        assert!(all[0].faults.is_clean());
        let mut names = names(all);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn scenario_names_are_unique_and_clean_first() {
        let tails = tails_scenarios();
        assert_unique_and_clean_first(&tails);
        assert!(names(&tails).contains(&"burst-loss"));
        assert!(!names(&tails).contains(&"nope"));
        let hedge = hedge_scenarios();
        assert_unique_and_clean_first(&hedge);
        assert!(names(&hedge).contains(&"host-pause"));
        assert!(names(&hedge).contains(&"link-flap"));
        assert!(!names(&hedge).contains(&"nope"));
    }

    #[test]
    fn mitigation_tags_are_unique_and_baseline_first() {
        assert_eq!(MITIGATIONS[0], Mitigation::None);
        let mut tags: Vec<_> = MITIGATIONS.iter().map(|m| m.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), MITIGATIONS.len());
    }

    #[test]
    fn pause_and_flap_scenarios_carry_pure_time_schedules() {
        let all = hedge_scenarios();
        let find = |name: &str| all.iter().find(|s| s.name == name).unwrap();
        let pause = find("host-pause");
        assert!(pause.faults.host_pause.is_some());
        assert!(pause.faults.atm_loss.is_none(), "pause is RNG-free");
        let flap = find("link-flap");
        assert!(flap.faults.link_flap.is_some());
        assert!(flap.faults.atm_loss.is_none(), "flap is RNG-free");
    }

    #[test]
    fn reduce_refuses_fake_p999_on_small_cells() {
        let cell = tails_cell("clean", 4, false);
        let samples = pool(&[t(100), t(110), t(500)]);
        let row = reduce(&cell, &samples, 0, no_cost());
        assert_eq!(row.samples, 3);
        assert_eq!(row.p999_us, None, "3 samples cannot estimate p999");
        assert_eq!(samples.recorder().saturated(), 0);
        assert!(row.p99_us >= row.p50_us);
        assert!((row.max_us - 500.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_reports_p999_above_the_sample_floor() {
        let samples: Vec<SimTime> = (1..=2000).map(t).collect();
        let cell = tails_cell("clean", 16, true);
        let row = reduce(&cell, &pool(&samples), 0, no_cost());
        assert_eq!(row.samples, 2000);
        let p999 = row.p999_us.expect("2000 samples clear the floor");
        assert!(p999 < row.max_us, "p999 {p999} must not collapse to max");
    }

    #[test]
    fn amplify_divides_by_the_matching_fanout_1_cell() {
        let cells = [
            tails_cell("clean", 1, false),
            tails_cell("clean", 16, false),
            // Different churn setting: must NOT share the baseline.
            tails_cell("clean", 16, true),
        ];
        let mut rows = vec![
            reduce(&cells[0], &pool(&[t(100), t(100), t(100)]), 0, no_cost()),
            reduce(&cells[1], &pool(&[t(100), t(120), t(300)]), 0, no_cost()),
            reduce(&cells[2], &pool(&[t(400), t(400), t(400)]), 0, no_cost()),
        ];
        amplify(&mut rows, tails_base);
        assert_eq!(rows[0].amp_p99, Some(1.0), "baseline divides itself");
        assert_eq!(rows[0].amp_p50, Some(1.0));
        assert!((rows[1].amp_p99.unwrap() - 3.0).abs() < 1e-9);
        assert!((rows[1].amp_p50.unwrap() - 1.2).abs() < 1e-9);
        assert_eq!(rows[2].amp_p99, None, "churn group has no fan-out-1 cell");
    }

    #[test]
    fn amplify_skips_empty_and_degenerate_baselines() {
        let cells = [
            tails_cell("clean", 1, false),
            tails_cell("clean", 4, false),
            tails_cell("burst-loss", 1, false),
            tails_cell("burst-loss", 4, false),
        ];
        let mut rows = vec![
            reduce(&cells[0], &pool(&[]), 1, no_cost()),
            reduce(&cells[1], &pool(&[t(10)]), 0, no_cost()),
            reduce(&cells[2], &pool(&[SimTime::ZERO]), 0, no_cost()),
            reduce(&cells[3], &pool(&[t(10)]), 0, no_cost()),
        ];
        amplify(&mut rows, tails_base);
        assert_eq!(rows[1].amp_p99, None, "empty baseline yields no ratio");
        assert_eq!(
            rows[3].amp_p99, None,
            "zero-valued baseline percentile yields no ratio"
        );
    }

    #[test]
    fn tails_table_renders_sampled_empty_and_unsampled_rows() {
        let cells = [
            tails_cell("clean", 1, false),
            tails_cell("clean", 64, true),
            tails_cell("mbuf-exhaustion", 64, true),
        ];
        let mut rows = vec![
            reduce(&cells[0], &pool(&[t(100), t(110)]), 0, no_cost()),
            reduce(&cells[1], &pool(&[t(100), t(900)]), 2, no_cost()),
            reduce(&cells[2], &pool(&[]), 4, no_cost()),
        ];
        amplify(&mut rows, tails_base);
        let text = tails_table(&rows);
        assert!(text.contains("scenario"));
        assert!(text.contains("amp(p99)"));
        assert!(text.contains("mbuf-exhaustion"));
        assert!(text.contains('!'), "aborted rows are flagged");
        // Under-sampled p999 renders as '-', not a number.
        assert!(text.contains(" - "));
    }

    #[test]
    fn amplify_divides_by_the_no_mitigation_cell() {
        let cells = [
            hedge_cell("clean", Mitigation::None),
            hedge_cell("clean", Mitigation::Hedge),
            // Different scenario: must NOT share the baseline.
            hedge_cell("burst-loss", Mitigation::Hedge),
        ];
        let mut rows = vec![
            reduce(&cells[0], &pool(&[t(100), t(100), t(300)]), 0, no_cost()),
            reduce(&cells[1], &pool(&[t(100), t(100), t(150)]), 0, no_cost()),
            reduce(&cells[2], &pool(&[t(600)]), 0, no_cost()),
        ];
        amplify(&mut rows, hedge_base);
        assert_eq!(rows[0].amp_p99, Some(1.0), "baseline divides itself");
        assert!((rows[1].amp_p99.unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(rows[2].amp_p99, None, "no baseline in its scenario");
    }

    #[test]
    fn hedge_reduce_refuses_fake_p999_and_table_renders_costs() {
        let cost = MitigationCost {
            hedges_issued: 5,
            hedges_won: 3,
            hedges_wasted: 2,
            retries_issued: 7,
            budget_exhausted: 1,
            deadline_exceeded: 2,
            cancelled: 4,
        };
        let cells = [
            hedge_cell("clean", Mitigation::None),
            hedge_cell("clean", Mitigation::Hedge),
            hedge_cell("link-flap", Mitigation::Retry),
        ];
        let mut rows = vec![
            reduce(&cells[0], &pool(&[t(100), t(110)]), 0, no_cost()),
            reduce(&cells[1], &pool(&[t(90), t(95)]), 1, cost),
            reduce(&cells[2], &pool(&[]), 2, no_cost()),
        ];
        assert_eq!(rows[1].p999_us, None, "2 samples cannot estimate p999");
        amplify(&mut rows, hedge_base);
        let text = hedge_table(&rows);
        assert!(text.contains("3/2/5"), "hedge won/wasted/issued: {text}");
        assert!(text.contains('!'), "aborted rows are flagged");
        assert!(text.contains("link-flap"));
    }

    fn assert_unique_keys(g: &[StudyCell]) {
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a.cell.key, b.cell.key);
            }
        }
    }

    #[test]
    fn studies_are_found_by_subcommand_name() {
        let names: Vec<_> = STUDIES.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["dc", "tails", "hedge", "cc"]);
        for name in names {
            assert_eq!(study(name).map(Study::name), Some(name));
        }
        assert!(study("tabel1").is_none());
        assert_eq!(DcStudy.report_name(true), "dc_quick");
        assert_eq!(DcStudy.report_name(false), "dc");
    }

    #[test]
    fn quick_grid_has_unique_keys_and_expected_axes() {
        let g = DcStudy.grid(true);
        assert_unique_keys(&g);
        // 2 client counts x 2 conn counts x 3 strategies x 2 fan-ins,
        // minus nothing (fan-in 4 clamps to 2 only when clients = 2,
        // which aliases with... it clamps to 2, distinct from 1).
        assert_eq!(g.len(), 24);
        assert!(g.iter().all(|c| c.cell.topo.iterations == 2));
    }

    #[test]
    fn full_grid_covers_the_acceptance_axes() {
        let g = DcStudy.grid(false);
        assert_eq!(g.len(), 36);
        assert!(g.iter().any(|c| c.cell.topo.clients == 256));
        assert!(g.iter().any(|c| c.cell.topo.conns_per_host == 64));
        assert!(g.iter().any(|c| c.cell.key.contains("/hash/")));
        assert!(g.iter().any(|c| c.cell.key.contains("/cache/")));
        assert!(g.iter().any(|c| c.cell.key.contains("/mtf/")));
    }

    #[test]
    fn seeds_derive_from_keys_not_positions() {
        let g = DcStudy.grid(true);
        let r = run_dc_cells(&g[..2], 1);
        assert_eq!(r[0].seed, sweep::cell_seed(&g[0].cell.key));
        assert_eq!(r[1].seed, sweep::cell_seed(&g[1].cell.key));
    }

    #[test]
    fn report_is_byte_identical_across_jobs() {
        // A tiny two-cell grid keeps this test fast; the full quick
        // grid is exercised by the repro binary's CI determinism diff.
        let cells: Vec<DcCell> = DcStudy
            .grid(true)
            .into_iter()
            .take(2)
            .map(|c| c.cell)
            .collect();
        let a = canonical_json("dc_tiny", &run_dc_cells(&cells, 1));
        let b = canonical_json("dc_tiny", &run_dc_cells(&cells, 4));
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"name\": \"dc_tiny\","));
        // The study writer and the plain one agree for `dc`.
        let study: Vec<StudyCell> = cells.into_iter().map(StudyCell::plain).collect();
        assert_eq!(
            a,
            DcStudy.report_json("dc_tiny", &study, &run_dc_cells(&study, 2))
        );
    }

    #[test]
    fn empty_report_keeps_the_schema() {
        assert_eq!(
            canonical_json("none", &[]),
            "{\n  \"name\": \"none\",\n  \"cells\": {}\n}\n"
        );
    }

    #[test]
    fn rep_zero_keeps_the_base_seed_and_later_reps_leave_the_walk() {
        // Rep 0 must stay the key-derived base seed: that is what every
        // blessed golden ran on, and the fix must not move their bytes.
        let key = "dc/h2/c1/list/f1/i2r1";
        assert_eq!(rep_seed(key, 0), sweep::cell_seed(key));
        // Later reps must NOT be base + rep: that walk can collide with
        // a neighboring cell's base seed. The key-folded derivation is
        // also distinct per rep.
        let base = sweep::cell_seed(key);
        let r1 = rep_seed(key, 1);
        let r2 = rep_seed(key, 2);
        assert_ne!(r1, base.wrapping_add(1), "rep 1 left the additive walk");
        assert_ne!(r1, r2);
        assert_ne!(r1, base);
        assert_eq!(r1, sweep::cell_seed("dc/h2/c1/list/f1/i2r1/r1"));
    }

    #[test]
    fn tails_quick_grid_covers_all_axes() {
        let g = TailsStudy.grid(true);
        // 4 scenarios x 3 widths x churn {off, on}.
        assert_eq!(g.len(), 24);
        assert_unique_keys(&g);
        assert!(g.iter().any(|c| c.scenario == "mbuf-exhaustion"));
        assert!(g
            .iter()
            .any(|c| c.cell.topo.fanout_width == 16 && c.cell.topo.churn.is_some()));
        // Clean cells carry no fault schedule.
        for c in &g {
            let churn = c.cell.topo.churn.is_some();
            assert_eq!(c.cell.key.contains("/churn/"), churn, "{}", c.cell.key);
            let width = format!("/f{}/", c.cell.topo.fanout_width);
            assert!(c.cell.key.contains(&width), "{}", c.cell.key);
            if c.scenario == "clean" {
                assert!(c.cell.topo.faults.is_none());
            } else {
                assert!(c.cell.topo.faults.is_some());
            }
        }
        let full = TailsStudy.grid(false);
        // 32 warm-stack cells + 8 `+reno` re-runs (4 scenarios x
        // widths {1, 16}).
        assert_eq!(full.len(), 40);
        assert!(full.iter().any(|c| c.cell.topo.fanout_width == 64));
        let reno: Vec<_> = full
            .iter()
            .filter(|c| c.scenario.ends_with("+reno"))
            .collect();
        assert_eq!(reno.len(), 8);
        for c in &reno {
            // The re-runs arm the cc-study transport; width 1 rides
            // along as the in-family amplification baseline.
            assert_eq!(c.cell.topo.stack.cc, CcVariant::Reno);
            assert_eq!(c.cell.topo.stack.initial_cwnd_segs, Some(2));
            assert_eq!(c.cell.topo.mtu, 1500);
            assert_eq!(c.cell.topo.rpc_size, 16_000);
            assert!(c.cell.topo.fanout_width == 1 || c.cell.topo.fanout_width == 16);
        }
        // Warm-stack cells stay warm: the re-runs must not leak cc
        // arming into the headline family (goldens depend on it).
        assert!(full
            .iter()
            .filter(|c| !c.scenario.ends_with("+reno"))
            .all(|c| c.cell.topo.stack.initial_cwnd_segs.is_none()));
    }

    #[test]
    fn hedge_quick_grid_covers_all_axes() {
        let g = HedgeStudy.grid(true);
        // 4 scenarios x 5 mitigations.
        assert_eq!(g.len(), 20);
        assert_unique_keys(&g);
        for c in &g {
            assert_eq!(c.cell.topo.fanout_width, 16);
            match c.mitigation {
                Mitigation::None => assert!(!c.cell.topo.mitigated()),
                _ => assert!(c.cell.topo.mitigated()),
            }
            // Hedging doubles the server blocks (replicas); the other
            // mitigations must not.
            let replicated = matches!(c.mitigation, Mitigation::Hedge | Mitigation::HedgeQuorum);
            assert_eq!(c.cell.topo.replicated(), replicated, "{}", c.cell.key);
            if c.scenario == "clean" {
                assert!(c.cell.topo.faults.is_none());
            } else {
                assert!(c.cell.topo.faults.is_some());
            }
        }
        assert!(g.iter().any(|c| c.scenario == "host-pause"));
        assert!(g.iter().any(|c| c.scenario == "link-flap"));
        let full = HedgeStudy.grid(false);
        // 20 warm-stack cells + 8 `+reno` re-runs (4 scenarios x
        // {none, retry}).
        assert_eq!(full.len(), 28);
        // Warm full cells clear the p999 floor: 4 clients x 150 x 2
        // reps. The `+reno` contrast family is shallower by design.
        assert!(full
            .iter()
            .filter(|c| !c.scenario.ends_with("+reno"))
            .all(|c| c.cell.topo.clients as u64 * c.cell.topo.iterations * c.cell.reps >= 1000));
        let reno: Vec<_> = full
            .iter()
            .filter(|c| c.scenario.ends_with("+reno"))
            .collect();
        assert_eq!(reno.len(), 8);
        for c in &reno {
            assert_eq!(c.cell.topo.stack.cc, CcVariant::Reno);
            assert_eq!(c.cell.topo.stack.initial_cwnd_segs, Some(2));
            assert!(matches!(c.mitigation, Mitigation::None | Mitigation::Retry));
        }
    }

    #[test]
    fn hedge_kofn_policy_sets_the_quorum() {
        let p = mitigation_policy(Mitigation::HedgeQuorum, 16);
        assert_eq!(p.quorum, 14);
        assert!(p.hedge.is_some());
        assert!(mitigation_policy(Mitigation::None, 16).is_noop());
        let d = mitigation_policy(Mitigation::Deadline, 16);
        assert_eq!(d.deadline, Some(SimTime::from_ms(10)));
    }

    #[test]
    fn hedge_report_is_byte_identical_across_jobs() {
        // One clean pair (baseline + hedge) keeps this fast; the full
        // quick grid runs in the CI determinism diff.
        let cells = pick(&HedgeStudy, true, |c| {
            c.scenario == "clean" && matches!(c.mitigation, Mitigation::None | Mitigation::Hedge)
        });
        assert_eq!(cells.len(), 2);
        let a = HedgeStudy.report_json("hedge_tiny", &cells, &run_dc_cells(&cells, 1));
        let b = HedgeStudy.report_json("hedge_tiny", &cells, &run_dc_cells(&cells, 4));
        assert_eq!(a, b);
        // The no-mitigation cell is its own baseline.
        assert!(a.contains("\"amp_p99\": 1.0"), "{a}");
        // Cancelled/hedged teardown must leak nothing.
        assert!(a.contains("\"mbufs_leaked\": 0"), "{a}");
        assert!(!a.contains("\"mbufs_leaked\": 1"), "{a}");
    }

    #[test]
    fn cc_quick_grid_covers_all_axes() {
        let g = CcStudy.grid(true);
        // 4 variants x 3 policies x 2 buffer sizes.
        assert_eq!(g.len(), 24);
        assert_unique_keys(&g);
        for c in &g {
            // Cold start and SAR-aware marking on every cell: the
            // study is meaningless without either.
            let t = &c.cell.topo;
            assert_eq!(t.stack.initial_cwnd_segs, Some(2));
            assert_eq!(t.switch.marking, TrainMarking::Aal34SegType);
            assert_eq!(c.cell.reps, 1);
            // The key names the axes the topology carries.
            let axes = format!(
                "cc/{}/{}/q{}/",
                t.stack.cc.name(),
                t.switch.drop_policy.name(),
                t.switch.queue_cells
            );
            assert!(c.cell.key.starts_with(&axes), "{}", c.cell.key);
        }
        let sw = |c: &StudyCell| {
            (
                c.cell.topo.switch.drop_policy,
                c.cell.topo.switch.queue_cells,
            )
        };
        assert!(g
            .iter()
            .any(|c| c.cell.topo.stack.cc == CcVariant::Sack && sw(c) == (DropPolicy::Ppd, 128)));
        // EPD thresholds sit at half the queue.
        let epd64 = DropPolicy::Epd {
            threshold_cells: 64,
        };
        assert!(g.iter().any(|c| sw(c) == (epd64, 128)));
        let full = CcStudy.grid(false);
        // Full widens along the buffer axis; same rounds per cell.
        assert_eq!(full.len(), 48);
        assert!(full.iter().all(|c| c.cell.topo.iterations == 3));
        assert!(full.iter().any(|c| c.cell.topo.switch.queue_cells == 1024));
    }

    #[test]
    fn cc_report_is_byte_identical_across_jobs() {
        // One variant pair on the small buffer keeps this fast; the
        // full quick grid runs in the CI determinism diff.
        let cells = pick(&CcStudy, true, |c| {
            let t = &c.cell.topo;
            t.switch.queue_cells == 128
                && t.stack.cc == CcVariant::NewReno
                && t.switch.drop_policy != DropPolicy::Ppd
        });
        assert_eq!(cells.len(), 2);
        let a = CcStudy.report_json("cc_tiny", &cells, &run_dc_cells(&cells, 1));
        let b = CcStudy.report_json("cc_tiny", &cells, &run_dc_cells(&cells, 4));
        assert_eq!(a, b);
        assert!(a.contains("\"goodput_mbps\": "));
        assert!(a.contains("\"mbufs_leaked\": 0"), "{a}");
    }

    #[test]
    fn tails_report_is_byte_identical_across_jobs() {
        // Two clean cells (widths 1 and 4) exercise the amplification
        // join; the full quick grid runs in the CI determinism diff.
        let cells = pick(&TailsStudy, true, |c| {
            c.scenario == "clean" && c.cell.topo.churn.is_none() && c.cell.topo.fanout_width <= 4
        });
        assert_eq!(cells.len(), 2);
        let a = TailsStudy.report_json("tails_tiny", &cells, &run_dc_cells(&cells, 1));
        let b = TailsStudy.report_json("tails_tiny", &cells, &run_dc_cells(&cells, 4));
        assert_eq!(a, b);
        // The width-1 cell is its own baseline: amp_p99 is exactly 1.
        assert!(a.contains("\"amp_p99\": 1.0"), "{a}");
        // p999 on a 12-sample quick cell must be null, never a number.
        assert!(a.contains("\"p999_us\": null"));
    }
}
