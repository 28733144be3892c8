//! End-to-end campaign benchmark for mirage.
//!
//! ```text
//! mirage-campaign-bench --workload <fleet-dense|fleet-diverse|sim-guarded>
//!                       --seed <n> --seconds <s> --trace <0|1> [--corrupt-answer]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of an untraced run;
//! with `--trace 1` the per-layer ledger of a traced run. The last line of
//! standard output is one JSON object; the exit code is 1 when any check
//! of the program's outputs failed (`--corrupt-answer` feeds the checker a
//! wrong answer, so that run must fail). See README.md.

mod fleet;
mod gen;
mod query;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use std::sync::Arc;

use mirage_report::{DurableUrr, MemoryStore, Report, Urr};
use mirage_telemetry::{Registry, Telemetry};
use query::{request_rounds, run_queries, Kind, Latencies, Oracle};
use stats::{median, percentile, secs, timed, Checks, Metrics};

/// Repetitions that start within this many seconds of the first one are
/// warm-up and discarded (at least one): the first repetitions run slower
/// (cold allocator and caches).
const WARMUP_S: f64 = 3.0;
/// Measured repetitions per series, however short `--seconds` is.
const MIN_REPS: usize = 6;
/// Seeded rounds of ten requests the query client cycles through.
const QUERY_ROUNDS: usize = 100;
/// After each repetition the query client runs for this share of the
/// repetition's time (at least one pass of 1,000 requests): query load
/// tracks campaign load, and with `MIN_REPS` measured repetitions at
/// least 6,000 latencies are kept (≥10 beyond p99).
const QUERY_SHARE: f64 = 0.2;
/// World builds per set-up round, so that one round takes about 0.1 s or
/// more (a lone `fleet-dense` build takes a few milliseconds, too short
/// to time steadily).
const DENSE_BUILDS_PER_ROUND: usize = 16;
const DIVERSE_BUILDS_PER_ROUND: usize = 2;
const SIM_BUILDS_PER_ROUND: usize = 1;

const FLEET_DENSE_MACHINES: usize = 1_000;
const FLEET_DIVERSE_MACHINES: usize = 10_000;

/// Every per-layer metric, in output order, with its unit. A layer that
/// does not run on a workload reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("trace.collect_s", "s"),
    ("trace.events", "count"),
    ("heuristic.classify_s", "s"),
    ("heuristic.resources", "count"),
    ("fingerprint.fingerprint_s", "s"),
    ("fingerprint.items", "count"),
    ("fingerprint.chunk_items", "count"),
    ("core.plan_s", "s"),
    ("core.fleet_inputs_s", "s"),
    ("cluster.cluster_s", "s"),
    ("cluster.phase1_s", "s"),
    ("cluster.phase2_s", "s"),
    ("cluster.label_s", "s"),
    ("cluster.distance_evals", "count"),
    ("cluster.qt_merges", "count"),
    ("cluster.clusters", "count"),
    ("cluster.drift_build_s", "s"),
    ("cluster.drift_s", "s"),
    ("cluster.drift_p50_us", "us"),
    ("cluster.drift_p99_us", "us"),
    ("cluster.drift_dist_evals", "count"),
    ("deploy.plan_s", "s"),
    ("rollout.rounds", "count"),
    ("core.drive_s", "s"),
    ("core.validations", "count"),
    ("core.releases", "count"),
    ("core.drive_other_s", "s"),
    ("testing.validate_p50_us", "us"),
    ("report.ingest_s", "s"),
    ("report.wal_bytes", "bytes"),
    ("report.wal_frames", "count"),
    ("report.recover_s", "s"),
    ("report.frames_replayed", "count"),
    ("report.freeze_s", "s"),
    ("report.serve_topk_p50_us", "us"),
    ("report.serve_cluster_rates_p50_us", "us"),
    ("report.serve_failure_groups_p50_us", "us"),
    ("report.serve_drilldown_p50_us", "us"),
    ("sim.rollout_s", "s"),
    ("sim.machines_per_s", "1/s"),
    ("sim.upgrade_overhead", "count"),
    ("ledger.overhead_s", "s"),
    ("ledger.coverage", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--corrupt-answer" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fleet-dense", "fleet-diverse", "sim-guarded"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    match args.workload.as_str() {
        "sim-guarded" => run_sim(&args, &mut metrics, &mut checks),
        _ => run_fleet(&args, &mut metrics, &mut checks),
    }
    for message in checks.messages.iter().take(20) {
        eprintln!("check failed: {message}");
    }
    let mut out = String::from("{\"metrics\": {");
    let mut first = true;
    let mut emit = |name: &str, value: f64, unit: &str| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let value = if value.is_finite() { value } else { 0.0 };
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            emit(name, metrics.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, (value, unit)) in metrics.iter() {
            emit(name, *value, unit);
        }
    }
    out.push_str(&format!(
        "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
        checks.correct(),
        checks.attempted,
        checks.failed
    ));
    println!("{out}");
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up: builds the world in rounds of a fixed number of builds. One
/// round runs before the first repetition and one before every later
/// repetition, rebuilding the same world from the same seed, so set-up
/// is sampled across the whole run like campaign time (a few rounds at
/// the start of a process follow the host's load of that moment);
/// `setup_s` is the median round time.
struct Setup<F> {
    build: F,
    builds: usize,
    times: Vec<f64>,
}

impl<W, F: FnMut() -> W> Setup<F> {
    fn new(builds: usize, mut build: F) -> (Self, W) {
        let (world, s) = timed(&mut build);
        let mut setup = Setup {
            build,
            builds,
            times: Vec::new(),
        };
        let world = setup.rebuild(world, builds - 1, s);
        (setup, world)
    }

    /// Runs one round, replacing the world with a fresh build of it.
    fn round(&mut self, world: W) -> W {
        self.rebuild(world, self.builds, 0.0)
    }

    /// Builds the world `builds` more times; dropping the previous build
    /// is not timed. Records the round's time, `s` plus the builds'.
    fn rebuild(&mut self, mut world: W, builds: usize, mut s: f64) -> W {
        for _ in 0..builds {
            drop(world);
            let (w, t) = timed(&mut self.build);
            world = w;
            s += t;
        }
        self.times.push(s);
        world
    }

    fn finish(&self, metrics: &mut Metrics) {
        metrics.set("setup_s", median(&self.times), "s");
    }
}

/// Which repetitions are measured, and which of those are traced: in a
/// traced run, measured repetitions alternate untraced/traced so the two
/// series see the same conditions. Every repetition is followed by one
/// block of queries against its own frozen repository, so query latency
/// is sampled across the whole run, like campaign time.
struct Schedule {
    started: Instant,
    budget_s: f64,
    trace: bool,
    done: usize,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    freeze_s: Vec<f64>,
    queries: Latencies,
}

impl Schedule {
    fn new(seconds: f64, trace: bool) -> Self {
        Schedule {
            started: Instant::now(),
            budget_s: seconds,
            trace,
            done: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
            freeze_s: Vec::new(),
            queries: Latencies::default(),
        }
    }

    /// Whether the next repetition is warm-up, and whether it is traced.
    fn next(&self) -> (bool, bool) {
        let warm = self.done == 0 || secs(self.started) < WARMUP_S;
        let measured = self.untraced.len() + self.traced.len();
        (warm, self.trace && !warm && measured % 2 == 1)
    }

    fn more(&self) -> bool {
        let short = self.untraced.len() < MIN_REPS || (self.trace && self.traced.len() < MIN_REPS);
        short || secs(self.started) < self.budget_s
    }

    /// Freezes the repetition's repository, runs one query block on it
    /// and records the repetition.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        args: &Args,
        (warm, traced): (bool, bool),
        campaign_s: f64,
        urr: &Urr,
        signatures: &[String],
        oracle: &dyn Oracle,
        checks: &mut Checks,
    ) {
        let (snapshot, freeze_s) = timed(|| urr.snapshot());
        let requests = request_rounds(args.seed, signatures, QUERY_ROUNDS);
        let corrupt = args.corrupt && self.done == 0;
        run_queries(
            &snapshot,
            &requests,
            oracle,
            QUERY_SHARE * campaign_s,
            corrupt,
            checks,
            (!warm).then_some(&mut self.queries),
        );
        if !warm {
            if traced {
                self.traced.push(campaign_s);
            } else {
                self.untraced.push(campaign_s);
            }
            self.freeze_s.push(freeze_s);
        }
        self.done += 1;
    }

    fn finish(&self, metrics: &mut Metrics) {
        metrics.set("campaign_s", median(&self.untraced), "s");
        metrics.set("query_p50_us", self.queries.percentile(0.50), "us");
        metrics.set("query_p99_us", self.queries.percentile(0.99), "us");
        if self.trace {
            let overhead = median(&self.traced) - median(&self.untraced);
            metrics.set("ledger.overhead_s", overhead, "s");
            metrics.set("report.freeze_s", median(&self.freeze_s), "s");
            for kind in Kind::ALL {
                if let Some(name) = kind.metric() {
                    metrics.set(name, self.queries.kind_percentile(kind, 0.50), "us");
                }
            }
        }
    }
}

fn run_fleet(args: &Args, metrics: &mut Metrics, checks: &mut Checks) {
    let diverse = args.workload == "fleet-diverse";
    let seed = args.seed;
    let builds = if diverse {
        DIVERSE_BUILDS_PER_ROUND
    } else {
        DENSE_BUILDS_PER_ROUND
    };
    let (mut setup, mut built) = Setup::new(builds, || {
        if diverse {
            let world = gen::mysql_diverse(seed, FLEET_DIVERSE_MACHINES);
            let names: Vec<String> = world.agents.iter().map(|a| a.machine.id.clone()).collect();
            (world, gen::drift_deltas(seed, &names))
        } else {
            (gen::firefox_dense(seed, FLEET_DENSE_MACHINES), Vec::new())
        }
    });
    let inputs = if diverse {
        fleet::planned_inputs(&mut built.0)
    } else {
        Vec::new()
    };

    let mut schedule = Schedule::new(args.seconds, args.trace);
    let mut ledgers: Vec<fleet::Ledger> = Vec::new();
    let mut coverage = Vec::new();
    let mut drift_us = Vec::new();
    let mut validate_us = Vec::new();
    let mut last = None;
    while schedule.more() {
        let (warm, traced) = schedule.next();
        let validate = traced && validate_us.is_empty();
        drop(last.take());
        if schedule.done > 0 {
            built = setup.round(built);
        }
        let (world, deltas) = &mut built;
        let drift = diverse.then_some(fleet::Drift {
            inputs: &inputs,
            deltas,
        });
        let rep = fleet::repetition(world, drift, traced, validate, checks);
        checks.operation(fleet::check_campaign(world, &rep));
        let oracle = fleet::FleetOracle::new(world, &rep);
        let signatures: Vec<String> = rep
            .urr
            .failure_groups()
            .into_iter()
            .map(|g| g.signature)
            .collect();
        schedule.record(
            args,
            (warm, traced),
            rep.campaign_s,
            &rep.urr,
            &signatures,
            &oracle,
            checks,
        );
        if traced {
            let top: f64 = fleet::TOP_LAYERS
                .iter()
                .filter_map(|l| rep.ledger.times.get(l))
                .sum();
            coverage.push(top / rep.campaign_s);
            drift_us.clone_from(&rep.drift_us);
            if validate {
                validate_us.clone_from(&rep.validate_us);
            }
            ledgers.push(rep.ledger.clone());
        }
        last = Some(rep);
    }
    schedule.finish(metrics);
    setup.finish(metrics);
    let last = last.expect("at least one repetition");

    if args.trace {
        for layer in ledgers[0].times.keys() {
            metrics.set(layer, fleet::median_layer(&ledgers, layer), "s");
        }
        let latest = ledgers.last().expect("traced repetitions");
        for (name, value) in &latest.counts {
            metrics.set(name, *value, "count");
        }
        require_coverage(&coverage, metrics, checks);
        metrics.set("cluster.drift_p50_us", percentile(&drift_us, 0.50), "us");
        metrics.set("cluster.drift_p99_us", percentile(&drift_us, 0.99), "us");
        metrics.set(
            "testing.validate_p50_us",
            percentile(&validate_us, 0.50),
            "us",
        );
        // Drive time not spent validating: the traced validations' mean
        // time stands in for each validation the drive ran.
        let validate_mean = validate_us.iter().sum::<f64>() / validate_us.len().max(1) as f64;
        let validations = latest
            .counts
            .get("core.validations")
            .copied()
            .unwrap_or(0.0);
        metrics.set(
            "core.drive_other_s",
            fleet::median_layer(&ledgers, "core.drive_s") - validate_mean * validations / 1e6,
            "s",
        );
        report_layer(last.urr.all(), metrics);
    }
}

fn require_coverage(coverage: &[f64], metrics: &mut Metrics, checks: &mut Checks) {
    let share = median(coverage);
    metrics.set("ledger.coverage", share, "ratio");
    checks.require(share >= 0.95, || {
        format!("top-level layers cover {share:.3} of the traced campaign")
    });
}

fn durable(telemetry: Telemetry) -> (MemoryStore, DurableUrr) {
    let store = MemoryStore::new();
    let handle = store.clone();
    let durable = DurableUrr::new(Box::new(store), sim::durable_config(telemetry))
        .expect("memory store cannot fail");
    (handle, durable)
}

/// Re-journals a campaign's reports through a fresh durable repository,
/// then crashes and recovers it: the report layer's write-side figures
/// for campaigns whose own repository is not journaled.
fn report_layer(reports: Vec<Report>, metrics: &mut Metrics) {
    let registry = Arc::new(Registry::new(64));
    let (handle, durable) = durable(Telemetry::from_registry(Arc::clone(&registry)));
    metrics.set("report.ingest_s", sim::reingest(&durable, reports), "s");
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    metrics.set("report.wal_frames", counter("urr.wal_frames"), "count");
    metrics.set("report.wal_bytes", counter("urr.wal_bytes"), "bytes");
    let ((_, recovery), recover_s) = timed(|| {
        DurableUrr::recover(
            Box::new(handle.fork()),
            sim::durable_config(Telemetry::noop()),
        )
        .expect("memory store cannot fail")
    });
    metrics.set("report.recover_s", recover_s, "s");
    metrics.set(
        "report.frames_replayed",
        recovery.frames_replayed as f64,
        "count",
    );
}

fn run_sim(args: &Args, metrics: &mut Metrics, checks: &mut Checks) {
    let seed = args.seed;
    let (mut setup, mut world) = Setup::new(SIM_BUILDS_PER_ROUND, || sim::world(seed));
    let oracle = sim::SimOracle::new(&world);
    let signatures = oracle.signatures();
    let mut schedule = Schedule::new(args.seconds, args.trace);
    let (mut rollout, mut recover, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while schedule.more() {
        let (warm, traced) = schedule.next();
        drop(last.take());
        if schedule.done > 0 {
            world = setup.round(world);
        }
        let mut rep = sim::repetition(&mut world, traced);
        checks.operation(std::mem::take(&mut rep.problems));
        let urr = rep.recovered.urr();
        schedule.record(
            args,
            (warm, traced),
            rep.campaign_s,
            urr,
            &signatures,
            &oracle,
            checks,
        );
        if traced {
            rollout.push(rep.rollout_s);
            recover.push(rep.recover_s);
            coverage.push((rep.rollout_s + rep.recover_s) / rep.campaign_s);
        }
        last = Some(rep);
    }
    schedule.finish(metrics);
    setup.finish(metrics);
    let last = last.expect("at least one repetition");

    if args.trace {
        let n = world.scenario.machine_count() as f64;
        metrics.set("sim.rollout_s", median(&rollout), "s");
        metrics.set("sim.machines_per_s", n / median(&rollout), "1/s");
        metrics.set("sim.upgrade_overhead", last.failed_tests as f64, "count");
        metrics.set("report.recover_s", median(&recover), "s");
        metrics.set(
            "report.frames_replayed",
            last.recovery.frames_replayed as f64,
            "count",
        );
        metrics.set("report.wal_frames", last.wal_frames, "count");
        metrics.set("report.wal_bytes", last.wal_bytes, "bytes");
        let (_, fresh) = durable(Telemetry::noop());
        let reports = last.recovered.urr().all();
        drop(last);
        metrics.set("report.ingest_s", sim::reingest(&fresh, reports), "s");
        require_coverage(&coverage, metrics, checks);
    }
}
