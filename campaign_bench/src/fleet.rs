//! The real-machine campaign workloads (`fleet-dense`, `fleet-diverse`).
//!
//! One repetition starts from the built fleet (machines without traces)
//! and ends with a repository holding every report: trace collection →
//! `Campaign::rollout_plan` (parallel `fleet_inputs`: identification,
//! fingerprint and diff; then `Vendor::cluster` and the rollout plan) →
//! `Campaign::drive` to convergence, plus drift re-placement on
//! `fleet-diverse`. Each top-level layer is timed around the public call
//! that implements it; a traced repetition reads the planning layers
//! from the spans the campaign publishes and times identification and
//! fingerprinting in a side pass outside the repetition's wall time.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use mirage_cluster::{Clustering, DriftEngine, MachineDelta, MachineInfo};
use mirage_core::{fingerprint_machine, Campaign, CampaignResult, UserAgent, Vendor};
use mirage_deploy::{DeployPlan, ProtocolChoice};
use mirage_env::RunInput;
use mirage_report::{Urr, UrrRequest, UrrResponse};
use mirage_rollout::{RolloutPlan, RolloutStrategy};
use mirage_telemetry::{Registry, Telemetry};

use crate::gen::FleetWorld;
use crate::query::{group_shape, Oracle, UNKNOWN_SIGNATURE};
use crate::stats::{median, secs, Checks};

/// Drift deltas between two full-clustering diameter checks.
const DRIFT_CHECK_EVERY: usize = 6000;

/// The strategy every fleet campaign is planned with.
const STRATEGY: RolloutStrategy = RolloutStrategy::Staged { waves: 1 };

/// Layer timings (seconds) and counts of one repetition.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub times: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn add(&mut self, layer: &'static str, s: f64) {
        *self.times.entry(layer).or_default() += s;
    }
}

/// Top-level layers of a fleet repetition; together they must cover the
/// repetition's wall time.
pub const TOP_LAYERS: [&str; 5] = [
    "trace.collect_s",
    "core.plan_s",
    "core.drive_s",
    "cluster.drift_build_s",
    "cluster.drift_s",
];

/// Drift re-placement after the rollout: the clustering inputs of the
/// fleet as planned (the same every repetition: the fleet and its traces
/// are) and the deltas to re-place.
pub struct Drift<'a> {
    pub inputs: &'a [MachineInfo],
    pub deltas: &'a [MachineDelta],
}

/// What one repetition leaves behind.
pub struct Rep {
    /// Wall time of the repetition, checks and traced-only side passes
    /// excluded.
    pub campaign_s: f64,
    pub ledger: Ledger,
    pub urr: Arc<Urr>,
    pub result: CampaignResult,
    pub plan: DeployPlan,
    pub drift_us: Vec<f64>,
    pub validate_us: Vec<f64>,
}

/// Trace inputs every machine runs before planning.
fn run_inputs(world: &FleetWorld) -> Vec<RunInput> {
    world
        .trace_inputs
        .iter()
        .map(|i| RunInput::new(*i))
        .collect()
}

/// A fresh copy of the fleet with its traces collected.
fn traced_fleet(world: &FleetWorld) -> Vec<UserAgent> {
    let inputs = run_inputs(world);
    let mut agents = world.agents.clone();
    for agent in &mut agents {
        for input in &inputs {
            agent.collect(world.app, input.clone());
        }
    }
    agents
}

/// Lends the world's vendor to a campaign over `agents`.
fn lend(world: &mut FleetWorld, agents: Vec<UserAgent>) -> Campaign {
    let placeholder = Vendor::new(mirage_env::Machine::new("none"), Default::default());
    Campaign::new(std::mem::replace(&mut world.vendor, placeholder), agents)
}

/// The fleet's clustering inputs, as `Campaign::rollout_plan` computes
/// them: drift re-placement starts from these.
pub fn planned_inputs(world: &mut FleetWorld) -> Vec<MachineInfo> {
    let agents = traced_fleet(world);
    let campaign = lend(world, agents);
    let inputs = campaign.fleet_inputs(world.app, &world.reference);
    world.vendor = campaign.vendor;
    inputs
}

/// Runs one repetition. The vendor is lent to the campaign and handed
/// back. With `traced`, planning publishes its spans and counters to a
/// registry, and identification, fingerprinting and plan shaping are
/// timed in a side pass; `validate` additionally times
/// `UserAgent::test_upgrade` on every machine. Side passes, checks and
/// tear-down are outside the repetition's wall time.
pub fn repetition(
    world: &mut FleetWorld,
    drift: Option<Drift>,
    traced: bool,
    validate: bool,
    checks: &mut Checks,
) -> Rep {
    let app = world.app;
    let inputs = run_inputs(world);
    let mut agents: Vec<UserAgent> = world.agents.clone();
    let mut ledger = Ledger::default();
    let mut paused = 0.0;
    let start = Instant::now();

    let t = Instant::now();
    for agent in &mut agents {
        for input in &inputs {
            agent.collect(app, input.clone());
        }
    }
    ledger.add("trace.collect_s", secs(t));

    if traced {
        let t = Instant::now();
        machine_layers(world, &agents, &mut ledger);
        paused += secs(t);
    }
    let mut validate_us = Vec::new();
    if validate {
        let t = Instant::now();
        for agent in &agents {
            let v = Instant::now();
            std::hint::black_box(agent.test_upgrade(&world.vendor.repo, &world.upgrade));
            validate_us.push(v.elapsed().as_secs_f64() * 1e6);
        }
        paused += secs(t);
    }

    let registry = Arc::new(Registry::new(1024));
    let mut campaign = lend(world, agents);
    if traced {
        campaign = campaign.with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
    }
    let t = Instant::now();
    let (clustering, plan) = campaign.rollout_plan(app, &world.reference, 1, STRATEGY);
    ledger.add("core.plan_s", secs(t));
    // The drive is timed from outside only.
    campaign.telemetry = Telemetry::noop();
    campaign.vendor.telemetry = Telemetry::noop();

    if traced {
        let t = Instant::now();
        let (_, plan_s) = crate::stats::timed(|| {
            RolloutPlan::new(DeployPlan::from_clustering(&clustering, 1), STRATEGY)
        });
        ledger.add("deploy.plan_s", plan_s);
        paused += secs(t);
    }

    let t = Instant::now();
    let result = campaign.drive(world.upgrade.clone(), &plan, ProtocolChoice::Balanced, 1.0);
    ledger.add("core.drive_s", secs(t));
    let Campaign {
        vendor,
        urr,
        agents: driven,
        ..
    } = campaign;
    world.vendor = vendor;
    // Dropping the driven fleet is not part of the campaign.
    let t = Instant::now();
    drop(driven);
    paused += secs(t);

    let mut drift_us = Vec::new();
    if let Some(Drift { inputs, deltas }) = drift {
        let t = Instant::now();
        let mut engine = DriftEngine::new(&clustering, inputs, world.vendor.diameter);
        ledger.add("cluster.drift_build_s", secs(t));
        let mut dist_evals = 0u64;
        for (i, delta) in deltas.iter().enumerate() {
            let t = Instant::now();
            let stats = engine.recluster_batch(std::slice::from_ref(delta));
            let s = secs(t);
            ledger.add("cluster.drift_s", s);
            drift_us.push(s * 1e6);
            dist_evals += stats.dist_evals;
            if (i + 1) % DRIFT_CHECK_EVERY == 0 || i + 1 == deltas.len() {
                let t = Instant::now();
                checks.operation(check_diameters(
                    &engine.clustering(),
                    &engine,
                    world.vendor.diameter,
                ));
                paused += secs(t);
            }
        }
        ledger
            .counts
            .insert("cluster.drift_dist_evals", dist_evals as f64);
        // A vendor keeps its drift engine; tearing it down is not part of
        // the campaign.
        let t = Instant::now();
        drop(engine);
        paused += secs(t);
        // The deltas between two checks count as operations of their own.
        checks.attempted += deltas.len() as u64 - deltas.len().div_ceil(DRIFT_CHECK_EVERY) as u64;
    }
    let campaign_s = secs(start) - paused;

    if traced {
        let snap = registry.snapshot();
        let span_s = |suffix: &str| {
            snap.spans
                .iter()
                .filter(|(path, _)| path.ends_with(suffix))
                .map(|(_, h)| h.sum as f64 / 1e9)
                .sum::<f64>()
        };
        ledger
            .times
            .insert("core.fleet_inputs_s", span_s("campaign.fleet_inputs"));
        ledger
            .times
            .insert("cluster.cluster_s", span_s("cluster.pipeline"));
        ledger.times.insert("cluster.phase1_s", span_s("/phase1"));
        ledger.times.insert("cluster.phase2_s", span_s("/phase2"));
        ledger.times.insert("cluster.label_s", span_s("/label"));
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        ledger
            .counts
            .insert("cluster.distance_evals", counter("cluster.distance_evals"));
        ledger
            .counts
            .insert("cluster.qt_merges", counter("cluster.qt_merges"));
        ledger
            .counts
            .insert("cluster.clusters", clustering.len() as f64);
        ledger.counts.insert("rollout.rounds", result.rounds as f64);
        ledger
            .counts
            .insert("core.releases", result.releases.len() as f64);
        ledger.counts.insert(
            "core.validations",
            (result.integrated.len() + result.failed_validations) as f64,
        );
    }

    Rep {
        campaign_s,
        ledger,
        urr,
        result,
        plan: plan.deploy,
        drift_us,
        validate_us,
    }
}

/// The machine-side layers `Campaign::fleet_inputs` runs in parallel,
/// timed one call at a time on one thread: identification
/// (`UserAgent::classify`) and fingerprinting (`fingerprint_machine` +
/// `diff`), with their counts. Nothing here feeds the campaign.
fn machine_layers(world: &FleetWorld, agents: &[UserAgent], ledger: &mut Ledger) {
    let (app, vendor) = (world.app, &world.vendor);
    let events: usize = agents
        .iter()
        .flat_map(|a| &a.runs)
        .map(|r| r.trace.events.len())
        .sum();
    ledger.counts.insert("trace.events", events as f64);

    let t = Instant::now();
    let classifications: Vec<_> = agents.iter().map(|a| a.classify(app, vendor)).collect();
    ledger.add("heuristic.classify_s", secs(t));

    let (mut items, mut chunk_items) = (0usize, 0usize);
    let t = Instant::now();
    for (agent, c) in agents.iter().zip(&classifications) {
        let fp = fingerprint_machine(&agent.machine, c, &vendor.registry, &agent.machine.id);
        std::hint::black_box(fp.diff(&world.reference));
        items += fp.parsed.len() + fp.content.len();
        chunk_items += fp.content.len();
    }
    ledger.add("fingerprint.fingerprint_s", secs(t));

    ledger.counts.insert(
        "heuristic.resources",
        classifications
            .iter()
            .map(|c| c.env_resources.len())
            .sum::<usize>() as f64,
    );
    ledger.counts.insert("fingerprint.items", items as f64);
    ledger
        .counts
        .insert("fingerprint.chunk_items", chunk_items as f64);
}

/// Checks a finished repetition against the generator's ground truth.
pub fn check_campaign(world: &FleetWorld, rep: &Rep) -> Vec<String> {
    let mut problems = Vec::new();
    let n = world.agents.len();
    if !rep.result.converged(n) {
        problems.push(format!(
            "{} of {n} machines integrated a release",
            rep.result.integrated.len()
        ));
    }
    if rep.result.rollback.is_some() {
        problems.push("the campaign rolled back".into());
    }
    let plan = &rep.plan;
    let mut reps: HashSet<&str> = HashSet::new();
    let mut problem_clusters = 0usize;
    for cluster in &plan.clusters {
        reps.extend(cluster.reps.iter().map(|&m| plan.machine_name(m)));
        let truths: BTreeSet<Option<usize>> = cluster
            .members
            .iter()
            .map(|&m| world.problem_of.get(plan.machine_name(m)).copied())
            .collect();
        if truths.len() > 1 {
            problems.push(format!(
                "cluster {} mixes machines with problems {truths:?}",
                cluster.id
            ));
        }
        if truths.iter().any(Option::is_some) {
            problem_clusters += 1;
        }
    }
    let stats = rep.urr.stats();
    if stats.failures != rep.result.failed_validations {
        problems.push(format!(
            "repository holds {} failures, campaign counted {}",
            stats.failures, rep.result.failed_validations
        ));
    }
    if stats.successes != n {
        problems.push(format!(
            "repository holds {} successes for {n} machines",
            stats.successes
        ));
    }
    if rep.result.failed_validations > problem_clusters {
        problems.push(format!(
            "{} failed validations but only {problem_clusters} clusters hold problem machines",
            rep.result.failed_validations
        ));
    }
    for group in rep.urr.failure_groups() {
        for machine in &group.machines {
            if !reps.contains(machine.as_str()) {
                problems.push(format!("{machine} failed but is not a representative"));
            }
            let app = world.problem_of.get(machine).map(|&p| world.planted[p].app);
            if !app.is_some_and(|app| names_app(&group.signature, app)) {
                let planted = world.problem_of.get(machine).map(|&p| world.planted[p].id);
                problems.push(format!(
                    "{machine} failed with {} but was planted with {planted:?}",
                    group.signature
                ));
            }
        }
    }
    problems
}

/// Whether a failure signature (`<app>/<failure>`) names `app`.
fn names_app(signature: &str, app: &str) -> bool {
    signature
        .strip_prefix(app)
        .is_some_and(|rest| rest.starts_with('/'))
}

/// Every cluster is environment-uniform and its members lie within the
/// diameter of each other, recomputed from the machines' item sets.
fn check_diameters(clustering: &Clustering, engine: &DriftEngine, diameter: usize) -> Vec<String> {
    let mut problems = Vec::new();
    for cluster in &clustering.clusters {
        let infos: Vec<&MachineInfo> = cluster
            .members
            .iter()
            .filter_map(|m| engine.machine_info(m))
            .collect();
        if infos.len() != cluster.members.len() {
            problems.push(format!("cluster {} has unknown members", cluster.id));
            continue;
        }
        for (i, a) in infos.iter().enumerate() {
            for b in &infos[i + 1..] {
                let d = a.diff.content.symmetric_difference(&b.diff.content).count();
                if a.diff.parsed != b.diff.parsed
                    || a.overlapping_apps != b.overlapping_apps
                    || d > diameter
                {
                    problems.push(format!(
                        "cluster {}: {} and {} are {d} apart or differ in environment",
                        cluster.id,
                        a.id(),
                        b.id()
                    ));
                }
            }
        }
    }
    problems
}

/// Tallies for the query checks, kept from the generator's ground truth,
/// the plan and the campaign result.
pub struct FleetOracle {
    cluster_of: HashMap<String, usize>,
    reps: HashSet<String>,
    problem_app: HashMap<String, &'static str>,
    sizes: BTreeMap<usize, usize>,
    problem_reps: BTreeMap<usize, usize>,
    failed: usize,
    package: String,
    releases: Vec<(String, usize)>,
}

impl FleetOracle {
    pub fn new(world: &FleetWorld, rep: &Rep) -> Self {
        let plan = &rep.plan;
        let mut cluster_of = HashMap::new();
        let mut reps = HashSet::new();
        let mut sizes = BTreeMap::new();
        let mut problem_reps = BTreeMap::new();
        for c in &plan.clusters {
            sizes.insert(c.id, c.members.len());
            for &m in &c.members {
                cluster_of.insert(plan.machine_name(m).to_string(), c.id);
            }
            let mut planted_reps = 0;
            for &m in &c.reps {
                let name = plan.machine_name(m);
                reps.insert(name.to_string());
                planted_reps += usize::from(world.problem_of.contains_key(name));
            }
            problem_reps.insert(c.id, planted_reps);
        }
        let problem_app = world
            .problem_of
            .iter()
            .map(|(m, &p)| (m.clone(), world.planted[p].app))
            .collect();
        let mut integrated_at = vec![0usize; rep.result.releases.len()];
        for &r in rep.result.integrated.values() {
            integrated_at[r as usize] += 1;
        }
        let releases = rep
            .result
            .releases
            .iter()
            .zip(integrated_at)
            .map(|(id, n)| (id.version.to_string(), n))
            .collect();
        FleetOracle {
            cluster_of,
            reps,
            problem_app,
            sizes,
            problem_reps,
            failed: rep.result.failed_validations,
            package: world.upgrade.package.name.clone(),
            releases,
        }
    }

    fn planted_failure(&self, machine: &str, signature: &str) -> bool {
        self.reps.contains(machine)
            && self
                .problem_app
                .get(machine)
                .is_some_and(|app| names_app(signature, app))
    }
}

impl Oracle for FleetOracle {
    fn check(&self, request: &UrrRequest, response: &UrrResponse) -> Vec<String> {
        let mut problems = Vec::new();
        match (request, response) {
            (UrrRequest::FailureGroups | UrrRequest::TopK(_), UrrResponse::Groups(groups)) => {
                problems.extend(group_shape(request, groups));
                for g in groups {
                    for m in &g.machines {
                        if !self.planted_failure(m, &g.signature) {
                            problems.push(format!("{request:?}: {m} is not a planted failure"));
                        }
                    }
                    let clusters: BTreeSet<usize> = g
                        .machines
                        .iter()
                        .filter_map(|m| self.cluster_of.get(m).copied())
                        .collect();
                    if g.clusters != clusters.into_iter().collect::<Vec<_>>() {
                        problems.push(format!("{request:?}: clusters of {} disagree", g.signature));
                    }
                }
                let total: usize = groups.iter().map(|g| g.count).sum();
                if matches!(request, UrrRequest::FailureGroups) && total != self.failed {
                    problems.push(format!(
                        "failure groups hold {total} reports, expected {}",
                        self.failed
                    ));
                }
            }
            (UrrRequest::ClusterRates, UrrResponse::Rates(rates)) => {
                let ids: Vec<usize> = rates.iter().map(|r| r.cluster).collect();
                if ids != self.sizes.keys().copied().collect::<Vec<_>>() {
                    problems.push("cluster rates do not cover exactly the plan's clusters".into());
                }
                let mut failures = 0;
                for r in rates {
                    failures += r.failures;
                    if Some(&r.successes) != self.sizes.get(&r.cluster)
                        || r.failures > self.problem_reps.get(&r.cluster).copied().unwrap_or(0)
                    {
                        problems.push(format!("cluster {} tallies disagree: {r:?}", r.cluster));
                    }
                }
                if failures != self.failed {
                    problems.push(format!(
                        "cluster rates hold {failures} failures, expected {}",
                        self.failed
                    ));
                }
            }
            (UrrRequest::MachinesForSignature { signature }, UrrResponse::Machines(machines)) => {
                match machines {
                    None if signature == UNKNOWN_SIGNATURE => {}
                    Some(ms) if signature != UNKNOWN_SIGNATURE && !ms.is_empty() => {
                        for m in ms {
                            if !self.planted_failure(m, signature) {
                                problems.push(format!(
                                    "drill-down {signature}: {m} is not a planted failure"
                                ));
                            }
                        }
                    }
                    other => problems.push(format!("drill-down {signature}: unexpected {other:?}")),
                }
            }
            (UrrRequest::ReleaseSummaries, UrrResponse::Releases(rs)) => {
                let got: Vec<(String, usize)> = rs
                    .iter()
                    .map(|r| (r.version.clone(), r.successes))
                    .collect();
                if got != self.releases || rs.iter().any(|r| r.package != self.package) {
                    problems.push(format!(
                        "release summaries {got:?}, expected {:?}",
                        self.releases
                    ));
                }
                let failures: usize = rs.iter().map(|r| r.failures).sum();
                if failures != self.failed {
                    problems.push(format!(
                        "releases hold {failures} failures, expected {}",
                        self.failed
                    ));
                }
            }
            _ => problems.push(format!("{request:?}: answer of the wrong kind")),
        }
        problems
    }
}

/// Median of a per-repetition layer series.
pub fn median_layer(reps: &[Ledger], layer: &str) -> f64 {
    let values: Vec<f64> = reps
        .iter()
        .filter_map(|l| l.times.get(layer).copied())
        .collect();
    median(&values)
}
