//! The simulated workload (`sim-guarded`): the paper's §4.3 problem
//! placement scaled to 100 clusters of 10,000 machines, driven as a
//! guarded `Staged` (Balanced) rollout whose every report is journaled
//! by a durable repository; then the vendor crashes and recovers from a
//! fork of its store.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mirage_deploy::ProtocolChoice;
use mirage_report::{
    DurableConfig, DurableUrr, MemoryStore, RecoveryReport, Report, UrrRequest, UrrResponse,
};
use mirage_rollout::{GuardSettings, RolloutStatus, RolloutStrategy};
use mirage_sim::{run_rollout, Scenario, ScenarioBuilder};
use mirage_telemetry::{Registry, Telemetry};

use crate::query::{group_shape, Oracle, UNKNOWN_SIGNATURE};
use crate::stats::{secs, Rng};

pub const CLUSTERS: usize = 100;
pub const CLUSTER_SIZE: usize = 10_000;
/// Write a compacted snapshot after this many journaled batches (the
/// simulator journals 4,096-report batches, so about every 262k reports).
const SNAPSHOT_EVERY_BATCHES: u64 = 64;
/// Lock stripes of the repository, pinned so the host's thread count
/// does not change the stored layout.
const SHARDS: usize = 4;

/// The §4.3 problems: one prevalent problem in 15% of the clusters and
/// two rare problems of one cluster each, placed by the seed.
pub struct SimWorld {
    pub scenario: Scenario,
    /// Problem name → clusters carrying it.
    pub problems: Vec<(&'static str, Vec<usize>)>,
}

pub fn world(seed: u64) -> SimWorld {
    let mut rng = Rng::new(seed ^ 0x5143_0000);
    let placed = rng.sample(CLUSTERS, 17);
    let mut prevalent = placed[..15].to_vec();
    prevalent.sort_unstable();
    let problems = vec![
        ("prevalent", prevalent),
        ("rare-a", vec![placed[15]]),
        ("rare-b", vec![placed[16]]),
    ];
    let mut builder = ScenarioBuilder::new()
        .clusters(CLUSTERS, CLUSTER_SIZE, 1)
        .with_workers(1)
        .with_strategy(RolloutStrategy::Staged { waves: 10 })
        .with_guard(guard());
    for (name, clusters) in &problems {
        builder = builder.problem_in_clusters(name, clusters);
    }
    SimWorld {
        scenario: builder.build(),
        problems,
    }
}

/// Guard thresholds: a representative's failure must trigger a fix, not
/// an abort, so a healthy staged rollout ends `Clean`.
fn guard() -> GuardSettings {
    GuardSettings {
        max_cluster_failure_rate: 0.3,
        max_failure_population: CLUSTERS / 2,
        min_reports: 5,
        unhealthy_ticks: 2,
        healthy_ticks: 1,
    }
}

pub fn durable_config(telemetry: Telemetry) -> DurableConfig {
    DurableConfig {
        shards: SHARDS,
        snapshot_every_batches: SNAPSHOT_EVERY_BATCHES,
        telemetry,
    }
}

pub struct SimRep {
    pub campaign_s: f64,
    pub rollout_s: f64,
    pub recover_s: f64,
    pub failed_tests: usize,
    pub recovered: DurableUrr,
    pub recovery: RecoveryReport,
    pub wal_frames: f64,
    pub wal_bytes: f64,
    pub problems: Vec<String>,
}

/// One repetition: journaled guarded rollout → crash → recovery. The
/// checks after the timed part compare the recovered repository with the
/// live one on every request kind.
pub fn repetition(world: &mut SimWorld, traced: bool) -> SimRep {
    let registry = Arc::new(Registry::new(1024));
    let telemetry = if traced {
        Telemetry::from_registry(Arc::clone(&registry))
    } else {
        Telemetry::noop()
    };
    let store = MemoryStore::new();
    let handle = store.clone();
    let durable = Arc::new(
        DurableUrr::new(Box::new(store), durable_config(telemetry.clone()))
            .expect("memory store cannot fail"),
    );
    let scenario = &mut world.scenario;
    scenario.urr = Some(Arc::clone(durable.urr()));
    scenario.durable = Some(Arc::clone(&durable));

    let start = Instant::now();
    let (metrics, outcome) = run_rollout(scenario, ProtocolChoice::Balanced);
    let rollout_s = secs(start);
    let t = Instant::now();
    let crashed = handle.fork();
    let (recovered, recovery) = DurableUrr::recover(Box::new(crashed), durable_config(telemetry))
        .expect("memory store cannot fail");
    let recover_s = secs(t);
    let campaign_s = secs(start);

    scenario.urr = None;
    scenario.durable = None;
    let n = scenario.machine_count();
    let mut problems = Vec::new();
    if !metrics.converged(n) {
        problems.push(format!("{} of {n} machines passed", metrics.passed_count()));
    }
    if outcome.status != RolloutStatus::Clean || outcome.rollback.is_some() {
        problems.push(format!(
            "rollout ended {:?} ({:?})",
            outcome.status, outcome.reason
        ));
    }
    if metrics.failed_tests != world.problems.len() {
        problems.push(format!(
            "upgrade overhead {} for {} planted problems",
            metrics.failed_tests,
            world.problems.len()
        ));
    }
    let live = durable.urr();
    if live.stats().total != n + metrics.failed_tests {
        problems.push(format!(
            "repository holds {} reports, expected {}",
            live.stats().total,
            n + metrics.failed_tests
        ));
    }
    if let Some(reason) = &recovery.torn_tail {
        problems.push(format!("recovery stopped early: {reason}"));
    }
    let (live_view, back_view) = (live.snapshot(), recovered.urr().snapshot());
    let mut requests = vec![
        UrrRequest::Stats,
        UrrRequest::FailureGroups,
        UrrRequest::TopK(3),
        UrrRequest::ClusterRates,
        UrrRequest::FirstSeenIn {
            start: 0,
            end: live.next_seq(),
        },
        UrrRequest::ReleaseSummaries,
        UrrRequest::MachinesForSignature {
            signature: UNKNOWN_SIGNATURE.into(),
        },
    ];
    for (name, _) in &world.problems {
        requests.push(UrrRequest::MachinesForSignature {
            signature: name.to_string(),
        });
        requests.push(UrrRequest::ClustersForSignature {
            signature: name.to_string(),
        });
    }
    for request in &requests {
        let frame = request.to_frame();
        if live_view.serve(&frame).ok() != back_view.serve(&frame).ok() {
            problems.push(format!(
                "recovered repository answers {request:?} differently"
            ));
        }
    }
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    SimRep {
        campaign_s,
        rollout_s,
        recover_s,
        failed_tests: metrics.failed_tests,
        recovered,
        recovery,
        wal_frames: counter("urr.wal_frames"),
        wal_bytes: counter("urr.wal_bytes"),
        problems,
    }
}

/// Re-deposits `reports` through `durable` in the simulator's batch
/// size of 4,096; returns the ingest time.
pub fn reingest(durable: &DurableUrr, reports: Vec<Report>) -> f64 {
    let mut batches: Vec<Vec<Report>> = Vec::new();
    let mut it = reports.into_iter().peekable();
    while it.peek().is_some() {
        batches.push(it.by_ref().take(4096).collect());
    }
    let t = Instant::now();
    for batch in batches {
        durable
            .deposit_batch(batch)
            .expect("memory store cannot fail");
    }
    secs(t)
}

/// Exact tallies of a Balanced rollout over the placed problems: each
/// problem fails once, on the representative of the first cluster (in
/// distance order) that carries it, and every later cluster receives the
/// release that fixes it.
pub struct SimOracle {
    /// (signature, failing machine, cluster) in discovery order.
    failures: Vec<(String, String, usize)>,
    /// (version, successes, failures) per release.
    releases: Vec<(String, usize, usize)>,
}

impl SimOracle {
    pub fn new(world: &SimWorld) -> Self {
        let mut first: Vec<(usize, &str)> = world
            .problems
            .iter()
            .map(|(name, clusters)| (*clusters.iter().min().expect("placed"), *name))
            .collect();
        first.sort_unstable();
        let failures = first
            .iter()
            .map(|&(c, name)| (name.to_string(), format!("c{c:02}-m00000"), c))
            .collect();
        let mut bounds: Vec<usize> = first.iter().map(|&(c, _)| c).collect();
        bounds.insert(0, 0);
        bounds.push(CLUSTERS);
        let releases = bounds
            .windows(2)
            .enumerate()
            .map(|(r, w)| {
                let failed = usize::from(r < first.len());
                (format!("r{r}"), (w[1] - w[0]) * CLUSTER_SIZE, failed)
            })
            .collect();
        SimOracle { failures, releases }
    }

    pub fn signatures(&self) -> Vec<String> {
        self.failures.iter().map(|f| f.0.clone()).collect()
    }

    fn failures_in(&self) -> BTreeMap<usize, usize> {
        self.failures.iter().map(|f| (f.2, 1)).collect()
    }
}

impl Oracle for SimOracle {
    fn check(&self, request: &UrrRequest, response: &UrrResponse) -> Vec<String> {
        let mut problems = Vec::new();
        let expected_group = |sig: &str| self.failures.iter().find(|f| f.0 == sig);
        match (request, response) {
            (UrrRequest::FailureGroups | UrrRequest::TopK(_), UrrResponse::Groups(groups)) => {
                problems.extend(group_shape(request, groups));
                let want = match request {
                    UrrRequest::TopK(k) => self.failures.len().min(*k as usize),
                    _ => self.failures.len(),
                };
                if groups.len() != want {
                    problems.push(format!(
                        "{request:?}: {} groups, expected {want}",
                        groups.len()
                    ));
                }
                for (i, g) in groups.iter().enumerate() {
                    let ok = match expected_group(&g.signature) {
                        Some((_, machine, cluster)) => {
                            g.machines == [machine.clone()] && g.clusters == [*cluster]
                        }
                        None => false,
                    };
                    let in_order = !matches!(request, UrrRequest::FailureGroups)
                        || self.failures[i].0 == g.signature;
                    if !ok || !in_order {
                        problems.push(format!("{request:?}: unexpected group {g:?}"));
                    }
                }
            }
            (UrrRequest::ClusterRates, UrrResponse::Rates(rates)) => {
                let failed = self.failures_in();
                let ok = rates.len() == CLUSTERS
                    && rates.iter().enumerate().all(|(c, r)| {
                        r.cluster == c
                            && r.successes == CLUSTER_SIZE
                            && r.failures == failed.get(&c).copied().unwrap_or(0)
                    });
                if !ok {
                    problems.push("cluster rates disagree with the placement".into());
                }
            }
            (UrrRequest::MachinesForSignature { signature }, UrrResponse::Machines(machines)) => {
                let want = expected_group(signature).map(|f| vec![f.1.clone()]);
                if *machines != want {
                    problems.push(format!(
                        "drill-down {signature}: {machines:?}, expected {want:?}"
                    ));
                }
            }
            (UrrRequest::ReleaseSummaries, UrrResponse::Releases(rs)) => {
                let got: Vec<(String, usize, usize)> = rs
                    .iter()
                    .map(|r| (r.version.clone(), r.successes, r.failures))
                    .collect();
                if got != self.releases || rs.iter().any(|r| r.package != "upgrade") {
                    problems.push(format!(
                        "release summaries {got:?}, expected {:?}",
                        self.releases
                    ));
                }
            }
            _ => problems.push(format!("{request:?}: answer of the wrong kind")),
        }
        problems
    }
}
