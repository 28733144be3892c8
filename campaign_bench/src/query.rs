//! The closed-loop vendor query client: one caller, serialized requests
//! through `UrrSnapshot::serve`, every answer decoded and checked.

use std::collections::HashMap;
use std::time::Instant;

use mirage_report::{FailureGroup, UrrRequest, UrrResponse, UrrSnapshot};

use crate::stats::{percentile, Checks, Rng};

/// A signature no campaign produces: its drill-down must answer `None`.
pub const UNKNOWN_SIGNATURE: &str = "no-such-app/no such failure";

/// Judges one decoded answer against tallies the benchmark keeps from
/// the generator's ground truth.
pub trait Oracle {
    fn check(&self, request: &UrrRequest, response: &UrrResponse) -> Vec<String>;
}

/// Request kinds with their share of every round of ten requests: the
/// five request kinds of the vendor protocol in equal shares, the
/// drill-downs split between a signature the repository holds and one it
/// does not. No record of how vendors query a report repository was at
/// hand, so equal shares are an assumption, not a measured mix.
const ROUND: [(Kind, usize); 6] = [
    (Kind::TopK, 2),
    (Kind::ClusterRates, 2),
    (Kind::FailureGroups, 2),
    (Kind::Drilldown, 1),
    (Kind::UnknownDrilldown, 1),
    (Kind::Releases, 2),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    TopK,
    ClusterRates,
    FailureGroups,
    /// `MachinesForSignature` for a signature the repository holds.
    Drilldown,
    /// `MachinesForSignature` for a signature it does not hold.
    UnknownDrilldown,
    Releases,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::TopK,
        Kind::ClusterRates,
        Kind::FailureGroups,
        Kind::Drilldown,
        Kind::UnknownDrilldown,
        Kind::Releases,
    ];

    /// The per-layer metric holding this kind's median latency.
    pub fn metric(self) -> Option<&'static str> {
        match self {
            Kind::TopK => Some("report.serve_topk_p50_us"),
            Kind::ClusterRates => Some("report.serve_cluster_rates_p50_us"),
            Kind::FailureGroups => Some("report.serve_failure_groups_p50_us"),
            Kind::Drilldown => Some("report.serve_drilldown_p50_us"),
            Kind::UnknownDrilldown | Kind::Releases => None,
        }
    }
}

/// Seeded rounds of requests; each round holds the same kinds in the
/// same proportions, with seeded parameters and order. `signatures` are
/// the repository's failure signatures (a drill-down with none to choose
/// from asks for the unknown one).
pub fn request_rounds(seed: u64, signatures: &[String], rounds: usize) -> Vec<(Kind, UrrRequest)> {
    let mut rng = Rng::new(seed ^ 0x51E7_0000);
    let unknown = || UrrRequest::MachinesForSignature {
        signature: UNKNOWN_SIGNATURE.to_string(),
    };
    let mut out = Vec::with_capacity(rounds * 10);
    for _ in 0..rounds {
        let mut round = Vec::with_capacity(10);
        for &(kind, n) in &ROUND {
            for _ in 0..n {
                let request = match kind {
                    Kind::TopK => UrrRequest::TopK(1 + rng.below(5)),
                    Kind::ClusterRates => UrrRequest::ClusterRates,
                    Kind::FailureGroups => UrrRequest::FailureGroups,
                    Kind::Drilldown if !signatures.is_empty() => {
                        let pick = rng.below(signatures.len() as u64) as usize;
                        UrrRequest::MachinesForSignature {
                            signature: signatures[pick].clone(),
                        }
                    }
                    Kind::Drilldown | Kind::UnknownDrilldown => unknown(),
                    Kind::Releases => UrrRequest::ReleaseSummaries,
                };
                round.push((kind, request));
            }
        }
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// Latencies kept for the percentiles: a uniform reservoir, so memory
/// stays the same however many requests a run issues.
const RESERVOIR: usize = 200_000;

/// A uniform sample (µs) of request latencies with their request kinds.
pub struct Latencies {
    us: Vec<f64>,
    kinds: Vec<Kind>,
    seen: u64,
    rng: Rng,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            us: Vec::with_capacity(RESERVOIR),
            kinds: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Rng::new(0x1A7E),
        }
    }
}

impl Latencies {
    fn push(&mut self, kind: Kind, us: f64) {
        self.seen += 1;
        if self.us.len() < RESERVOIR {
            self.us.push(us);
            self.kinds.push(kind);
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if slot < RESERVOIR {
                self.us[slot] = us;
                self.kinds[slot] = kind;
            }
        }
    }

    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.us, q)
    }

    pub fn kind_percentile(&self, kind: Kind, q: f64) -> f64 {
        let of_kind: Vec<f64> = self
            .us
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(&v, _)| v)
            .collect();
        percentile(&of_kind, q)
    }
}

/// Issues whole passes over `requests` against `snapshot`, each request
/// only after the previous answer arrived, until `budget_s` has passed
/// (at least one pass). Each latency runs from `serve` to the decoded
/// response and is kept in `into`, if given. An answer is checked by the
/// oracle once per distinct request; every repeat must then match the
/// checked answer byte for byte. `corrupt` replaces the first answer with
/// a wrong one (the checker's self-test).
pub fn run_queries(
    snapshot: &UrrSnapshot,
    requests: &[(Kind, UrrRequest)],
    oracle: &dyn Oracle,
    budget_s: f64,
    corrupt: bool,
    checks: &mut Checks,
    mut into: Option<&mut Latencies>,
) {
    let frames: Vec<(Kind, &UrrRequest, Vec<u8>)> = requests
        .iter()
        .map(|(kind, r)| (*kind, r, r.to_frame()))
        .collect();
    let mut verified: HashMap<&[u8], Vec<u8>> = HashMap::new();
    let started = Instant::now();
    let mut first = true;
    loop {
        for (kind, request, frame) in &frames {
            let t = Instant::now();
            let answer = snapshot.serve(frame).map_err(|e| e.to_string());
            let decoded = answer
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|bytes| UrrResponse::from_frame(bytes).map_err(|e| e.to_string()));
            let us = t.elapsed().as_secs_f64() * 1e6;
            if let Some(into) = into.as_deref_mut() {
                into.push(*kind, us);
            }
            let problems = match decoded {
                Err(e) => vec![format!("{request:?}: undecodable answer: {e}")],
                Ok(_) if corrupt && first => {
                    let wrong = UrrResponse::Machines(Some(vec!["not-a-machine".into()]));
                    oracle.check(request, &wrong)
                }
                Ok(response) => {
                    let bytes = answer.expect("decoded answers were served");
                    match verified.get(frame.as_slice()) {
                        Some(known) if *known == bytes => Vec::new(),
                        Some(_) => vec![format!("{request:?}: answer changed between requests")],
                        None => {
                            let problems = oracle.check(request, &response);
                            if problems.is_empty() {
                                verified.insert(frame.as_slice(), bytes);
                            }
                            problems
                        }
                    }
                }
            };
            first = false;
            checks.operation(problems);
        }
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
}

/// Checks shared by every oracle for a list of failure groups: counts
/// are non-increasing for top-k answers and each signature appears once.
pub fn group_shape(request: &UrrRequest, groups: &[FailureGroup]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for g in groups {
        if !seen.insert(g.signature.as_str()) {
            problems.push(format!(
                "{request:?}: signature {} listed twice",
                g.signature
            ));
        }
        if g.count != g.machines.len() {
            problems.push(format!(
                "{request:?}: group {} counts {} reports from {} machines",
                g.signature,
                g.count,
                g.machines.len()
            ));
        }
    }
    if let UrrRequest::TopK(k) = request {
        if groups.len() as u64 > *k {
            problems.push(format!("top-{k} returned {} groups", groups.len()));
        }
        if groups.windows(2).any(|w| w[0].count < w[1].count) {
            problems.push(format!("top-{k} is not ordered by count"));
        }
    }
    problems
}
