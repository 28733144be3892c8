//! Seeded world generators. The fleet shape is data; the harness in
//! `fleet.rs`/`sim.rs` is code (the Dfuntest split). The program only
//! ever receives what these functions build: machines from the
//! `mirage_scenarios` builders, a vendor, an upgrade, and drift deltas.
//!
//! Every count (machines per variant, problem machines, duplicates) is a
//! fixed share of the fleet, so the work a campaign does barely depends
//! on the seed; the seed chooses *which* machines carry what.

use std::collections::BTreeMap;

use mirage_cluster::{DriftOp, MachineDelta};
use mirage_core::{UserAgent, Vendor};
use mirage_env::{File, FileContent, IniLine, Package, Repository, RunInput, Upgrade, Version};
use mirage_fingerprint::parsers::mirage_default_registry;
use mirage_fingerprint::{Item, MachineFingerprint};
use mirage_scenarios::{firefox, mysql};

use crate::stats::Rng;

/// A problem the generator planted, and the application it breaks: a
/// failure report for it must carry a `"{app}/..."` signature.
#[derive(Debug, Clone, Copy)]
pub struct Planted {
    pub id: &'static str,
    pub app: &'static str,
}

/// A generated real-machine world: vendor, built (untraced) fleet,
/// upgrade, and the ground truth the checks judge against.
pub struct FleetWorld {
    pub vendor: Vendor,
    pub reference: MachineFingerprint,
    pub agents: Vec<UserAgent>,
    pub upgrade: Upgrade,
    pub app: &'static str,
    pub trace_inputs: [&'static str; 2],
    pub planted: Vec<Planted>,
    /// Machine name → index into `planted`, for every problem machine.
    pub problem_of: BTreeMap<String, usize>,
}

impl FleetWorld {
    fn finish(
        vendor: Vendor,
        agents: Vec<UserAgent>,
        upgrade: Upgrade,
        app: &'static str,
        trace_inputs: [&'static str; 2],
        planted: Vec<Planted>,
        problem_of: BTreeMap<String, usize>,
    ) -> Self {
        let inputs: Vec<RunInput> = trace_inputs.iter().map(|i| RunInput::new(*i)).collect();
        let classification = vendor.classify_reference(app, &inputs);
        let reference = vendor.reference_fingerprint(&classification);
        FleetWorld {
            vendor,
            reference,
            agents,
            upgrade,
            app,
            trace_inputs,
            planted,
            problem_of,
        }
    }
}

/// Firefox versions installed across the dense fleet: each one is a
/// parsed-environment variant (executable build + `libxul` version).
const FIREFOX_BUILDS: [u32; 2] = [6, 7];

fn firefox_repository(patch: u32) -> Repository {
    let mut repo = Repository::new();
    let build = 1500 + u64::from(patch);
    repo.publish(
        Package::new("firefox", Version::new(1, 5, patch))
            .with_file(File::executable("/usr/bin/firefox", "firefox", build))
            .with_file(File::library(
                "/usr/lib/libxul.so",
                "libxul",
                format!("1.5.0.{patch}"),
                build,
            )),
    );
    repo
}

/// `fleet-dense`: `n` Firefox machines in two version variants. With
/// Mirage's own parsers the preference files are Rabin-chunked, so each
/// machine's `prefs.js` noise (update timestamp, window width, Java
/// switch) is unparsed variation; a fixed share are exact duplicates of
/// an earlier machine. Machines upgraded from 1.0.x carry the legacy
/// `user.js` + `localstore.rdf` (the planted `ff2-legacy-prefs`
/// problem): at least three content items away from any clean machine,
/// so diameter 2 must keep them apart while merging each variant's clean
/// machines.
pub fn firefox_dense(seed: u64, n: usize) -> FleetWorld {
    const PROBLEM_SHARE: f64 = 0.10;
    const DUPLICATE_SHARE: f64 = 0.25;
    const NOJAVA_SHARE: f64 = 0.20;
    let mut rng = Rng::new(seed);
    let vendor_repo = firefox::repository();
    let vendor = Vendor::new(firefox::vendor_reference(&vendor_repo), vendor_repo)
        .with_registry(mirage_default_registry())
        .with_diameter(2);
    let repos: Vec<Repository> = FIREFOX_BUILDS
        .iter()
        .map(|&p| firefox_repository(p))
        .collect();
    let planted = vec![Planted {
        id: "ff2-legacy-prefs",
        app: "firefox",
    }];
    let mut problem_of = BTreeMap::new();
    let mut agents = Vec::with_capacity(n);
    let per_variant = n / repos.len();
    for (v, repo) in repos.iter().enumerate() {
        let count = if v + 1 == repos.len() {
            n - per_variant * v
        } else {
            per_variant
        };
        let legacy = round_share(count, PROBLEM_SHARE);
        let mut from10: Vec<bool> = (0..count).map(|i| i < legacy).collect();
        rng.shuffle(&mut from10);
        let duplicates = round_share(count, DUPLICATE_SHARE);
        let mut is_dup: Vec<bool> = (0..count).map(|i| i < duplicates).collect();
        rng.shuffle(&mut is_dup);
        // A duplicate copies an earlier machine with the same problem
        // status, so the planted count stays exact.
        let mut configs: Vec<(bool, bool, u64)> = Vec::with_capacity(count);
        for i in 0..count {
            let twins: Vec<usize> = if is_dup[i] {
                (0..i).filter(|&j| configs[j].0 == from10[i]).collect()
            } else {
                Vec::new()
            };
            configs.push(if twins.is_empty() {
                (from10[i], rng.chance(NOJAVA_SHARE), 1 + rng.below(1 << 40))
            } else {
                configs[twins[rng.below(twins.len() as u64) as usize]]
            });
        }
        for (i, &(from10, nojava, noise)) in configs.iter().enumerate() {
            let name = format!("ff{v}-{i:05}");
            let config = firefox::MachineConfig {
                name: "generated",
                from10,
                nojava,
                noise,
            };
            let mut machine = firefox::build_machine(&config, repo);
            machine.id = name.clone();
            if from10 {
                problem_of.insert(name, 0);
            }
            agents.push(UserAgent::new(machine));
        }
    }
    FleetWorld::finish(
        vendor,
        agents,
        firefox::firefox2_upgrade(),
        "firefox",
        ["browse-1", "browse-2"],
        planted,
        problem_of,
    )
}

/// `fleet-diverse`: `n` MySQL machines from the Table 2 builder whose
/// parsed environments are nearly all distinct: distribution, libc
/// version, one of five `my.cnf` variants, and seeded tuning values in
/// `[mysqld]` (parsed by the vendor's INI parser). Problems are planted
/// as in Table 2: PHP 4 installed (`php-broken-dep`, optionally with
/// Apache 1.3.9) and a legacy `$HOME/.my.cnf` (`mycnf-legacy`).
pub fn mysql_diverse(seed: u64, n: usize) -> FleetWorld {
    const PHP_SHARE: f64 = 0.03;
    const USER_CONFIG_SHARE: f64 = 0.01;
    let mut rng = Rng::new(seed);
    let repo = mysql::repository();
    let vendor = Vendor::new(mysql::vendor_reference(&repo), repo)
        .with_registry(mysql::full_registry())
        .with_diameter(3);
    let planted = vec![
        Planted {
            id: "php-broken-dep",
            app: "php",
        },
        Planted {
            id: "mycnf-legacy",
            app: "mysqld",
        },
    ];
    let php = round_share(n, PHP_SHARE);
    let user_config = round_share(n, USER_CONFIG_SHARE);
    let mut role: Vec<u8> = (0..n)
        .map(|i| {
            if i < php {
                1
            } else if i < php + user_config {
                2
            } else {
                0
            }
        })
        .collect();
    rng.shuffle(&mut role);
    let variants = [
        mysql::MyCnf::Standard,
        mysql::MyCnf::CommentAdded,
        mysql::MyCnf::CommentDeleted,
        mysql::MyCnf::DirectiveAdded,
        mysql::MyCnf::DirectiveDeleted,
    ];
    let mut problem_of = BTreeMap::new();
    let mut agents = Vec::with_capacity(n);
    for (i, &role) in role.iter().enumerate() {
        let distro = if rng.chance(0.5) {
            mysql::Distro::Fc5
        } else {
            mysql::Distro::Ubt
        };
        let config = mysql::MachineConfig {
            name: "generated",
            distro,
            libc_upgraded: distro == mysql::Distro::Ubt && rng.chance(0.3),
            mycnf: variants[rng.below(variants.len() as u64) as usize],
            user_config: role == 2,
            php4: role == 1,
            ap139: role == 1 && rng.chance(0.5),
        };
        let mut machine = mysql::build_machine(&config, &vendor.repo);
        let name = format!("my-{i:05}");
        machine.id = name.clone();
        tune_mycnf(&mut machine, &mut rng);
        if role > 0 {
            problem_of.insert(name, usize::from(role - 1));
        }
        agents.push(UserAgent::new(machine));
    }
    FleetWorld::finish(
        vendor,
        agents,
        mysql::mysql5_upgrade(),
        "mysqld",
        ["startup-1", "startup-2"],
        planted,
        problem_of,
    )
}

/// Adds seeded tuning values to the `[mysqld]` section of a machine's
/// `my.cnf`: the administrator's own settings, which make nearly every
/// parsed environment distinct.
fn tune_mycnf(machine: &mut mirage_env::Machine, rng: &mut Rng) {
    const PATH: &str = "/etc/mysql/my.cnf";
    let Some(file) = machine.fs.get(PATH) else {
        return;
    };
    let mut file = file.clone();
    if let FileContent::Ini(doc) = &mut file.content {
        let at = doc
            .lines
            .iter()
            .position(|l| matches!(l, IniLine::Section(s) if s == "mysqld"))
            .map_or(doc.lines.len(), |p| p + 1);
        let tuning = [
            ("max_connections", format!("{}", 50 + rng.below(1950))),
            ("key_buffer_size", format!("{}M", 8 + rng.below(504))),
        ];
        for (k, (key, value)) in tuning.into_iter().enumerate() {
            doc.lines
                .insert(at + k, IniLine::KeyValue(key.to_string(), value));
        }
    }
    machine.fs.insert(file);
}

/// Seeded drift after a `fleet-diverse` rollout: every machine changes
/// at least once (a shuffled pass over the fleet) and a fifth of the
/// fleet changes twice. Each delta is a package install (a parsed
/// library item) or a configuration edit (a Rabin chunk of a local
/// `conf.d` file).
pub fn drift_deltas(seed: u64, machines: &[String]) -> Vec<MachineDelta> {
    let mut rng = Rng::new(seed ^ 0xD21F_7000);
    let mut order: Vec<usize> = (0..machines.len()).collect();
    rng.shuffle(&mut order);
    let extra = machines.len() / 5;
    order.extend(rng.sample(machines.len(), extra));
    order
        .into_iter()
        .map(|i| {
            let op = if rng.chance(0.5) {
                let lib = ["libssl", "libz", "libaio", "libwrap"][rng.below(4) as usize];
                let version = format!("1.{}", rng.below(3));
                DriftOp::Install {
                    parsed: vec![Item::new([
                        format!("/usr/lib/{lib}.so").as_str(),
                        "lib",
                        version.as_str(),
                        format!("{:08x}", rng.below(1 << 32)).as_str(),
                    ])],
                    content: Vec::new(),
                }
            } else {
                DriftOp::ConfigEdit {
                    add: vec![Item::new([
                        "/etc/mysql/conf.d/local.cnf",
                        "chunk",
                        format!("{:016x}", rng.next_u64()).as_str(),
                    ])],
                    remove: Vec::new(),
                }
            };
            MachineDelta {
                machine: machines[i].clone(),
                op,
            }
        })
        .collect()
}

fn round_share(n: usize, share: f64) -> usize {
    (n as f64 * share).round() as usize
}
