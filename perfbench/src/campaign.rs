//! The campaign workloads, `notify_email` and `notify_mx`: one campaign
//! in flight at a time over a world built once, closed loop.

use crate::layers::{self, counter, secs, Layers, Replay};
use crate::stats::{median, Report};
use crate::Args;
use mailval_bench::NOTIFY_MX_DRIFT;
use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_measure::campaign::{
    drift_profiles, sample_host_profiles, CampaignConfig, CampaignKind, CampaignResult,
    CampaignWorld,
};
use mailval_measure::{SessionOutcome, ALL_TESTS};
use mailval_mta::profile::MtaProfile;
use std::time::{Duration, Instant};

/// The paper's NotifyEmail domain count, which population scales are
/// relative to.
const PAPER_DOMAINS: f64 = 26_695.0;

/// What a campaign workload runs.
pub struct Spec {
    /// Campaign kind.
    pub kind: CampaignKind,
    /// NotifyEmail domains the population is scaled to.
    pub domains: f64,
    /// Shard threads of the traced run's fan-out campaigns, which
    /// measure the shard layer.
    pub fanout_shards: usize,
}

/// `notify_email`: the crypto-bound delivery campaign on one thread.
pub const NOTIFY_EMAIL: Spec = Spec {
    kind: CampaignKind::NotifyEmail,
    domains: 1_000.0,
    fanout_shards: 1,
};

/// `notify_mx`: the probe campaign with all 39 test policies over
/// drifted profiles. End to end it runs on one thread, like every
/// campaign here (the default shard count): on two shard threads its
/// throughput spread over seeds was two to three times wider. The
/// traced run fans it out over two.
pub const NOTIFY_MX: Spec = Spec {
    kind: CampaignKind::NotifyMx,
    domains: 500.0,
    fanout_shards: 2,
};

/// Fewest measured campaigns per run, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// A built workload: its population, profiles and world.
struct Built {
    pop: Population,
    profiles: Vec<MtaProfile>,
    world: CampaignWorld,
    population_s: f64,
    profiles_s: f64,
}

fn config(spec: &Spec, seed: u64) -> CampaignConfig {
    let tests = match spec.kind {
        CampaignKind::NotifyEmail => Vec::new(),
        _ => ALL_TESTS.iter().map(|t| t.id).collect(),
    };
    CampaignConfig {
        kind: spec.kind,
        tests,
        seed,
        ..CampaignConfig::default()
    }
}

/// Population, profiles and world: the set-up `setup_s` times.
fn build(spec: &Spec, seed: u64) -> Built {
    let start = Instant::now();
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: spec.domains / PAPER_DOMAINS,
        seed,
    });
    let population_s = secs(start);
    let start = Instant::now();
    let base = sample_host_profiles(&pop, seed);
    let profiles = match spec.kind {
        CampaignKind::NotifyEmail => base,
        _ => drift_profiles(&pop, &base, NOTIFY_MX_DRIFT, seed),
    };
    let profiles_s = secs(start);
    let world = CampaignWorld::build(&config(spec, seed), &pop, &profiles);
    Built {
        pop,
        profiles,
        world,
        population_s,
        profiles_s,
    }
}

fn failed_sessions(result: &CampaignResult) -> u64 {
    result
        .sessions
        .iter()
        .filter(|s| s.termination != SessionOutcome::Completed)
        .count() as u64
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`
/// at the kernel's 100 ticks per second.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The seed of the `i`-th extra set-up of a run: its own world, so the
/// `setup_s` median does not hang on one key generation's prime search.
fn setup_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The end-to-end run: set up, run one warm-up campaign, then run
/// campaigns back to back for `--seconds`, each after one more timed
/// set-up from a seed of its own. A campaign is this workload's output,
/// so `render_s` is its wall time.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) {
    let start = Instant::now();
    let world = build(spec, args.seed).world;
    let mut setup_s = vec![secs(start)];
    let exec = world.config().clone();
    let reference = world.run(&exec).content_hash();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut sps, mut render_s, mut peak_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut hashes_equal = true;
    while sps.len() < MIN_RUNS || Instant::now() < deadline {
        let start = Instant::now();
        let extra = build(spec, setup_seed(args.seed, setup_s.len()));
        setup_s.push(secs(start));
        drop(extra);

        // The peak of the campaign alone: the extra set-up above would
        // otherwise hold a second world next to the measured one.
        crate::reset_peak_rss();
        let start = Instant::now();
        let result = world.run(&exec);
        let wall = secs(start);
        peak_mb.push(crate::peak_rss_mb());
        sps.push(result.sessions.len() as f64 / wall);
        render_s.push(wall);
        report.attempted += result.sessions.len() as u64;
        report.failed += failed_sessions(&result);
        hashes_equal &= result.content_hash() == reference;
    }
    report.check(
        "content_hash.matches_warmup",
        hashes_equal,
        format!("{} runs", sps.len()),
    );

    let completed = report.attempted - report.failed;
    report.best_metric("sessions_per_s", &sps, "1/s", true);
    report.best_metric("render_s", &render_s, "s", false);
    report.median_metric("setup_s", &setup_s, "s");
    report.metric(
        "peak_rss_mb",
        peak_mb.iter().copied().fold(0.0, f64::max),
        "MB",
    );
    report.metric(
        "completed_share",
        completed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
}

/// The traced run: untraced, traced and fanned-out campaigns take turns
/// for `--seconds`, then each layer is replayed on this workload's
/// inputs.
pub fn trace(spec: &Spec, args: &Args, report: &mut Report) -> Layers {
    let mut layers = Layers::default();
    let Built {
        pop,
        profiles,
        world,
        population_s,
        profiles_s,
    } = build(spec, args.seed);
    layers.set("datasets.population_s", population_s);
    layers.set("datasets.profiles_s", profiles_s);
    layers.set("world.build_s", world.build_seconds());

    let plain = world.config().clone();
    let mut traced_cfg = plain.clone();
    traced_cfg.telemetry.tracing = true;
    let fanout_cfg = CampaignConfig {
        shards: spec.fanout_shards,
        ..plain.clone()
    };
    let reference = world.run(&plain).content_hash();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain_sps, mut traced_sps, mut simulate_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut merge_s, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_equal, mut traced_equal, mut fanout_equal) = (true, true, true);
    let mut traced = None;
    while plain_sps.len() < 2 || Instant::now() < deadline {
        let start = Instant::now();
        let r = world.run(&plain);
        plain_sps.push(r.sessions.len() as f64 / secs(start));
        simulate_s.push(r.phases.simulate_s);
        plain_equal &= r.content_hash() == reference;
        report.attempted += r.sessions.len() as u64;
        report.failed += failed_sessions(&r);
        drop(r);

        drop(traced.take());
        let start = Instant::now();
        let t = world.run(&traced_cfg);
        traced_sps.push(t.sessions.len() as f64 / secs(start));
        traced_equal &= t.content_hash() == reference;
        traced = Some(t);

        // The shard layer: the same campaign fanned out over
        // `fanout_shards` threads, which must not change its output.
        let cpu = cpu_seconds();
        let start = Instant::now();
        let f = world.run(&fanout_cfg);
        busy.push((cpu_seconds() - cpu) / (secs(start) * spec.fanout_shards as f64));
        merge_s.push(f.phases.merge_s);
        let walls: Vec<f64> = f.shard_stats.iter().map(|s| s.wall_ms).collect();
        if walls.len() > 1 {
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            imbalance.push(walls.iter().copied().fold(0.0, f64::max) / mean);
        }
        fanout_equal &= f.content_hash() == reference;
    }
    let traced = traced.expect("at least one traced run");
    report.check(
        "content_hash.matches_warmup",
        plain_equal,
        format!("{} untraced runs", plain_sps.len()),
    );
    report.check(
        "content_hash.traced_matches_untraced",
        traced_equal,
        format!("{} traced runs", traced_sps.len()),
    );
    report.check(
        "content_hash.shards_agree",
        fanout_equal,
        format!("{} runs on {} shard(s)", busy.len(), spec.fanout_shards),
    );

    let simulate = median(&simulate_s);
    layers.set("engine.events", traced.events as f64);
    layers.set("engine.simulate_s", simulate);
    layers.set("shard.merge_s", median(&merge_s));
    if !imbalance.is_empty() {
        layers.set("shard.imbalance", median(&imbalance));
    }
    layers.set("process.cpu_busy_share", median(&busy));
    layers.set(
        "telemetry.overhead",
        median(&plain_sps) / median(&traced_sps) - 1.0,
    );
    layers.set("dns.lookups", counter(&traced, "dns_lookups") as f64);
    layers.set(
        "dns.cache_hit_ratio",
        traced
            .telemetry
            .as_ref()
            .and_then(|t| t.metrics.cache_hit_rate())
            .unwrap_or(0.0),
    );
    layers.set(
        "dns.tcp_fallbacks",
        counter(&traced, "dns_tcp_fallbacks") as f64,
    );
    layers.set(
        "dns.timeouts",
        counter(&traced, "dns_outcome_timeout") as f64,
    );
    layers.set("smtp.commands", counter(&traced, "smtp_commands") as f64);
    layers.set("smtp.replies", counter(&traced, "smtp_replies") as f64);

    let replay = Replay::new(args.seed, &pop, &profiles, &mut layers);
    replay.rsa(&mut layers);
    let dkim_ok = replay.dkim(&traced, &mut layers);
    replay.spf(&traced, &mut layers);
    let dns_ok = replay.dns(&traced.log, &mut layers);
    let dmarc_s = replay.dmarc(&traced, &mut layers);
    report.check(
        "dkim.replay_verifies",
        dkim_ok,
        "replayed signatures verify",
    );
    report.check(
        "dns.replay_decodes",
        dns_ok,
        "every replayed answer decodes",
    );

    // Signed messages, from the program's own output: every session of
    // a NotifyEmail campaign sends a message and none of a NotifyMx
    // campaign does, and every message that reached a DKIM-validating
    // MTA verified as signed there.
    let signatures = layers.0["dkim.signatures"] as usize;
    let expected = match spec.kind {
        CampaignKind::NotifyEmail => traced.sessions.len(),
        _ => 0,
    };
    let at_validators = traced
        .sessions
        .iter()
        .filter(|s| layers::sent_message(s) && profiles[s.host_index].combo.dkim)
        .count() as u64;
    let (pass, fail) = (counter(&traced, "dkim_pass"), counter(&traced, "dkim_fail"));
    report.check(
        "dkim.signatures",
        signatures == expected && pass == at_validators && fail == 0,
        format!(
            "{signatures} messages sent, expected {expected}; {pass} of the \
             {at_validators} at DKIM-validating MTAs verified as signed, {fail} did not"
        ),
    );

    let attributed =
        layers.0["dkim.total_s"] + layers.0["spf.total_s"] + layers.0["dns.total_s"] + dmarc_s;
    // The untraced runs use one thread, so simulate time is the time
    // the layers had.
    layers.set("engine.unattributed_share", 1.0 - attributed / simulate);

    if spec.kind == CampaignKind::NotifyMx {
        let dir = crate::work_dir().join("journal");
        let written = layers::journal(&traced, &dir, &mut layers);
        report.check(
            "journal.replay_writes",
            written.is_ok(),
            written
                .err()
                .map_or("frames appended".to_string(), |e| e.to_string()),
        );
    }
    report.check(
        "shard.imbalance",
        layers.0.contains_key("shard.imbalance") == (spec.fanout_shards > 1),
        format!(
            "measured only with more than one thread ({} here)",
            spec.fanout_shards
        ),
    );
    layers
}
