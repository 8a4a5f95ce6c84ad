//! The `artifacts_warm` workload: every artifact rendered through a
//! fresh `Runner` from a store a cold render filled. No simulation.

use crate::layers::{secs, Layers};
use crate::stats::Report;
use crate::Args;
use mailval_bench::artifacts::ALL;
use mailval_bench::{provider_population, Env, Runner, NOTIFY_MX_DRIFT};
use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_measure::campaign::{drift_profiles, sample_host_profiles, CampaignResult};
use mailval_measure::store::{decode_entry, encode_entry, CampaignKey, CampaignStore, MAGIC};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Population scale of the workload (share of the paper's domain
/// counts).
pub const SCALE: f64 = 0.05;
/// Cold renders per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest measured warm renders per run.
const MIN_RENDERS: usize = 3;

fn env(scale: f64, seed: u64) -> Env {
    Env {
        scale,
        seed,
        shards: 1,
    }
}

/// Render every artifact, in registry order, through `runner`.
fn render_all(runner: &mut Runner) -> String {
    ALL.iter()
        .map(|a| format!("== {} ==\n{}\n", a.name, (a.render)(runner)))
        .collect()
}

/// Every campaign the runner resolved, in order, from its memo.
fn resolved(runner: &mut Runner) -> Vec<Rc<CampaignResult>> {
    let requests: Vec<_> = runner.history.iter().map(|(r, _)| r.clone()).collect();
    requests.iter().map(|r| runner.campaign(r)).collect()
}

/// Content hashes of every campaign the runner resolved, in order.
fn hashes(runner: &mut Runner) -> Vec<[u8; 32]> {
    resolved(runner).iter().map(|r| r.content_hash()).collect()
}

/// Session records the runner's campaigns hold.
fn sessions(runner: &mut Runner) -> usize {
    resolved(runner).iter().map(|r| r.sessions.len()).sum()
}

/// A cold render into a fresh store at `dir`.
fn cold(env: Env, dir: &Path) -> (String, Vec<[u8; 32]>) {
    let _ = std::fs::remove_dir_all(dir);
    let mut runner = Runner::new(env, Some(CampaignStore::new(dir)));
    let text = render_all(&mut runner);
    (text, hashes(&mut runner))
}

/// One warm render from the store at `dir`: the text, the runner, and
/// the render's wall seconds.
fn warm(env: Env, dir: &Path) -> (String, Runner, f64) {
    let start = Instant::now();
    let mut runner = Runner::new(env, Some(CampaignStore::new(dir)));
    let text = render_all(&mut runner);
    let wall = secs(start);
    (text, runner, wall)
}

fn store_dir(name: &str) -> PathBuf {
    crate::work_dir().join(name)
}

/// The end-to-end run: [`SETUP_REPEATS`] cold renders, one warm-up
/// warm render, then warm renders back to back for `--seconds`.
pub fn run(scale: f64, args: &Args, report: &mut Report) {
    let env = env(scale, args.seed);
    let dir = store_dir("store");
    let mut setup_s = Vec::new();
    let mut cold_result = None;
    let mut colds_equal = true;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let result = cold(env, &dir);
        setup_s.push(secs(start));
        colds_equal &= cold_result.as_ref().is_none_or(|c| *c == result);
        cold_result = Some(result);
    }
    let (cold_text, cold_hashes) = cold_result.expect("at least one cold render");
    report.check(
        "cold_render.repeats",
        colds_equal,
        format!("{SETUP_REPEATS} cold renders"),
    );

    drop(warm(env, &dir));
    // The peak of the warm renders alone, not of the cold renders that
    // set the store up.
    crate::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut render_s, mut sps) = (Vec::new(), Vec::new());
    let (mut simulated, mut texts_equal, mut hashes_equal) = (0, true, true);
    while render_s.len() < MIN_RENDERS || Instant::now() < deadline {
        let (text, mut runner, wall) = warm(env, &dir);
        render_s.push(wall);
        sps.push(sessions(&mut runner) as f64 / wall);
        simulated += runner.simulated();
        report.attempted += runner.history.len() as u64;
        report.failed += runner.simulated();
        texts_equal &= text == cold_text;
        hashes_equal &= hashes(&mut runner) == cold_hashes;
    }
    report.check(
        "warm_render.simulates_nothing",
        simulated == 0,
        format!(
            "{simulated} campaigns simulated over {} warm renders",
            render_s.len()
        ),
    );
    report.check(
        "warm_render.matches_cold",
        texts_equal,
        "byte-identical text",
    );
    report.check(
        "content_hash.matches_cold",
        hashes_equal,
        "every stored campaign",
    );

    let completed = report.attempted - report.failed;
    report.best_metric("sessions_per_s", &sps, "1/s", true);
    report.best_metric("render_s", &render_s, "s", false);
    report.median_metric("setup_s", &setup_s, "s");
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    report.metric(
        "completed_share",
        completed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
}

/// The key of a store entry, read from its header frame as the store's
/// format lays it out: the magic, the frame's length and checksum
/// words, a tag byte, the 32-byte key hash, then the label as a
/// little-endian `u32` length and its bytes.
fn entry_key(bytes: &[u8]) -> Option<CampaignKey> {
    let at = MAGIC.len() + 9;
    let hash: [u8; 32] = bytes.get(at..at + 32)?.try_into().ok()?;
    let len: [u8; 4] = bytes.get(at + 32..at + 36)?.try_into().ok()?;
    let label = bytes.get(at + 36..at + 36 + u32::from_le_bytes(len) as usize)?;
    Some(CampaignKey {
        hash,
        label: String::from_utf8(label.to_vec()).ok()?,
    })
}

/// The traced run: one cold render, then the store, dataset and render
/// layers timed from outside on the entries it wrote.
pub fn trace(scale: f64, args: &Args, report: &mut Report) -> Layers {
    let env = env(scale, args.seed);
    let mut layers = Layers::default();
    let dir = store_dir("store");
    let (cold_text, cold_hashes) = cold(env, &dir);

    // The store layer, over every entry the cold render wrote.
    let mut entries: Vec<(CampaignKey, Vec<u8>)> = std::fs::read_dir(&dir)
        .map(|d| {
            d.filter_map(|e| std::fs::read(e.ok()?.path()).ok())
                .filter_map(|bytes| Some((entry_key(&bytes)?, bytes)))
                .collect()
        })
        .unwrap_or_default();
    entries.sort_by_key(|e| e.0.hash);
    let store = CampaignStore::new(&dir);
    let start = Instant::now();
    let loaded = entries
        .iter()
        .filter(|(k, _)| store.load(k).is_ok())
        .count();
    layers.set("store.load_s", secs(start));
    let start = Instant::now();
    let results: Vec<_> = entries
        .iter()
        .filter_map(|(k, bytes)| decode_entry(bytes, k).ok())
        .collect();
    layers.set("store.decode_s", secs(start));
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = entries
        .iter()
        .zip(&results)
        .map(|((k, _), r)| encode_entry(k, r))
        .collect();
    layers.set("store.encode_s", secs(start));
    let copy = CampaignStore::new(store_dir("store-copy"));
    let start = Instant::now();
    let saved = entries
        .iter()
        .zip(&results)
        .filter(|((k, _), r)| copy.save(k, r).is_ok())
        .count();
    layers.set("store.save_s", secs(start));
    let _ = std::fs::remove_dir_all(store_dir("store-copy"));
    layers.set(
        "store.bytes",
        entries.iter().map(|(_, b)| b.len()).sum::<usize>() as f64,
    );
    let faithful =
        entries.len() == results.len() && entries.iter().zip(&encoded).all(|((_, b), e)| b == e);
    report.check(
        "store.replay_roundtrips",
        !entries.is_empty() && loaded == entries.len() && saved == entries.len() && faithful,
        format!(
            "{} entries load, decode, re-encode byte-identically and save",
            entries.len()
        ),
    );

    // The dataset layer: the populations and profiles the artifacts use.
    let start = Instant::now();
    let pops: Vec<Population> = [DatasetKind::NotifyEmail, DatasetKind::TwoWeekMx]
        .into_iter()
        .map(|kind| {
            Population::generate(&PopulationConfig {
                kind,
                scale,
                seed: args.seed,
            })
        })
        .collect();
    let providers = provider_population(args.seed);
    layers.set("datasets.population_s", secs(start));
    let start = Instant::now();
    for pop in &pops {
        let base = sample_host_profiles(pop, args.seed);
        std::hint::black_box(drift_profiles(pop, &base, NOTIFY_MX_DRIFT, args.seed));
    }
    layers.set("datasets.profiles_s", secs(start));
    drop((pops, providers));

    // The render layer alone: a runner that already holds every
    // campaign renders again with nothing to load.
    let (text, mut runner, _) = warm(env, &dir);
    let start = Instant::now();
    let again = render_all(&mut runner);
    layers.set("artifacts.render_s", secs(start));
    report.check(
        "warm_render.simulates_nothing",
        runner.simulated() == 0,
        format!("{} campaigns simulated", runner.simulated()),
    );
    report.check(
        "warm_render.matches_cold",
        text == cold_text && again == cold_text,
        "byte-identical text",
    );
    report.check(
        "content_hash.matches_cold",
        hashes(&mut runner) == cold_hashes,
        "every stored campaign",
    );
    report.attempted += runner.history.len() as u64;
    report.failed += runner.simulated();
    layers
}
