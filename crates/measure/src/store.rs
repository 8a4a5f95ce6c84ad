//! Content-addressed, durable storage for campaign results.
//!
//! The paper's tables and figures are all projections of a handful of
//! measurement campaigns; real studies therefore separate *collection*
//! from *analysis* so one expensive crawl can be re-analyzed many
//! times. This module gives the simulation the same run-once /
//! analyze-many shape: a completed [`CampaignResult`] is serialized to
//! one file under the store root, **keyed by a content hash of
//! everything that determines the result** — the [`CampaignConfig`]
//! (campaign kind, probe set, seed, pause, latency model, fault plan,
//! shard count, session budget), the dataset kind, the population
//! scale and seed, and the profile derivation. A stale file can never
//! serve wrong data: a config change produces a different hash (a
//! different file), and the stored header repeats the full hash so
//! even a filename collision is caught at load time.
//!
//! On-disk format, reusing the [`crate::journal`] framing (magic +
//! length-prefixed CRC-32 frames) and binary codec:
//!
//! ```text
//! file   := magic frames*
//! magic  := "MVALSTO1"                          (8 bytes)
//! frame  := len:u32le crc:u32le payload         (crc = CRC-32/IEEE)
//! payload:= tag:u8 body
//! tags   := 0 header   (key hash, label, totals, fault + shard stats)
//!           1 sessions (chunk of SessionRecords)
//!           2 queries  (chunk of QueryRecords, canonical order)
//!           3 end      (totals again; nothing may follow)
//! ```
//!
//! [`CampaignStore::load`] verifies the magic, every frame's CRC, the
//! header hash against the requested key, the chunk counts against the
//! header totals, and that the end frame is the last byte of the file.
//! **Any** mismatch — torn tail, bit flip, stale key, short write —
//! returns a [`StoreError`], and the caller falls back to re-running
//! the campaign; corruption is never a panic and never trusted data.
//!
//! All store IO goes through the [`crate::vfs`] seam, so the
//! deterministic IO fault layer ([`mailval_simnet::IoPlan`]) exercises
//! the same save/load paths production uses: a failed save degrades to
//! store-off behavior, a corrupted read is just another clean miss.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::apparatus::QueryLog;
use crate::campaign::{CampaignConfig, CampaignKind, CampaignResult};
use crate::engine::{MemoryBudget, SessionBudget};
use crate::journal::{self, crc32, Dec, Enc, FrameError};
use crate::shard::ShardStats;
use crate::vfs::{OsFs, Vfs};
use mailval_crypto::sha256::sha256;
use mailval_simnet::{FaultConfig, IoConfig, LatencyModel, PayloadConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic: identifies a mailval campaign store entry, version 1.
pub const MAGIC: [u8; 8] = *b"MVALSTO1";
/// Records per sessions/queries chunk frame (bounds frame size so the
/// journal's torn-tail heuristics keep working on huge campaigns).
const CHUNK: usize = 4096;
/// Domain-separation prefix mixed into every content hash; bump the
/// version suffix when the key encoding changes shape (v2 added the
/// hostile-payload knobs; v3 added the IO fault plan, the memory
/// budget and the `resource_shed`/`durability_lost` entry codec).
const KEY_DOMAIN: &[u8] = b"mailval-campaign-key-v3";

const TAG_HEADER: u8 = 0;
const TAG_SESSIONS: u8 = 1;
const TAG_QUERIES: u8 = 2;
const TAG_END: u8 = 3;

// ---------------------------------------------------------------------------
// Content-addressed keys
// ---------------------------------------------------------------------------

/// Everything that determines a campaign's bytes, gathered for hashing.
///
/// The fields beyond `config` describe how the population and profiles
/// were derived (they are inputs to `run_campaign` but live outside
/// [`CampaignConfig`]): the dataset kind, its generation scale and
/// seed, and a label for the profile pipeline (`"base"`,
/// `"drift:0.05"`, `"providers"`, ...).
#[derive(Debug, Clone)]
pub struct KeySpec<'a> {
    /// The campaign configuration to fingerprint.
    pub config: &'a CampaignConfig,
    /// Dataset label (e.g. `"NotifyEmail"`, `"TwoWeekMx"`,
    /// `"providers"`).
    pub dataset: &'a str,
    /// Population scale relative to the paper (`MAILVAL_SCALE`).
    pub scale: f64,
    /// Population generation seed.
    pub population_seed: u64,
    /// Profile-derivation label.
    pub profiles: &'a str,
}

impl KeySpec<'_> {
    /// Compute the content-addressed key for this spec.
    ///
    /// Durability-only knobs (`journal_dir`, `resume`, `fsync_every`,
    /// `supervisor`) and `telemetry` are deliberately excluded: they
    /// cannot change a completed campaign's output, only how it survives
    /// crashes or what it reports about itself.
    /// Everything else — including the shard count and the IO fault
    /// plan, which are output-invariant by construction but cheap to
    /// key on — is hashed, so changing any knob forces a re-run.
    pub fn key(&self) -> CampaignKey {
        // No `..`: a new knob fails to compile here until it is keyed or
        // excluded on purpose.
        let CampaignConfig {
            kind,
            tests,
            seed,
            probe_pause_ms,
            latency,
            faults,
            payload,
            io,
            shards,
            budget:
                SessionBudget {
                    max_virtual_ms,
                    max_events,
                },
            memory:
                MemoryBudget {
                    max_session_bytes,
                    max_pending_events,
                },
            // Durability: changes how a run survives crashes, not its output.
            journal_dir: _,
            resume: _,
            fsync_every: _,
            supervisor: _,
            // Observability: never result-determining.
            telemetry: _,
        } = self.config;
        let mut enc = Enc::default();
        enc.0.extend_from_slice(KEY_DOMAIN);
        enc.u8(kind_tag(*kind));
        enc.size(tests.len());
        for t in tests {
            enc.str(t);
        }
        enc.u64(*seed);
        enc.u64(*probe_pause_ms);
        put_latency(&mut enc, latency);
        put_fault_config(&mut enc, faults);
        put_payload_config(&mut enc, payload);
        put_io_config(&mut enc, io);
        enc.size(*shards);
        enc.u64(*max_virtual_ms);
        enc.u64(*max_events);
        enc.u64(*max_session_bytes);
        enc.u64(*max_pending_events);
        enc.str(self.dataset);
        enc.f64(self.scale);
        enc.u64(self.population_seed);
        enc.str(self.profiles);
        CampaignKey {
            hash: sha256(&enc.0),
            label: format!(
                "{}/{:?}/tests={}/profiles={}",
                self.dataset,
                kind,
                if tests.is_empty() {
                    "-".to_string()
                } else {
                    tests.join("+")
                },
                self.profiles
            ),
        }
    }
}

fn kind_tag(kind: CampaignKind) -> u8 {
    match kind {
        CampaignKind::NotifyEmail => 0,
        CampaignKind::NotifyMx => 1,
        CampaignKind::TwoWeekMx => 2,
    }
}

fn put_latency(enc: &mut Enc, l: &LatencyModel) {
    let LatencyModel {
        base_one_way_ms,
        spread_ms,
        loss_probability,
        seed,
    } = l;
    enc.u64(*base_one_way_ms);
    enc.u64(*spread_ms);
    enc.f64(*loss_probability);
    enc.u64(*seed);
}

fn put_payload_config(enc: &mut Enc, p: &PayloadConfig) {
    let PayloadConfig {
        dns_corrupt_probability,
        smtp_corrupt_probability,
        seed,
    } = p;
    enc.f64(*dns_corrupt_probability);
    enc.f64(*smtp_corrupt_probability);
    enc.u64(*seed);
}

fn put_io_config(enc: &mut Enc, io: &IoConfig) {
    let IoConfig {
        enospc_after_bytes,
        short_write_probability,
        fsync_fail_probability,
        rename_fail_probability,
        read_corrupt_probability,
        seed,
    } = io;
    enc.u64(*enospc_after_bytes);
    enc.f64(*short_write_probability);
    enc.f64(*fsync_fail_probability);
    enc.f64(*rename_fail_probability);
    enc.f64(*read_corrupt_probability);
    enc.u64(*seed);
}

fn put_fault_config(enc: &mut Enc, f: &FaultConfig) {
    let FaultConfig {
        duplicate_probability,
        reorder_probability,
        reorder_delay_ms,
        truncate_probability,
        conn_reset_probability,
        conn_stall_probability,
        conn_stall_ms,
        seed,
        crash_after_sessions,
    } = f;
    enc.f64(*duplicate_probability);
    enc.f64(*reorder_probability);
    enc.u64(*reorder_delay_ms);
    enc.f64(*truncate_probability);
    enc.f64(*conn_reset_probability);
    enc.f64(*conn_stall_probability);
    enc.u64(*conn_stall_ms);
    enc.u64(*seed);
    enc.u64(*crash_after_sessions);
}

/// A campaign's content-addressed identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignKey {
    /// SHA-256 over the canonical encoding of every result-determining
    /// knob.
    pub hash: [u8; 32],
    /// Human-readable description for progress lines and diagnostics
    /// (not part of the identity).
    pub label: String,
}

impl CampaignKey {
    /// The short hex form used in filenames and progress lines.
    pub fn short_hex(&self) -> String {
        self.hash[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a store entry could not be served. Every variant is a clean
/// miss: the caller re-runs the campaign and overwrites the entry.
#[derive(Debug)]
pub enum StoreError {
    /// No entry file for this key.
    Missing,
    /// The file exists but is not a version-1 store entry.
    BadMagic,
    /// A frame was torn, its CRC failed, or bytes trail the end frame.
    Corrupt(&'static str),
    /// A frame payload failed to decode.
    Frame(FrameError),
    /// The entry's stored hash is not the requested key (stale config
    /// or filename collision).
    KeyMismatch,
    /// The entry decoded but its totals disagree with its chunks.
    CountMismatch,
    /// Underlying I/O failure while reading.
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing => write!(f, "no store entry"),
            StoreError::BadMagic => write!(f, "bad store magic"),
            StoreError::Corrupt(what) => write!(f, "corrupt entry: {what}"),
            StoreError::Frame(e) => write!(f, "undecodable frame: {e}"),
            StoreError::KeyMismatch => write!(f, "stale entry (key mismatch)"),
            StoreError::CountMismatch => write!(f, "entry totals disagree with chunks"),
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Frame(e)
    }
}

/// How a stored-campaign request was satisfied (surfaced in progress
/// lines and counted by the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreStatus {
    /// Served from disk.
    Hit,
    /// Simulated (and persisted); the payload says why the entry could
    /// not be served (`"cold"` for a simply-missing entry).
    Miss(String),
    /// No store configured; simulated without persistence.
    Off,
}

impl StoreStatus {
    /// `true` when the campaign had to be simulated.
    pub fn simulated(&self) -> bool {
        !matches!(self, StoreStatus::Hit)
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A directory of content-addressed campaign results.
pub struct CampaignStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CampaignStore {
    /// Open (lazily — the directory is created on first save) a store
    /// rooted at `root`, on the real filesystem.
    pub fn new(root: impl Into<PathBuf>) -> CampaignStore {
        CampaignStore::new_with_vfs(root, Arc::new(OsFs))
    }

    /// Open a store whose every IO operation goes through `vfs` (the
    /// fault-injection seam). Opening sweeps orphaned `*.camp.tmp`
    /// files — the residue of saves that died between write and rename
    /// — so a crashed run can never accumulate junk.
    pub fn new_with_vfs(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> CampaignStore {
        let store = CampaignStore {
            root: root.into(),
            vfs,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        };
        store.sweep_orphans();
        store
    }

    /// Remove leftover temporary entries under the root. Best-effort:
    /// a sweep failure (missing root, unremovable file) costs nothing
    /// but disk — every load path already ignores `.camp.tmp` files.
    fn sweep_orphans(&self) {
        let Ok(entries) = self.vfs.list_dir(&self.root) else {
            return;
        };
        for path in entries {
            let is_orphan = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".camp.tmp"));
            if is_orphan {
                match self.vfs.remove_file(&path) {
                    Ok(()) => crate::progress!("store: swept orphan {}", path.display()),
                    Err(e) => {
                        crate::progress!("store: could not sweep orphan {}: {e}", path.display())
                    }
                }
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Entry filename for a key: the first 16 hash bytes, hex.
    pub fn path_for(&self, key: &CampaignKey) -> PathBuf {
        let hex: String = key.hash[..16].iter().map(|b| format!("{b:02x}")).collect();
        self.root.join(format!("{hex}.camp"))
    }

    /// Loads served since this store was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed loads (any [`StoreError`]) since this store was opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Load the result stored for `key`, verifying framing, checksums,
    /// the embedded key hash and the totals. Every failure is a clean
    /// [`StoreError`] — the caller re-runs the campaign.
    pub fn load(&self, key: &CampaignKey) -> Result<CampaignResult, StoreError> {
        let result = self.load_inner(key);
        match &result {
            Ok(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn load_inner(&self, key: &CampaignKey) -> Result<CampaignResult, StoreError> {
        let path = self.path_for(key);
        let data = match self.vfs.read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::Missing),
            Err(e) => return Err(StoreError::Io(e)),
        };
        decode_entry(&data, key)
    }

    /// Persist `result` under `key`. The entry is written to a
    /// temporary sibling and renamed into place, so a crash mid-save
    /// leaves either the old entry or none — never a torn one at the
    /// final path. A failed rename removes the temporary before
    /// reporting the error, so a fault-heavy run leaves no residue.
    pub fn save(&self, key: &CampaignKey, result: &CampaignResult) -> io::Result<PathBuf> {
        self.vfs.create_dir_all(&self.root)?;
        let path = self.path_for(key);
        let tmp = path.with_extension("camp.tmp");
        let bytes = encode_entry(key, result);
        let write = (|| -> io::Result<()> {
            let mut file = self.vfs.open_write(&tmp, true)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = self.vfs.remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = self.vfs.rename(&tmp, &path) {
            let _ = self.vfs.remove_file(&tmp);
            return Err(e);
        }
        Ok(path)
    }
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn put_shard_stats(enc: &mut Enc, s: &ShardStats) {
    enc.size(s.shard);
    enc.size(s.sessions);
    enc.u64(s.events);
    enc.u64(s.queries_logged);
    enc.u64(s.virtual_ms);
    enc.f64(s.wall_ms);
    journal::put_faults_v3(enc, &s.faults);
    enc.u32(s.restarts);
    enc.boolean(s.durability_lost);
}

fn get_shard_stats(dec: &mut Dec<'_>) -> Result<ShardStats, FrameError> {
    Ok(ShardStats {
        shard: dec.size()?,
        sessions: dec.size()?,
        events: dec.u64()?,
        queries_logged: dec.u64()?,
        virtual_ms: dec.u64()?,
        wall_ms: dec.f64()?,
        faults: journal::get_faults_v3(dec)?,
        restarts: dec.u32()?,
        durability_lost: dec.boolean()?,
    })
}

/// Serialize a complete store entry (magic + all frames).
pub fn encode_entry(key: &CampaignKey, result: &CampaignResult) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);

    // Header frame.
    let mut enc = Enc::default();
    enc.u8(TAG_HEADER);
    enc.0.extend_from_slice(&key.hash);
    enc.str(&key.label);
    enc.size(result.sessions.len());
    enc.size(result.log.records.len());
    enc.u64(result.events);
    enc.boolean(result.partial);
    journal::put_faults_v3(&mut enc, &result.faults);
    enc.size(result.shard_stats.len());
    for s in &result.shard_stats {
        put_shard_stats(&mut enc, s);
    }
    push_frame(&mut out, &enc.0);

    // Session chunks, in global session order.
    for chunk in result.sessions.chunks(CHUNK) {
        let mut enc = Enc::default();
        enc.u8(TAG_SESSIONS);
        enc.u32(chunk.len() as u32);
        for record in chunk {
            journal::put_record(&mut enc, record);
        }
        push_frame(&mut out, &enc.0);
    }

    // Query chunks, in the log's canonical order.
    for chunk in result.log.records.chunks(CHUNK) {
        let mut enc = Enc::default();
        enc.u8(TAG_QUERIES);
        enc.u32(chunk.len() as u32);
        for query in chunk {
            journal::put_query(&mut enc, query);
        }
        push_frame(&mut out, &enc.0);
    }

    // End frame: repeat the totals so a truncated chunk sequence that
    // still frames cleanly is caught by the count check.
    let mut enc = Enc::default();
    enc.u8(TAG_END);
    enc.size(result.sessions.len());
    enc.size(result.log.records.len());
    push_frame(&mut out, &enc.0);
    out
}

/// Decode and verify a complete store entry against `key`.
pub fn decode_entry(data: &[u8], key: &CampaignKey) -> Result<CampaignResult, StoreError> {
    if data.len() < MAGIC.len() || data[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }

    // Walk the frames, verifying length and CRC before touching any
    // payload.
    let mut payloads: Vec<&[u8]> = Vec::new();
    let mut pos = MAGIC.len();
    while pos < data.len() {
        let header = data
            .get(pos..pos + 8)
            .ok_or(StoreError::Corrupt("torn frame header"))?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let payload = data
            .get(pos + 8..pos + 8 + len)
            .ok_or(StoreError::Corrupt("torn frame payload"))?;
        if crc32(payload) != crc {
            return Err(StoreError::Corrupt("frame checksum mismatch"));
        }
        payloads.push(payload);
        pos += 8 + len;
    }

    // Header first, end last, nothing after the end frame (the loop
    // above already guarantees nothing trails the last frame).
    let mut iter = payloads.into_iter();
    let header = iter.next().ok_or(StoreError::Corrupt("no header frame"))?;
    let mut dec = Dec::new(header);
    if dec.u8()? != TAG_HEADER {
        return Err(StoreError::Corrupt("first frame is not the header"));
    }
    let mut stored_hash = [0u8; 32];
    for byte in &mut stored_hash {
        *byte = dec.u8()?;
    }
    if stored_hash != key.hash {
        return Err(StoreError::KeyMismatch);
    }
    let _label = dec.str()?;
    let nsessions = dec.size()?;
    let nqueries = dec.size()?;
    let events = dec.u64()?;
    let partial = dec.boolean()?;
    let faults = journal::get_faults_v3(&mut dec)?;
    let nshards = dec.size()?;
    if nshards > 1 << 20 {
        return Err(StoreError::Corrupt("implausible shard count"));
    }
    let mut shard_stats = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        shard_stats.push(get_shard_stats(&mut dec)?);
    }
    dec.finished()?;

    let mut sessions = Vec::with_capacity(nsessions.min(1 << 24));
    let mut log = QueryLog::new();
    let mut saw_end = false;
    for payload in iter {
        if saw_end {
            return Err(StoreError::Corrupt("frame after end frame"));
        }
        let mut dec = Dec::new(payload);
        match dec.u8()? {
            TAG_SESSIONS => {
                let n = dec.u32()? as usize;
                for _ in 0..n {
                    sessions.push(journal::get_record(&mut dec)?);
                }
                dec.finished()?;
            }
            TAG_QUERIES => {
                let n = dec.u32()? as usize;
                for _ in 0..n {
                    log.records.push(journal::get_query(&mut dec)?);
                }
                dec.finished()?;
            }
            TAG_END => {
                let end_sessions = dec.size()?;
                let end_queries = dec.size()?;
                dec.finished()?;
                if end_sessions != nsessions || end_queries != nqueries {
                    return Err(StoreError::CountMismatch);
                }
                saw_end = true;
            }
            TAG_HEADER => return Err(StoreError::Corrupt("duplicate header frame")),
            _ => return Err(StoreError::Frame(FrameError::BadTag)),
        }
    }
    if !saw_end {
        return Err(StoreError::Corrupt("missing end frame"));
    }
    if sessions.len() != nsessions || log.records.len() != nqueries {
        return Err(StoreError::CountMismatch);
    }

    // The log was stored canonical; re-sorting is an idempotent
    // belt-and-suspenders (stable sort, same key).
    log.sort_canonical();
    Ok(CampaignResult {
        log,
        sessions,
        events,
        faults,
        shard_stats,
        partial,
        // Phase timings and telemetry are observability about the
        // producing run, not campaign output; a store hit costs no
        // setup or simulation and carries no trace.
        phases: crate::campaign::PhaseTimes::default(),
        telemetry: None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, sample_host_profiles};
    use crate::vfs::SimFs;
    use mailval_datasets::{DatasetKind, Population, PopulationConfig};
    use mailval_simnet::IoPlan;

    fn tiny_result(seed: u64) -> (CampaignConfig, Population, CampaignResult) {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::NotifyEmail,
            scale: 0.002,
            seed,
        });
        let profiles = sample_host_profiles(&pop, seed);
        let config = CampaignConfig {
            kind: CampaignKind::NotifyEmail,
            seed,
            probe_pause_ms: 0,
            shards: 2,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&config, &pop, &profiles);
        (config, pop, result)
    }

    fn spec<'a>(config: &'a CampaignConfig, seed: u64) -> KeySpec<'a> {
        KeySpec {
            config,
            dataset: "NotifyEmail",
            scale: 0.002,
            population_seed: seed,
            profiles: "base",
        }
    }

    fn temp_store(name: &str) -> CampaignStore {
        let dir =
            std::env::temp_dir().join(format!("mailval-store-tests-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignStore::new(dir)
    }

    fn assert_results_equal(a: &CampaignResult, b: &CampaignResult) {
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.log.records, b.log.records);
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.partial, b.partial);
        assert_eq!(a.shard_stats.len(), b.shard_stats.len());
        for (x, y) in a.shard_stats.iter().zip(&b.shard_stats) {
            assert_eq!(x.shard, y.shard);
            assert_eq!(x.sessions, y.sessions);
            assert_eq!(x.events, y.events);
            assert_eq!(x.queries_logged, y.queries_logged);
            assert_eq!(x.virtual_ms, y.virtual_ms);
            assert_eq!(x.wall_ms.to_bits(), y.wall_ms.to_bits());
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.restarts, y.restarts);
            assert_eq!(x.durability_lost, y.durability_lost);
        }
    }

    #[test]
    fn save_load_roundtrips_byte_identically() {
        let (config, _pop, result) = tiny_result(41);
        let store = temp_store("roundtrip");
        let key = spec(&config, 41).key();
        let path = store.save(&key, &result).unwrap();
        // The file is deterministic: re-encoding yields the same bytes.
        assert_eq!(std::fs::read(&path).unwrap(), encode_entry(&key, &result));
        let loaded = store.load(&key).unwrap();
        assert_results_equal(&loaded, &result);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let (config, ..) = tiny_result(43);
        let store = temp_store("missing");
        let err = store.load(&spec(&config, 43).key()).unwrap_err();
        assert!(matches!(err, StoreError::Missing));
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn truncated_tail_is_rejected_never_a_panic() {
        let (config, _pop, result) = tiny_result(47);
        let store = temp_store("truncated");
        let key = spec(&config, 47).key();
        let path = store.save(&key, &result).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Every possible truncation point must fail cleanly.
        for cut in [
            0,
            4,
            MAGIC.len(),
            MAGIC.len() + 3,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                store.load(&key).is_err(),
                "cut at {cut} must not load as valid"
            );
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn bit_flipped_frame_is_rejected() {
        let (config, _pop, result) = tiny_result(53);
        let store = temp_store("bitflip");
        let key = spec(&config, 53).key();
        let path = store.save(&key, &result).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte at a spread of positions (header, middle, tail).
        for at in [9, clean.len() / 3, clean.len() / 2, clean.len() - 2] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(store.load(&key).is_err(), "flip at {at} must be rejected");
        }
        // Trailing garbage after the end frame is also rejected.
        let mut bytes = clean.clone();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key).is_err());
        // And the pristine bytes still load.
        std::fs::write(&path, &clean).unwrap();
        assert!(store.load(&key).is_ok());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_single_byte_flip_is_rejected_never_a_panic() {
        let (config, _pop, mut result) = tiny_result(59);
        // Keep the entry small so the exhaustive byte sweep stays fast; the
        // header counts are derived from the vectors at save time, so a
        // truncated result is still a perfectly well-formed entry.
        result.sessions.truncate(2);
        result.log.records.truncate(2);
        let store = temp_store("flipsweep");
        let key = spec(&config, 59).key();
        let path = store.save(&key, &result).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Exhaustive: a hostile byte anywhere in the entry must yield a clean
        // error, never a panic and never a silently different result.
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(store.load(&key).is_err(), "flip at {at} must be rejected");
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(store.load(&key).is_ok());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_key_is_rejected_at_load() {
        let (config, _pop, result) = tiny_result(59);
        let store = temp_store("stale");
        let key = spec(&config, 59).key();
        store.save(&key, &result).unwrap();
        // Same file, different expected key: refuse to serve.
        let mut other = key.clone();
        other.hash[0] ^= 1;
        std::fs::rename(store.path_for(&key), store.path_for(&other)).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(matches!(err, StoreError::KeyMismatch));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_result_determining_knob_changes_the_hash() {
        let base_config = CampaignConfig {
            kind: CampaignKind::TwoWeekMx,
            tests: vec!["t01", "t06"],
            seed: 2021,
            shards: 4,
            ..CampaignConfig::default()
        };
        let base = KeySpec {
            config: &base_config,
            dataset: "TwoWeekMx",
            scale: 1.0,
            population_seed: 2021,
            profiles: "base",
        };
        let base_hash = base.key().hash;
        let changed = |config: &CampaignConfig| KeySpec { config, ..base }.key().hash;

        // Campaign seed.
        let mut c = base_config.clone();
        c.seed = 2022;
        assert_ne!(changed(&c), base_hash, "seed must invalidate");
        // Scale (MAILVAL_SCALE).
        assert_ne!(
            KeySpec { scale: 0.5, ..base }.key().hash,
            base_hash,
            "scale must invalidate"
        );
        // Shard count.
        let mut c = base_config.clone();
        c.shards = 8;
        assert_ne!(changed(&c), base_hash, "shard count must invalidate");
        // Fault plan (each class of knob).
        let mut c = base_config.clone();
        c.faults.duplicate_probability = 0.01;
        assert_ne!(changed(&c), base_hash, "fault probability must invalidate");
        let mut c = base_config.clone();
        c.faults.seed = 7;
        assert_ne!(changed(&c), base_hash, "fault seed must invalidate");
        let mut c = base_config.clone();
        c.faults.crash_after_sessions = 10;
        assert_ne!(changed(&c), base_hash, "crash injection must invalidate");
        let mut c = base_config.clone();
        c.latency.loss_probability = 0.05;
        assert_ne!(changed(&c), base_hash, "loss probability must invalidate");
        // Probe set: membership and order.
        let mut c = base_config.clone();
        c.tests = vec!["t01"];
        assert_ne!(changed(&c), base_hash, "probe set must invalidate");
        let mut c = base_config.clone();
        c.tests = vec!["t06", "t01"];
        assert_ne!(changed(&c), base_hash, "probe order must invalidate");
        // Population inputs.
        assert_ne!(
            KeySpec {
                population_seed: 1,
                ..base
            }
            .key()
            .hash,
            base_hash,
            "population seed must invalidate"
        );
        assert_ne!(
            KeySpec {
                dataset: "NotifyEmail",
                ..base
            }
            .key()
            .hash,
            base_hash,
            "dataset must invalidate"
        );
        assert_ne!(
            KeySpec {
                profiles: "drift:0.05",
                ..base
            }
            .key()
            .hash,
            base_hash,
            "profile derivation must invalidate"
        );
        // Session budget.
        let mut c = base_config.clone();
        c.budget.max_events = 10;
        assert_ne!(changed(&c), base_hash, "session budget must invalidate");
        // Hostile-payload knobs are result-determining.
        let mut c = base_config.clone();
        c.payload.dns_corrupt_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "dns payload knob must invalidate");
        let mut c = base_config.clone();
        c.payload.smtp_corrupt_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "smtp payload knob must invalidate");
        let mut c = base_config.clone();
        c.payload.seed = 99;
        assert_ne!(changed(&c), base_hash, "payload seed must invalidate");
        // IO fault plan (output-invariant by construction, but keyed
        // conservatively like the shard count).
        let mut c = base_config.clone();
        c.io.enospc_after_bytes = 4096;
        assert_ne!(changed(&c), base_hash, "io capacity must invalidate");
        let mut c = base_config.clone();
        c.io.short_write_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "short-write knob must invalidate");
        let mut c = base_config.clone();
        c.io.read_corrupt_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "read-corrupt knob must invalidate");
        let mut c = base_config.clone();
        c.io.seed = 77;
        assert_ne!(changed(&c), base_hash, "io seed must invalidate");
        // Memory backpressure budget is result-determining.
        let mut c = base_config.clone();
        c.memory.max_session_bytes = 1 << 20;
        assert_ne!(changed(&c), base_hash, "memory byte budget must invalidate");
        let mut c = base_config.clone();
        c.memory.max_pending_events = 64;
        assert_ne!(
            changed(&c),
            base_hash,
            "memory event budget must invalidate"
        );

        // Durability knobs must NOT invalidate: they cannot change the
        // output, only how it survives crashes.
        let mut c = base_config.clone();
        c.journal_dir = Some(PathBuf::from("/tmp/somewhere"));
        c.resume = true;
        c.fsync_every = 1;
        c.supervisor.max_shard_restarts = 9;
        assert_eq!(changed(&c), base_hash, "durability knobs must not key");
    }

    #[test]
    fn probe_campaign_roundtrips_with_attributions() {
        // Probe campaigns exercise the full record shape: testids,
        // rejections, attributed queries with paths.
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::TwoWeekMx,
            scale: 0.002,
            seed: 61,
        });
        let profiles = sample_host_profiles(&pop, 61);
        let config = CampaignConfig {
            kind: CampaignKind::TwoWeekMx,
            tests: vec!["t01", "t12"],
            seed: 61,
            probe_pause_ms: 15_000,
            shards: 3,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&config, &pop, &profiles);
        assert!(result.log.records.iter().any(|r| r.attribution.is_some()));
        let store = temp_store("probe");
        let key = KeySpec {
            config: &config,
            dataset: "TwoWeekMx",
            scale: 0.002,
            population_seed: 61,
            profiles: "base",
        }
        .key();
        store.save(&key, &result).unwrap();
        let loaded = store.load(&key).unwrap();
        assert_results_equal(&loaded, &result);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn opening_a_store_sweeps_orphaned_tmp_files() {
        let (config, _pop, result) = tiny_result(67);
        let store = temp_store("orphans");
        let key = spec(&config, 67).key();
        store.save(&key, &result).unwrap();
        // Plant the residue of a save that died between write and
        // rename, plus a bystander that must survive the sweep.
        let orphan = store.root().join("deadbeefdeadbeef.camp.tmp");
        let bystander = store.root().join("notes.txt");
        std::fs::write(&orphan, b"torn half-save").unwrap();
        std::fs::write(&bystander, b"keep me").unwrap();
        let reopened = CampaignStore::new(store.root());
        assert!(!orphan.exists(), "orphan tmp must be swept on open");
        assert!(bystander.exists(), "sweep must only touch *.camp.tmp");
        assert!(
            store.path_for(&key).exists(),
            "sweep must not touch completed entries"
        );
        assert_results_equal(&reopened.load(&key).unwrap(), &result);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn read_corruption_through_simfs_is_a_clean_miss() {
        // Load the same entry through a SimFs that corrupts one byte of
        // every read: the production load path must classify each
        // corrupted image as a StoreError, never panic, and never serve
        // it as data. (The exhaustive positional sweep lives in
        // `every_single_byte_flip_is_rejected_never_a_panic`; this pins
        // the same property through the IO fault seam itself.)
        let (config, _pop, mut result) = tiny_result(71);
        result.sessions.truncate(4);
        result.log.records.truncate(4);
        let store = temp_store("simfs-miss");
        let key = spec(&config, 71).key();
        store.save(&key, &result).unwrap();
        let faulty = CampaignStore::new_with_vfs(
            store.root(),
            Arc::new(SimFs::new(IoPlan::new(IoConfig {
                read_corrupt_probability: 1.0,
                seed: 0x10_FA11,
                ..IoConfig::default()
            }))),
        );
        let mut rejected = 0;
        for _ in 0..64 {
            match faulty.load(&key) {
                Err(StoreError::Missing) => panic!("entry exists; corruption must not hide it"),
                Err(_) => rejected += 1,
                // The flipped byte can land in the ignored label text;
                // a lucky load is allowed, silent corruption is not.
                Ok(loaded) => assert_results_equal(&loaded, &result),
            }
        }
        assert!(rejected > 32, "only {rejected}/64 corrupted reads rejected");
        // The pristine path still serves the entry.
        assert_results_equal(&store.load(&key).unwrap(), &result);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
