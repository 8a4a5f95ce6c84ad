//! The one sweep behind every campaign bench suite.
//!
//! A suite is a [`Suite`] value: its population scales, its axis points
//! (each a campaign configuration plus the row fields that name it),
//! its round count and the extras its rows carry. [`sweep`] builds each
//! population once through [`crate::prepare_with`], times `run_campaign`
//! end to end (set-up included, since the setup-share gate reads it)
//! best of N per point, and turns every point into one row of the
//! shared schema:
//!
//! ```text
//! scale, domains, hosts, <axis fields>, shards, sessions, delivered,
//! rejected, dead, queries_logged, events, rounds, wall_s,
//! sessions_per_s, phases{..}, shard_wall_ms[..], faults{..},
//! content_hash, <extras>
//! ```
//!
//! [`render`] is the only report writer (one row object per line) and
//! [`fields`] the only reader, by key; it serves the perf gate's
//! baseline and the trace gate alike. Offline builds have no serde, so
//! the format is ours. A suite that declares its axis output-invariant
//! gets a `FAIL` verdict on stdout and a non-zero exit when any point's
//! content hash differs from the first point of its scale.

use crate::{prepare_with, Env, Prepared};
use mailval_datasets::DatasetKind;
use mailval_measure::campaign::{run_campaign, CampaignConfig, CampaignResult};
use mailval_measure::progress;
use mailval_mta::profile::MtaProfile;
use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

/// One axis point: the row fields that name it and the campaign it runs.
pub(crate) struct Point {
    /// Row fields identifying the point, as JSON text (`"loss", "0.05"`).
    pub(crate) axis: Vec<(&'static str, String)>,
    /// The campaign measured at this point.
    pub(crate) config: CampaignConfig,
}

/// Row fields a suite adds after the shared prefix.
pub(crate) enum Extra {
    /// `dns_payload_mutations`, `smtp_payload_mutations`,
    /// `hostile_inputs` and the `malformed` class histogram.
    Payload,
    /// `shards_demoted`: shard journals demoted to non-durable mode.
    ShardsDemoted,
    /// `journal_bytes`: what the point's journal directory holds after
    /// its last round.
    JournalBytes,
    /// `trace_events`: trace events the run recorded.
    TraceEvents,
}

/// One bench suite, as a table row over the shared sweep.
pub(crate) struct Suite {
    /// CLI subcommand, also the progress and verdict prefix.
    pub(crate) name: &'static str,
    /// The report's `benchmark` field.
    pub(crate) benchmark: &'static str,
    /// Default report path.
    pub(crate) out: &'static str,
    /// Population axis: row label and scale against the paper's 26,695
    /// NotifyEmail domains.
    pub(crate) scales: &'static [(&'static str, f64)],
    /// Timed rounds per point; the fastest is reported.
    pub(crate) rounds: usize,
    /// Applied to the sampled host profiles before any point runs.
    pub(crate) profiles: fn(&mut [MtaProfile]),
    /// The axis points, from a NotifyEmail base configuration carrying
    /// `MAILVAL_SEED`, `MAILVAL_SHARDS` and no probe pause.
    pub(crate) points: fn(&CampaignConfig) -> Vec<Point>,
    /// The output must not change along the axis (within each scale).
    pub(crate) invariant: bool,
    /// Fields after the shared prefix.
    pub(crate) extras: &'static [Extra],
    /// Constant report header fields after `benchmark`, `cpus`, `seed`.
    pub(crate) header: &'static [(&'static str, f64)],
}

/// One measured axis point.
pub(crate) struct Row {
    /// The point as progress and verdicts name it (`2k shards=4`).
    pub(crate) label: String,
    /// Best-of-N wall clock, unrounded (overheads divide by it).
    pub(crate) wall_s: f64,
    /// The report row: keys and JSON values, in order.
    pub(crate) fields: Vec<(&'static str, String)>,
}

impl Row {
    /// Sessions per second over the unrounded wall clock.
    pub(crate) fn sessions_per_s(&self) -> f64 {
        num(&self.fields, "sessions").unwrap_or(0.0) / self.wall_s
    }
}

/// Run every point of `suite` at every scale, best of `rounds` each.
pub(crate) fn sweep(suite: &Suite, rounds: usize) -> Vec<Row> {
    let base = CampaignConfig {
        seed: crate::seed(),
        shards: crate::shards(),
        probe_pause_ms: 0,
        ..CampaignConfig::default()
    };
    let mut rows = Vec::new();
    for &(scale_label, scale) in suite.scales {
        let seed = base.seed;
        let env = Env {
            scale,
            seed,
            shards: base.shards,
        };
        let mut prepared = prepare_with(&env, DatasetKind::NotifyEmail);
        (suite.profiles)(&mut prepared.profiles);
        progress!(
            "{}: NotifyEmail {scale_label}: {} domains / {} hosts, seed {seed}",
            suite.name,
            prepared.pop.domains.len(),
            prepared.pop.hosts.len()
        );
        for point in (suite.points)(&base) {
            rows.push(measure(suite, rounds, point, scale_label, &prepared));
        }
    }
    rows
}

/// Time one point best of `rounds` and build its row.
fn measure(suite: &Suite, rounds: usize, point: Point, scale: &str, prep: &Prepared) -> Row {
    let journal = point.config.journal_dir.as_deref();
    let _ = journal.map(std::fs::remove_dir_all);
    let mut best: Option<(f64, CampaignResult)> = None;
    for _ in 0..rounds {
        let start = Instant::now();
        let result = run_campaign(&point.config, &prep.pop, &prep.profiles);
        let wall_s = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(w, _)| wall_s < *w) {
            best = Some((wall_s, result));
        }
    }
    let (wall_s, r) = best.expect("at least one round");
    let journal_bytes = journal.map_or(0, dir_bytes);
    let _ = journal.map(std::fs::remove_dir_all);

    let mut label = scale.to_string();
    for (k, v) in &point.axis {
        label += &format!(" {k}={}", v.trim_matches('"'));
    }
    label += &format!(" shards={}", point.config.shards);
    let sessions = r.sessions.len();
    progress!(
        "{}: {label:<28} {wall_s:>7.3}s wall  {:>8.0} sessions/s  setup-share {:.1}%",
        suite.name,
        sessions as f64 / wall_s,
        r.phases.setup_share() * 100.0
    );

    let delivered = r
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count();
    let rejected = r
        .sessions
        .iter()
        .filter(|s| {
            s.delivery_time_ms.is_none()
                && s.outcome.as_ref().is_some_and(|o| o.rejection.is_some())
        })
        .count();
    let (p, f) = (&r.phases, &r.faults);
    let phases = [
        ("setup_s", p.setup_s),
        ("simulate_s", p.simulate_s),
        ("merge_s", p.merge_s),
        ("persist_s", p.persist_s),
        ("setup_share", p.setup_share()),
    ];
    let faults = [
        ("dns_dropped", f.dns_dropped),
        ("dns_duplicated", f.dns_duplicated),
        ("dns_delayed", f.dns_delayed),
        ("dns_truncated", f.dns_truncated),
        ("dns_timeouts", f.dns_timeouts),
        ("conn_resets", f.conn_resets),
        ("conn_stalls", f.conn_stalls),
        ("mta_stalls", f.mta_stalls),
        ("tempfails", f.tempfails),
        ("client_retries", f.client_retries),
        ("contained_panics", f.contained_panics),
    ];
    let walls: Vec<String> = r
        .shard_stats
        .iter()
        .map(|s| format!("{:.1}", s.wall_ms))
        .collect();
    let mut fields = vec![
        ("scale", quote(scale)),
        ("domains", prep.pop.domains.len().to_string()),
        ("hosts", prep.pop.hosts.len().to_string()),
    ];
    fields.extend(point.axis);
    fields.extend([
        ("shards", point.config.shards.to_string()),
        ("sessions", sessions.to_string()),
        ("delivered", delivered.to_string()),
        ("rejected", rejected.to_string()),
        ("dead", (sessions - delivered - rejected).to_string()),
        ("queries_logged", r.log.records.len().to_string()),
        ("events", r.events.to_string()),
        ("rounds", rounds.to_string()),
        ("wall_s", format!("{wall_s:.3}")),
        ("sessions_per_s", format!("{:.1}", sessions as f64 / wall_s)),
        ("phases", obj(&phases.map(|(k, v)| (k, format!("{v:.3}"))))),
        ("shard_wall_ms", format!("[{}]", walls.join(", "))),
        ("faults", obj(&faults)),
        ("content_hash", quote(&hex(&r.content_hash()))),
    ]);
    for extra in suite.extras {
        match extra {
            Extra::Payload => {
                let malformed: Vec<_> = f.malformed.iter().map(|(c, n)| (c.label(), n)).collect();
                fields.extend([
                    ("dns_payload_mutations", f.dns_payload_mutations.to_string()),
                    (
                        "smtp_payload_mutations",
                        f.smtp_payload_mutations.to_string(),
                    ),
                    ("hostile_inputs", f.hostile_inputs.to_string()),
                    ("malformed", obj(&malformed)),
                ]);
            }
            Extra::ShardsDemoted => {
                let demoted = r.shard_stats.iter().filter(|s| s.durability_lost);
                fields.push(("shards_demoted", demoted.count().to_string()));
            }
            Extra::JournalBytes => fields.push(("journal_bytes", journal_bytes.to_string())),
            Extra::TraceEvents => {
                let events = r.telemetry.as_ref().map_or(0, |t| t.events.len());
                fields.push(("trace_events", events.to_string()));
            }
        }
    }
    Row {
        label,
        wall_s,
        fields,
    }
}

/// Total size of the files directly under `dir` (0 if unreadable).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let sizes = entries.filter_map(|e| e.ok()?.metadata().ok());
    sizes.map(|m| m.len()).sum()
}

fn hex(h: &[u8; 32]) -> String {
    h.iter().map(|b| format!("{b:02x}")).collect()
}

/// A JSON string value (the reports' strings need no escaping).
pub(crate) fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

/// A JSON object from keys and JSON values, on one line.
pub(crate) fn obj<V: Display>(fields: &[(&str, V)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A `FAIL` verdict for every row whose content hash differs from the
/// first row of its scale, when the suite declares its axis invariant.
pub(crate) fn invariance_failures(suite: &Suite, rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    if !suite.invariant {
        return failures;
    }
    for row in rows {
        let scale = get(&row.fields, "scale");
        let first = rows.iter().find(|r| get(&r.fields, "scale") == scale);
        let first = first.expect("a row matches its own scale");
        let want = text(&first.fields, "content_hash").unwrap_or("-");
        let got = text(&row.fields, "content_hash").unwrap_or("-");
        if got != want {
            failures.push(format!(
                "{}: FAIL {} changed the output: content_hash {got} vs {want} at {}",
                suite.name, row.label, first.label
            ));
        }
    }
    failures
}

/// The report: header fields one per line, then one row per line.
pub(crate) fn render(suite: &Suite, extra: Vec<(&'static str, String)>, rows: &[Row]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut header = vec![
        ("benchmark", quote(suite.benchmark)),
        ("cpus", cpus.to_string()),
        ("seed", crate::seed().to_string()),
    ];
    header.extend(suite.header.iter().map(|(k, v)| (*k, v.to_string())));
    header.extend(extra);
    let header: String = header
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v},\n"))
        .collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", obj(&r.fields)))
        .collect();
    format!("{{\n{header}  \"runs\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// Write the report to `out` (default `suite.out`), then print the
/// invariance verdicts; `false` if there were any.
pub(crate) fn finish(
    suite: &Suite,
    out: Option<String>,
    extra: Vec<(&'static str, String)>,
    rows: &[Row],
) -> bool {
    let out = out.unwrap_or_else(|| suite.out.to_string());
    std::fs::write(&out, render(suite, extra, rows)).expect("write result file");
    progress!("{}: wrote {out}", suite.name);
    verdicts(invariance_failures(suite, rows))
}

/// Print `FAIL` verdicts on stdout, where `MAILVAL_QUIET` cannot hide
/// them; `true` if there were none.
pub(crate) fn verdicts(failures: Vec<String>) -> bool {
    for failure in &failures {
        println!("{failure}");
    }
    failures.is_empty()
}

/// A gate's baseline report, or `None` after saying on stdout why it
/// cannot be read.
pub(crate) fn read_baseline(gate: &str, path: &str) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(report) => Some(report),
        Err(e) => {
            println!("{gate}: cannot read baseline {path}: {e}");
            None
        }
    }
}

/// Sweep `suite` at its own round count and [`finish`] it.
pub(crate) fn run(suite: &Suite, out: Option<String>) -> bool {
    finish(suite, out, Vec::new(), &sweep(suite, suite.rounds))
}

/// Split one JSON object into its top-level `(key, value)` fields, each
/// value as its JSON text (nested objects and arrays whole). A trailing
/// comma after the object, as on a report's row lines, is ignored.
pub(crate) fn fields(object: &str) -> Vec<(&str, &str)> {
    let object = object.trim().trim_end_matches(',');
    let inner = object.strip_prefix('{').and_then(|o| o.strip_suffix('}'));
    let inner = inner.unwrap_or("");
    let (mut depth, mut quoted, mut start) = (0, false, 0);
    let mut out = Vec::new();
    for (i, c) in inner.char_indices().chain([(inner.len(), ',')]) {
        match c {
            '"' => quoted = !quoted,
            '{' | '[' if !quoted => depth += 1,
            '}' | ']' if !quoted => depth -= 1,
            ',' if !quoted && depth == 0 => {
                if let Some((k, v)) = inner[start..i].split_once(':') {
                    out.push((k.trim().trim_matches('"'), v.trim()));
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    out
}

/// The rows of a report: every line that holds one object.
pub(crate) fn runs(report: &str) -> Vec<Vec<(&str, &str)>> {
    let lines = report.lines().filter(|l| l.trim_start().starts_with("{\""));
    lines.map(fields).collect()
}

/// The JSON text of `key` among `fields`.
pub(crate) fn get<'a, V: AsRef<str>>(fields: &'a [(&str, V)], key: &str) -> Option<&'a str> {
    let (_, v) = fields.iter().find(|(k, _)| *k == key)?;
    Some(v.as_ref())
}

/// The number under `key`.
pub(crate) fn num<V: AsRef<str>>(fields: &[(&str, V)], key: &str) -> Option<f64> {
    get(fields, key)?.parse().ok()
}

/// The string under `key` (`None` for a value that is not a string).
pub(crate) fn text<'a, V: AsRef<str>>(fields: &'a [(&str, V)], key: &str) -> Option<&'a str> {
    get(fields, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// `sessions_per_s` of a report's `(scale, shards)` row.
pub(crate) fn baseline_sessions_per_s(report: &str, scale: &str, shards: usize) -> Option<f64> {
    let rows = runs(report);
    let row = rows
        .iter()
        .find(|r| text(r, "scale") == Some(scale) && num(r, "shards") == Some(shards as f64))?;
    num(row, "sessions_per_s")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{chaos, perf};

    fn row(scale: &str, shards: usize, sessions_per_s: f64) -> Row {
        let fields = vec![
            ("scale", quote(scale)),
            ("shards", shards.to_string()),
            ("sessions_per_s", sessions_per_s.to_string()),
            ("phases", obj(&[("setup_share", 0.021)])),
        ];
        Row {
            label: format!("{scale} shards={shards}"),
            wall_s: 1.0,
            fields,
        }
    }

    #[test]
    fn committed_perf_baseline_parses_by_key() {
        // The committed baseline predates the shared row schema: its
        // rows carry `setup_s` and friends flat, not under `phases`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_perf.json");
        let report = std::fs::read_to_string(path).expect("committed baseline");
        assert_eq!(runs(&report).len(), 8);
        for scale in ["2k", "20k"] {
            for shards in [1, 2, 4, 8] {
                let sps = baseline_sessions_per_s(&report, scale, shards);
                assert!(sps.is_some_and(|s| s > 0.0), "{scale} shards={shards}");
            }
        }
        assert_eq!(baseline_sessions_per_s(&report, "2k", 1), Some(2050.9));
        assert_eq!(baseline_sessions_per_s(&report, "20k", 16), None);
    }

    #[test]
    fn writer_output_parses_back_by_key() {
        let rows = [row("2k", 1, 2000.0), row("20k", 8, 1987.5)];
        let report = render(&perf::SUITE, vec![("note", quote("a, b: {c}"))], &rows);
        let header = fields(&report);
        assert_eq!(text(&header, "benchmark"), Some("perf_phase_accounting"));
        assert_eq!(num(&header, "max_setup_share"), Some(0.30));
        assert_eq!(text(&header, "note"), Some("a, b: {c}"));
        let parsed = runs(&report);
        assert_eq!(parsed.len(), 2);
        for (p, r) in parsed.iter().zip(&rows) {
            let owned: Vec<(&str, &str)> = r.fields.iter().map(|(k, v)| (*k, v.as_str())).collect();
            assert_eq!(p, &owned);
        }
        assert_eq!(text(&parsed[0], "scale"), Some("2k"));
        assert_eq!(num(&parsed[0], "shards"), Some(1.0));
        assert!((num(&parsed[0], "sessions_per_s").unwrap() - 2000.0).abs() < 0.01);
        assert_eq!(text(&parsed[1], "scale"), Some("20k"));
        assert_eq!(num(&parsed[1], "shards"), Some(8.0));
        assert!((num(&parsed[1], "sessions_per_s").unwrap() - 1987.5).abs() < 0.01);
        let phases = fields(get(&parsed[1], "phases").expect("nested object"));
        assert_eq!(num(&phases, "setup_share"), Some(0.021));
    }

    #[test]
    fn missing_keys_and_wrong_types_read_as_none() {
        assert_eq!(num(&fields("{\"a\": 3}"), "b"), None);
        assert_eq!(text(&fields("{\"a\": 3}"), "a"), None);
        assert_eq!(num(&fields("{\"a\": 3.5}"), "a"), Some(3.5));
        assert_eq!(text(&fields("{\"a\": \"x\"}"), "a"), Some("x"));
        assert_eq!(num(&fields("{\"a\": \"3\"}"), "a"), None);
        assert!(fields("{}").is_empty());
        assert!(runs("{}\n").is_empty());
    }

    #[test]
    fn trace_gate_finds_the_2k_single_shard_row() {
        let report = "\
{\n  \"runs\": [\n    {\"scale\": \"2k\", \"shards\": 1, \"sessions_per_s\": 1234.5},\n    \
{\"scale\": \"2k\", \"shards\": 2, \"sessions_per_s\": 2000.0}\n  ]\n}\n";
        assert_eq!(baseline_sessions_per_s(report, "2k", 1), Some(1234.5));
        assert_eq!(baseline_sessions_per_s("{}", "2k", 1), None);
    }

    /// Chaos at ~100 domains over the given points.
    fn tiny_chaos(points: fn(&CampaignConfig) -> Vec<Point>, invariant: bool) -> Suite {
        Suite {
            scales: &[("tiny", 100.0 / 26_695.0)],
            points,
            invariant,
            ..chaos::SUITE
        }
    }

    #[test]
    fn tiny_sweep_rows_parse_back_and_an_output_axis_fails_invariance() {
        let suite = tiny_chaos(
            |base| vec![chaos::point(base, 0.0), chaos::point(base, 0.2)],
            true,
        );
        let rows = sweep(&suite, 1);
        let out = std::env::temp_dir().join(format!("mailval-sweep-{}.json", std::process::id()));
        let passed = finish(&suite, Some(out.display().to_string()), Vec::new(), &rows);
        let report = std::fs::read_to_string(&out).expect("report written");
        std::fs::remove_file(&out).expect("remove report");

        assert_eq!(
            text(&fields(&report), "benchmark"),
            Some("chaos_fault_sweep")
        );
        let parsed = runs(&report);
        assert_eq!(parsed.len(), 2);
        for (p, r) in parsed.iter().zip(&rows) {
            assert_eq!(p.len(), r.fields.len());
            assert!(num(p, "sessions").is_some_and(|n| n > 50.0));
            let faults = fields(get(p, "faults").expect("fault counters"));
            assert!(num(&faults, "dns_dropped").is_some());
            assert_eq!(text(p, "content_hash").map(str::len), Some(64));
        }
        assert_eq!(num(&parsed[0], "loss"), Some(0.0));
        assert_eq!(num(&parsed[1], "loss"), Some(0.2));

        // Loss changes the output, so declaring it invariant must fail.
        assert!(!passed);
        let failures = invariance_failures(&suite, &rows);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("bench-chaos: FAIL tiny loss=0.2 shards="),
            "{}",
            failures[0]
        );
        assert!(invariance_failures(&tiny_chaos(suite.points, false), &rows).is_empty());
    }

    #[test]
    fn a_shard_count_axis_passes_invariance() {
        let suite = tiny_chaos(
            |base| {
                let single = CampaignConfig {
                    shards: 1,
                    ..base.clone()
                };
                vec![chaos::point(&single, 0.05), chaos::point(base, 0.05)]
            },
            true,
        );
        let rows = sweep(&suite, 1);
        assert_eq!(invariance_failures(&suite, &rows), Vec::<String>::new());
    }
}
