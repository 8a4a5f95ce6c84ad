//! The per-layer metric map and the outside-in layer replays.
//!
//! Every per-layer number comes from outside the program: counts are
//! read from the campaign's own telemetry and results, and times come
//! from calling each layer's public functions again on the workload's
//! own inputs (the sessions it ran, the queries it logged, the store it
//! wrote). Nothing inside the program is instrumented.

use mailval_crypto::bigint::SplitMix64;
use mailval_crypto::rsa::RsaKeyPair;
use mailval_crypto::HashAlg;
use mailval_datasets::Population;
use mailval_dkim::key::DkimKeyRecord;
use mailval_dkim::{sign_message, DkimResult, DkimVerifier, SignConfig, VerifyStep};
use mailval_dmarc::eval::AuthResults;
use mailval_dmarc::{DmarcEvaluator, DmarcRecord, DmarcStep};
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::server::{Authority, ServerCore};
use mailval_dns::{Message, Name, Rcode, RecordType};
use mailval_measure::journal::{encode_frame, JournalFrame, JournalWriter};
use mailval_measure::names::NameScheme;
use mailval_measure::policies::SynthAddrs;
use mailval_measure::{CampaignResult, QueryLog, SessionRecord, SynthesizingAuthority};
use mailval_mta::profile::MtaProfile;
use mailval_simnet::FaultStats;
use mailval_smtp::client::Phase;
use mailval_smtp::mail::MailMessage;
use mailval_smtp::EmailAddress;
use mailval_spf::{EvalParams, EvalStep, SpfEvaluator, SpfResult};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One per-layer metric: its name, unit and direction, the program
/// layer it measures, and the end-to-end metric and workload it should
/// move.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// The program layer (module) measured.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const SETUP: &str = "setup_s on notify_email and notify_mx";
const EMAIL_SPS: &str = "sessions_per_s on notify_email; no change on notify_mx";
const BOTH_SPS: &str = "sessions_per_s on notify_mx mostly, notify_email a little";
const MX_SPS: &str = "sessions_per_s on notify_mx";
const FANOUT: &str = "no end-to-end metric (the 2-shard fan-out runs only when traced)";
const RENDER: &str = "render_s on artifacts_warm";
const WARM_SETUP: &str = "setup_s on artifacts_warm";
const NONE: &str = "no end-to-end metric (baseline for a durable workload)";

/// Every per-layer metric the traced run reports, in report order.
/// `BENCHMARK.json` lists exactly these names.
pub const LAYER_METRICS: &[LayerMetric] = &[
    lm("world.build_s", "s", "lower", "measure.campaign", SETUP),
    lm("crypto.keygen_s", "s", "lower", "crypto", SETUP),
    lm("crypto.rsa_sign_us", "us", "lower", "crypto", EMAIL_SPS),
    lm("dkim.sign_us", "us", "lower", "dkim", EMAIL_SPS),
    lm("dkim.verify_us", "us", "lower", "dkim", EMAIL_SPS),
    lm("dkim.signatures", "count", "lower", "dkim", EMAIL_SPS),
    lm("dkim.verifications", "count", "lower", "dkim", EMAIL_SPS),
    lm("dkim.total_s", "s", "lower", "dkim", EMAIL_SPS),
    lm("spf.evaluations", "count", "lower", "spf", BOTH_SPS),
    lm("spf.lookups_mean", "count", "lower", "spf", BOTH_SPS),
    lm("spf.eval_us", "us", "lower", "spf", BOTH_SPS),
    lm("spf.total_s", "s", "lower", "spf", BOTH_SPS),
    lm("dns.lookups", "count", "lower", "mta.resolver", BOTH_SPS),
    lm(
        "dns.cache_hit_ratio",
        "ratio",
        "higher",
        "mta.resolver",
        BOTH_SPS,
    ),
    lm(
        "dns.tcp_fallbacks",
        "count",
        "lower",
        "mta.resolver",
        BOTH_SPS,
    ),
    lm("dns.timeouts", "count", "lower", "mta.resolver", BOTH_SPS),
    lm("dns.authority_us", "us", "lower", "dns", BOTH_SPS),
    lm("dns.decode_us", "us", "lower", "dns", BOTH_SPS),
    lm("dns.total_s", "s", "lower", "dns", BOTH_SPS),
    lm("smtp.commands", "count", "lower", "smtp", BOTH_SPS),
    lm("smtp.replies", "count", "lower", "smtp", BOTH_SPS),
    lm("dmarc.evaluations", "count", "lower", "dmarc", EMAIL_SPS),
    lm("dmarc.eval_us", "us", "lower", "dmarc", EMAIL_SPS),
    lm("engine.events", "count", "lower", "measure.engine", MX_SPS),
    lm("engine.simulate_s", "s", "lower", "measure.engine", MX_SPS),
    lm(
        "engine.unattributed_share",
        "ratio",
        "lower",
        "measure.engine",
        MX_SPS,
    ),
    lm("shard.merge_s", "s", "lower", "measure.shard", MX_SPS),
    lm("shard.imbalance", "ratio", "lower", "simnet", FANOUT),
    lm(
        "process.cpu_busy_share",
        "ratio",
        "higher",
        "simnet",
        FANOUT,
    ),
    lm("store.decode_s", "s", "lower", "measure.store", RENDER),
    lm("store.load_s", "s", "lower", "measure.store", RENDER),
    lm("store.bytes", "bytes", "lower", "measure.store", RENDER),
    lm("store.encode_s", "s", "lower", "measure.store", WARM_SETUP),
    lm("store.save_s", "s", "lower", "measure.store", WARM_SETUP),
    lm("datasets.population_s", "s", "lower", "datasets", RENDER),
    lm("datasets.profiles_s", "s", "lower", "datasets", RENDER),
    lm(
        "artifacts.render_s",
        "s",
        "lower",
        "bench.artifacts",
        RENDER,
    ),
    lm("journal.encode_us", "us", "lower", "measure.journal", NONE),
    lm("journal.append_us", "us", "lower", "measure.journal", NONE),
    lm(
        "telemetry.overhead",
        "ratio",
        "lower",
        "measure.telemetry",
        MX_SPS,
    ),
];

/// The per-layer values a traced run measured, by name. A layer the
/// workload does not exercise is left out and reported as 0.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `value` for `name`, which must be in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|m| m.name == name),
            "{name} is not in the layer map"
        );
        self.0.insert(name, value);
    }

    /// Emit every metric of the layer map, in map order, each after a
    /// line naming its layer, direction and the metric it should move.
    pub fn emit(&self, report: &mut crate::stats::Report) {
        for m in LAYER_METRICS {
            let measured = if self.0.contains_key(m.name) {
                "measured"
            } else {
                "not exercised"
            };
            println!(
                "layer {} [{}, {} is better, {measured}] -> {}",
                m.name, m.layer, m.better, m.moves
            );
            report.metric(m.name, self.0.get(m.name).copied().unwrap_or(0.0), m.unit);
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Mean microseconds per call of `total_s` over `calls` (0 for none).
fn per_call_us(total_s: f64, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_s * 1e6 / calls as f64
    }
}

/// Whether a session's client sent its message: the server answered
/// the message payload.
pub fn sent_message(session: &SessionRecord) -> bool {
    session
        .outcome
        .as_ref()
        .is_some_and(|o| o.transcript.iter().any(|(p, _)| *p == Phase::Message))
}

/// A counter from the campaign's telemetry (0 when absent).
pub fn counter(result: &CampaignResult, name: &str) -> u64 {
    result
        .telemetry
        .as_ref()
        .and_then(|t| t.metrics.counters.get(name).copied())
        .unwrap_or(0)
}

/// Sum of the telemetry counters whose names start with `prefix`.
pub fn counter_prefix_sum(result: &CampaignResult, prefix: &str) -> u64 {
    result
        .telemetry
        .as_ref()
        .map(|t| {
            t.metrics
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| *v)
                .sum()
        })
        .unwrap_or(0)
}

/// The layers a campaign run exercises, replayed from outside against
/// an apparatus of the replay's own: a synthesizing authority carrying
/// the replay key's DKIM record, served through a [`ServerCore`].
pub struct Replay<'a> {
    pop: &'a Population,
    profiles: &'a [MtaProfile],
    scheme: NameScheme,
    client_ip: std::net::IpAddr,
    keypair: RsaKeyPair,
    server: ServerCore<SynthesizingAuthority>,
}

/// The body of the campaign's notification message, as
/// `mailval_measure::campaign` writes it.
const NOTIFICATION_BODY: &str = "Dear network operator,\n\
     \n\
     During a recent measurement study we detected that your network\n\
     does not enforce destination-side source address validation.\n\
     Details and remediation guidance: https://dns-lab.org/dsav\n\
     \n\
     To opt out of future notifications, reply to this message.\n";

/// Key generations timed for `crypto.keygen_s` (the median is kept).
const KEYGEN_ROUNDS: usize = 3;
/// RSA signatures timed for `crypto.rsa_sign_us`.
const RSA_SIGNS: usize = 200;
/// Cap on replayed SPF evaluations.
const MAX_SPF_REPLAYS: usize = 20_000;
/// Cap on journal frames written for the journal layer.
const MAX_JOURNAL_FRAMES: usize = 4_096;

impl<'a> Replay<'a> {
    /// Build the replay apparatus, timing key generation.
    pub fn new(
        seed: u64,
        pop: &'a Population,
        profiles: &'a [MtaProfile],
        layers: &mut Layers,
    ) -> Self {
        let mut keygen_s = Vec::new();
        let mut keypair = None;
        for round in 0..KEYGEN_ROUNDS as u64 {
            let mut rng = SplitMix64::new(seed ^ (0x6b65_7967 + round));
            let start = Instant::now();
            keypair = Some(RsaKeyPair::generate(1024, &mut rng));
            keygen_s.push(secs(start));
        }
        layers.set("crypto.keygen_s", crate::stats::median(&keygen_s));
        let keypair = keypair.expect("at least one key generation");
        let scheme = NameScheme::default();
        let addrs = SynthAddrs::default();
        let authority = SynthesizingAuthority::new(
            scheme.clone(),
            addrs.clone(),
            DkimKeyRecord::for_key(&keypair.public).to_record_text(),
            DmarcRecord::strict_reject("dmarc-reports@dns-lab.org").to_record_text(),
        );
        Replay {
            pop,
            profiles,
            scheme,
            client_ip: std::net::IpAddr::V4(addrs.sender_v4),
            keypair,
            server: ServerCore::new(authority),
        }
    }

    /// Answer one question straight from the authority.
    fn resolve(&self, name: &Name, rtype: RecordType) -> ResolveOutcome {
        match self.server.authority().answer(name, rtype) {
            None => ResolveOutcome::ServFail,
            Some(a) if a.rcode == Rcode::NxDomain => ResolveOutcome::NxDomain,
            Some(a) if a.rcode != Rcode::NoError => ResolveOutcome::ServFail,
            Some(a) if a.answers.is_empty() => ResolveOutcome::NoData,
            Some(a) => ResolveOutcome::Records(a.answers),
        }
    }

    /// `crypto.rsa_sign_us`: raw RSA-1024 signatures over SHA-256
    /// digests of the sessions' signing domains.
    pub fn rsa(&self, layers: &mut Layers) {
        let digests: Vec<Vec<u8>> = (0..RSA_SIGNS)
            .map(|i| {
                let d = self.scheme.notify_domain(i % self.pop.domains.len().max(1));
                HashAlg::Sha256.digest(d.to_string().as_bytes())
            })
            .collect();
        let start = Instant::now();
        for d in &digests {
            black_box(
                self.keypair
                    .private
                    .sign_digest(HashAlg::Sha256, black_box(d)),
            )
            .expect("digest is signable");
        }
        layers.set(
            "crypto.rsa_sign_us",
            per_call_us(secs(start), digests.len()),
        );
    }

    /// The notification message of domain `index`, unsigned, as the
    /// campaign builds it.
    fn notification(&self, index: usize) -> MailMessage {
        // The header calls read as in the campaign's `build_notification`;
        // a test holds them to it.
        let from: EmailAddress = self.scheme.notify_from(index);
        let recipient_domain = &self.pop.domains[index].name;
        let mut m = MailMessage::new();
        m.add_header("From", &format!("Network Notifier <{from}>"));
        m.add_header("To", &format!("operator@{recipient_domain}"));
        m.add_header(
            "Subject",
            "Action recommended: source-address-validation issue detected",
        );
        m.add_header("Date", "Mon, 12 Oct 2020 09:00:00 +0000");
        m.add_header(
            "Message-ID",
            &format!("<notify.{}@dns-lab.org>", from.domain),
        );
        m.add_header("Reply-To", "research@dns-lab.org");
        m.set_body_text(NOTIFICATION_BODY);
        m
    }

    /// DKIM: sign one notification per message the campaign sent (a
    /// NotifyEmail campaign signs every message it sends) and verify as
    /// many as the campaign verified. Returns whether every replayed
    /// verification passed.
    pub fn dkim(&self, result: &CampaignResult, layers: &mut Layers) -> bool {
        let verifications = counter(result, "dkim_pass") + counter(result, "dkim_fail");
        let unsigned: Vec<(MailMessage, SignConfig)> = result
            .sessions
            .iter()
            .filter(|s| sent_message(s))
            .map(|s| {
                let domain = self.scheme.notify_domain(s.domain_index);
                let config = SignConfig::new(domain, Name::parse("sel1").expect("valid"));
                (self.notification(s.domain_index), config)
            })
            .collect();
        let start = Instant::now();
        let values: Vec<String> = unsigned
            .iter()
            .map(|(m, c)| sign_message(m, c, &self.keypair.private).expect("signable"))
            .collect();
        let sign_s = secs(start);
        let signed: Vec<MailMessage> = unsigned
            .into_iter()
            .zip(values)
            .map(|((mut m, _), v)| {
                m.prepend_header("DKIM-Signature", &v);
                m
            })
            .collect();

        // As many verifications as the campaign made, and at least one
        // when anything was signed.
        let replays = (verifications as usize).clamp(signed.len().min(1), signed.len());
        let start = Instant::now();
        let mut all_pass = true;
        for message in &signed[..replays] {
            let mut verifier = DkimVerifier::new(message, 0);
            let step = match verifier.start() {
                VerifyStep::NeedKey { name, rtype } => verifier.on_key(self.resolve(&name, rtype)),
                done => done,
            };
            all_pass &= matches!(step, VerifyStep::Done(DkimResult::Pass));
        }
        let verify_s = secs(start);

        let sign_us = per_call_us(sign_s, signed.len());
        let verify_us = per_call_us(verify_s, replays);
        layers.set("dkim.sign_us", sign_us);
        layers.set("dkim.verify_us", verify_us);
        layers.set("dkim.signatures", signed.len() as f64);
        layers.set("dkim.verifications", verifications as f64);
        layers.set(
            "dkim.total_s",
            (sign_us * signed.len() as f64 + verify_us * verifications as f64) / 1e6,
        );
        all_pass
    }

    /// SPF: one MAIL FROM evaluation per session whose MTA validates
    /// SPF, with that MTA's evaluator behavior, against the authority.
    pub fn spf(&self, result: &CampaignResult, layers: &mut Layers) {
        let params: Vec<(EvalParams, usize)> = result
            .sessions
            .iter()
            .filter(|s| self.profiles[s.host_index].combo.spf)
            .take(MAX_SPF_REPLAYS)
            .map(|s| {
                let (from, helo) = match s.testid {
                    Some(t) => (
                        self.scheme.probe_from(t, s.host_index),
                        self.scheme.probe_helo(t, s.host_index).to_string(),
                    ),
                    None => (
                        self.scheme.notify_from(s.domain_index),
                        "notify.dns-lab.org".to_string(),
                    ),
                };
                let p = EvalParams {
                    ip: self.client_ip,
                    domain: from.domain.clone(),
                    sender_local: from.local.clone(),
                    sender_domain: from.domain,
                    helo,
                };
                (p, s.host_index)
            })
            .collect();
        let start = Instant::now();
        for (p, host) in params.iter() {
            let mut ev = SpfEvaluator::new(p.clone(), self.profiles[*host].spf_behavior.clone());
            let mut step = ev.start();
            while let EvalStep::NeedLookups(questions) = step {
                let answers = questions
                    .into_iter()
                    .map(|q| {
                        let outcome = self.resolve(&q.name, q.rtype);
                        (q, outcome)
                    })
                    .collect();
                step = ev.resume(answers);
            }
            black_box(step);
        }
        let eval_us = per_call_us(secs(start), params.len());

        let evaluations = counter_prefix_sum(result, "spf_") - counter(result, "spf_hostile");
        let lookups = result
            .telemetry
            .as_ref()
            .and_then(|t| t.metrics.histograms.get("spf_lookups"))
            .map(|h| h.sum as f64 / h.count.max(1) as f64)
            .unwrap_or(0.0);
        layers.set("spf.evaluations", evaluations as f64);
        layers.set("spf.lookups_mean", lookups);
        layers.set("spf.eval_us", eval_us);
        layers.set("spf.total_s", eval_us * evaluations as f64 / 1e6);
    }

    /// DNS: every logged query, encoded, answered by
    /// [`ServerCore::handle`] and the answer decoded. Returns whether
    /// every answer decoded.
    pub fn dns(&self, log: &QueryLog, layers: &mut Layers) -> bool {
        let requests: Vec<Vec<u8>> = log
            .records
            .iter()
            .enumerate()
            .map(|(i, q)| Message::query(i as u16, q.qname.clone(), q.qtype).to_bytes())
            .collect();
        let start = Instant::now();
        let replies: Vec<Vec<u8>> = requests
            .iter()
            .zip(&log.records)
            .filter_map(|(bytes, q)| self.server.handle(bytes, q.transport, q.via_ipv6))
            .map(|reply| reply.bytes)
            .collect();
        let authority_s = secs(start);
        let start = Instant::now();
        let decoded = replies
            .iter()
            .filter(|bytes| black_box(Message::from_bytes(bytes)).is_ok())
            .count();
        let decode_s = secs(start);
        layers.set("dns.authority_us", per_call_us(authority_s, requests.len()));
        layers.set("dns.decode_us", per_call_us(decode_s, replies.len()));
        layers.set("dns.total_s", authority_s + decode_s);
        decoded == replies.len()
    }

    /// DMARC: one evaluation per sent message whose MTA validates
    /// DMARC, with aligned SPF and DKIM passes.
    pub fn dmarc(&self, result: &CampaignResult, layers: &mut Layers) -> f64 {
        let auths: Vec<AuthResults> = result
            .sessions
            .iter()
            .filter(|s| sent_message(s) && self.profiles[s.host_index].combo.dmarc)
            .map(|s| {
                let domain = self.scheme.notify_domain(s.domain_index);
                AuthResults {
                    from_domain: domain.clone(),
                    spf_result: SpfResult::Pass,
                    spf_domain: Some(domain.clone()),
                    dkim: vec![(domain, true)],
                }
            })
            .collect();
        let start = Instant::now();
        for auth in &auths {
            let mut ev = DmarcEvaluator::new(auth.clone(), 0);
            let step = match ev.start() {
                DmarcStep::NeedLookup { name, rtype } => ev.on_answer(self.resolve(&name, rtype)),
                done => done,
            };
            black_box(step);
        }
        let eval_us = per_call_us(secs(start), auths.len());
        let evaluations = counter(result, "dmarc_pass") + counter(result, "dmarc_fail");
        layers.set("dmarc.evaluations", evaluations as f64);
        layers.set("dmarc.eval_us", eval_us);
        eval_us * evaluations as f64 / 1e6
    }
}

/// Journal: frames built from the campaign's session records and their
/// queries, encoded and appended to a fresh journal under `dir`.
pub fn journal(result: &CampaignResult, dir: &Path, layers: &mut Layers) -> std::io::Result<()> {
    let mut queries: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for q in &result.log.records {
        queries.entry(q.session).or_default().push(q.clone());
    }
    let frames: Vec<JournalFrame> = result
        .sessions
        .iter()
        .take(MAX_JOURNAL_FRAMES)
        .map(|r| JournalFrame {
            record: r.clone(),
            queries: queries.remove(&r.session_id).unwrap_or_default(),
            faults: FaultStats::default(),
            events: 0,
            end_ms: r.start_ms,
        })
        .collect();
    let start = Instant::now();
    for f in &frames {
        black_box(encode_frame(black_box(f)));
    }
    layers.set("journal.encode_us", per_call_us(secs(start), frames.len()));

    std::fs::create_dir_all(dir)?;
    let mut writer = JournalWriter::create(&dir.join("replay.jrnl"))?;
    let start = Instant::now();
    for f in &frames {
        writer.append(f)?;
    }
    writer.sync()?;
    layers.set("journal.append_us", per_call_us(secs(start), frames.len()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program offers no way to read the message a campaign sends,
    /// so the replay's message is held to the program's source: the
    /// header calls and the body of `build_notification` must read as
    /// in [`Replay::notification`].
    #[test]
    fn replayed_notification_matches_the_campaign_message() {
        let program = include_str!("../../crates/measure/src/campaign.rs");
        let program = function(program, "fn build_notification(", "\n}\n");
        let replay = function(
            include_str!("layers.rs"),
            "fn notification(&self",
            "\n    }\n",
        );
        assert_eq!(header_calls(program), header_calls(replay));
        assert_eq!(header_calls(program).len(), 6);
        let body = &program[program.find("m.set_body_text(").expect("body set") + 16..];
        assert_eq!(unescape(body), NOTIFICATION_BODY);
    }

    /// The text of a function, from `start` to the first `end` after it.
    fn function<'a>(source: &'a str, start: &str, end: &str) -> &'a str {
        let at = source.find(start).expect("function present");
        let len = source[at..].find(end).expect("function ends");
        &source[at..at + len]
    }

    /// Every `m.add_header(...)` call of a function, with the whitespace
    /// outside string literals and any trailing comma removed.
    fn header_calls(function: &str) -> Vec<String> {
        function
            .split("m.add_header(")
            .skip(1)
            .map(|call| {
                let call = &call[..call.find(");").expect("call ends")];
                let mut out = String::new();
                let (mut quoted, mut escaped) = (false, false);
                for c in call.chars() {
                    if quoted || !c.is_whitespace() {
                        out.push(c);
                    }
                    if escaped {
                        escaped = false;
                    } else if quoted && c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        quoted = !quoted;
                    }
                }
                out.trim_end_matches(',').to_string()
            })
            .collect()
    }

    /// The value of the Rust string literal `text` starts with.
    fn unescape(text: &str) -> String {
        let literal = text.trim_start().strip_prefix('"').expect("literal");
        let mut chars = literal.chars().peekable();
        let mut out = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => return out,
                '\\' => match chars.next() {
                    Some('n') => out.push('\n'),
                    // A line continuation: skip the next line's indent.
                    Some('\n') => while chars.next_if(|c| c.is_whitespace()).is_some() {},
                    Some(other) => out.push(other),
                    None => break,
                },
                c => out.push(c),
            }
        }
        panic!("literal does not end")
    }

    #[test]
    fn layer_names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for m in LAYER_METRICS {
            assert!(crate::stats::valid_name(m.name), "{}", m.name);
            assert!(crate::stats::valid_unit(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }
}
