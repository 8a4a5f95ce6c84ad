//! Known-answer tests for the wire codec.
//!
//! Each message below was encoded once and its bytes pinned here. The
//! encoder must keep reproducing them byte for byte (same compression
//! pointers, same uncompressed names), and decoding the pinned bytes must
//! give back a message equal to the one that produced them.
//!
//! The large message grows past offset 0x3fff, the last offset a
//! compression pointer can reach; its 16 KiB image is pinned by length,
//! FNV-1a-64 digest and the hex of its tail, where every name written
//! past the pointer limit sits.

use mailval_dns::rr::SoaData;
use mailval_dns::{Message, Name, RData, Rcode, Record, RecordType};
use std::net::Ipv4Addr;

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2));
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mx(preference: u16, exchange: &str) -> RData {
    RData::Mx {
        preference,
        exchange: n(exchange),
    }
}

fn a(ip: [u8; 4]) -> RData {
    RData::A(Ipv4Addr::from(ip))
}

/// An MX answer set whose exchanges share suffixes with the question,
/// with each other, and with the glue owner names that follow them.
fn mx_answer_set() -> Message {
    let mut query = Message::query(0x2a17, n("example.com"), RecordType::Mx);
    query.recursion_desired = true;
    let mut msg = Message::response_to(&query, Rcode::NoError);
    msg.authoritative = true;
    msg.answers = vec![
        Record::new(n("example.com"), 300, mx(10, "mx1.example.com")),
        Record::new(n("example.com"), 300, mx(20, "mx2.example.com")),
        Record::new(n("example.com"), 300, mx(30, "mail.backup.example.com")),
        Record::new(n("example.com"), 300, mx(40, "mx.example.net")),
        Record::new(n("example.com"), 300, mx(50, "example.com")),
        Record::new(n("example.com"), 300, mx(60, "relay.mx.example.net")),
    ];
    msg.additionals = vec![
        Record::new(n("mx1.example.com"), 60, a([192, 0, 2, 1])),
        Record::new(n("mail.backup.example.com"), 60, a([192, 0, 2, 3])),
        Record::new(n("relay.mx.example.net"), 60, a([198, 51, 100, 7])),
    ];
    msg
}

/// NS, CNAME, SOA, PTR and TXT rdata, with a case-folded question.
fn ns_cname_soa() -> Message {
    let query = Message::query(0xbeef, n("WWW.Example.ORG."), RecordType::A);
    let mut msg = Message::response_to(&query, Rcode::NoError);
    msg.answers = vec![
        Record::new(
            n("www.example.org"),
            120,
            RData::Cname(n("web.cdn.example.net")),
        ),
        Record::new(n("web.cdn.example.net"), 20, a([203, 0, 113, 9])),
        Record::new(
            n("9.113.0.203.in-addr.arpa"),
            20,
            RData::Ptr(n("web.cdn.example.net")),
        ),
        Record::new(
            n("example.org"),
            20,
            RData::txt_from_str("v=spf1 include:_spf.example.net -all"),
        ),
    ];
    msg.authorities = vec![
        Record::new(n("example.org"), 3600, RData::Ns(n("ns1.example.org"))),
        Record::new(n("example.org"), 3600, RData::Ns(n("ns2.dns.example.net"))),
        Record::new(
            n("example.org"),
            3600,
            RData::Soa(SoaData {
                mname: n("ns1.example.org"),
                rname: n("hostmaster.example.org"),
                serial: 2021120701,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ),
    ];
    msg
}

/// A query repeating its question name, then a suffix of it, then a
/// name whose printable label bytes look like length octets (0x21 is
/// `!`): `x!aaa…` ends in the same bytes as the wire form of `aaa….com`
/// but is not under it, so no pointer may land inside its label.
fn repeated_question() -> Message {
    let long = "a".repeat(33);
    let mut msg = Message::query(0x0101, n("t01.m5.spf-test.dns-lab.org"), RecordType::Txt);
    for (name, rtype) in [
        ("t01.m5.spf-test.dns-lab.org".to_string(), RecordType::A),
        ("t01.m5.spf-test.dns-lab.org".to_string(), RecordType::Txt),
        ("m5.spf-test.dns-lab.org".to_string(), RecordType::Aaaa),
        (format!("x!{long}.com"), RecordType::A),
        (format!("{long}.com"), RecordType::A),
        (format!("?.{long}.com"), RecordType::Mx),
    ] {
        let mut q = msg.questions[0].clone();
        q.name = n(&name);
        q.rtype = rtype;
        msg.questions.push(q);
    }
    msg
}

/// Names at the 255-byte limit, sharing long suffixes.
fn near_limit_names() -> Message {
    let label = "b".repeat(63);
    let base = format!("{label}.{label}.{label}");
    let full = format!("{}.{base}", "c".repeat(61));
    assert_eq!(n(&full).wire_len(), 255);
    let query = Message::query(0x7777, n(&full), RecordType::Txt);
    let mut msg = Message::response_to(&query, Rcode::NxDomain);
    msg.authorities = vec![Record::new(
        n(&base),
        60,
        RData::Soa(SoaData {
            mname: n(&format!("ns.{base}")),
            rname: n(&full),
            serial: 1,
            refresh: 2,
            retry: 3,
            expire: 4,
            minimum: 5,
        }),
    )];
    msg
}

/// A response that grows past offset 0x3fff, then writes names whose
/// suffixes were first seen on either side of the pointer limit.
fn past_pointer_limit() -> Message {
    let query = Message::query(0x4000, n("big.example"), RecordType::Txt);
    let mut msg = Message::response_to(&query, Rcode::NoError);
    for i in 0..300u32 {
        let payload = format!("record {i:03} {}", "p".repeat(28));
        msg.answers.push(Record::new(
            n(&format!("r{i:03}.big.example")),
            60,
            RData::txt_from_str(&payload),
        ));
    }
    for (owner, rdata) in [
        ("late.big.example", a([192, 0, 2, 200])),
        ("late.big.example", a([192, 0, 2, 201])),
        ("deep.late.big.example", RData::Cname(n("late.big.example"))),
        ("r005.big.example", RData::Cname(n("r299.big.example"))),
        ("big.example", mx(5, "late.other.example")),
        ("other.example", RData::Ns(n("late.other.example"))),
    ] {
        msg.answers.push(Record::new(n(owner), 60, rdata));
    }
    msg
}

const MX_ANSWER_SET: &str = "2a1785000001000600000003076578616d706c6503636f6d00000f0001c00c000f00010000012c0008000a036d7831c00cc00c000f00010000012c00080014036d7832c00cc00c000f00010000012c0010001e046d61696c066261636b7570c00cc00c000f00010000012c00120028026d78076578616d706c65036e657400c00c000f00010000012c00040032c00cc00c000f00010000012c000a003c0572656c6179c06fc02b000100010000003c0004c0000201c053000100010000003c0004c0000203c09d000100010000003c0004c6336407";
const NS_CNAME_SOA: &str = "beef8000000100040003000003777777076578616d706c65036f72670000010001c00c00050001000000780015037765620363646e076578616d706c65036e657400c02d00010001000000140004cb00710901390331313301300332303307696e2d61646472046172706100000c0001000000140002c02dc0100010000100000014002524763d7370663120696e636c7564653a5f7370662e6578616d706c652e6e6574202d616c6cc0100002000100000e100006036e7331c010c0100002000100000e10000a036e733203646e73c035c0100006000100000e100023c0b50a686f73746d6173746572c0107877dabd00001c2000000e10001275000000012c";
const REPEATED_QUESTION: &str = "01010000000700000000000003743031026d35087370662d7465737407646e732d6c6162036f72670000100001c00c00010001c00c00100001c010001c000123782161616161616161616161616161616161616161616161616161616161616161616103636f6d000001000121616161616161616161616161616161616161616161616161616161616161616161c06300010001013fc06c000f0001";
const NEAR_LIMIT_NAMES: &str = "7777800300010000000100003d636363636363636363636363636363636363636363636363636363636363636363636363636363636363636363636363636363636363636363636363633f6262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262623f6262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262623f6262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262626262620000100001c04a000600010000003c001b026e73c04ac00c0000000100000002000000030000000400000005";

const PAST_LIMIT_LEN: usize = 17277;
const PAST_LIMIT_FNV: u64 = 0x9b5484d02cf720b1;
const PAST_LIMIT_TAIL: &str = "72642032393820707070707070707070707070707070707070707070707070707070700472323939c00c001000010000003c0028277265636f7264203239392070707070707070707070707070707070707070707070707070707070046c617465c00c000100010000003c0004c00002c8046c617465c00c000100010000003c0004c00002c90464656570046c617465c00c000500010000003c0007046c617465c00cc13a000500010000003c00070472323939c00cc00c000f00010000003c000f0005046c617465056f74686572c010056f74686572c010000200010000003c000d046c617465056f74686572c010";

fn check(name: &str, msg: &Message, pinned: &str) {
    let bytes = msg.to_bytes();
    assert_eq!(hex(&bytes), pinned, "{name}: encoding moved");
    assert_eq!(
        Message::from_bytes(&unhex(pinned)).as_ref(),
        Ok(msg),
        "{name}: pinned bytes decode to a different message"
    );
}

#[test]
fn mx_answer_set_matches_pinned_bytes() {
    check("mx_answer_set", &mx_answer_set(), MX_ANSWER_SET);
}

#[test]
fn ns_cname_soa_matches_pinned_bytes() {
    check("ns_cname_soa", &ns_cname_soa(), NS_CNAME_SOA);
}

#[test]
fn repeated_question_matches_pinned_bytes() {
    check("repeated_question", &repeated_question(), REPEATED_QUESTION);
}

#[test]
fn near_limit_names_match_pinned_bytes() {
    check("near_limit_names", &near_limit_names(), NEAR_LIMIT_NAMES);
}

#[test]
fn past_pointer_limit_matches_pinned_bytes() {
    let msg = past_pointer_limit();
    let bytes = msg.to_bytes();
    assert!(bytes.len() > 0x3fff + 100, "message must outgrow pointers");
    assert_eq!(bytes.len(), PAST_LIMIT_LEN);
    assert_eq!(fnv1a64(&bytes), PAST_LIMIT_FNV);
    let tail = unhex(PAST_LIMIT_TAIL);
    assert_eq!(hex(&bytes[bytes.len() - tail.len()..]), PAST_LIMIT_TAIL);
    assert_eq!(Message::from_bytes(&bytes).as_ref(), Ok(&msg));
}
