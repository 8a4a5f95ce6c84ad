//! Domain names (RFC 1035 §2.3, §3.1).
//!
//! Names are stored as lowercase ASCII labels in wire form. DNS names are
//! case-insensitive (RFC 1035 §2.3.3) and every name produced or consumed
//! by the measurement apparatus is lowercase, so normalizing at the edge
//! keeps comparisons cheap and `Name` usable as a map key. Keeping the
//! wire form makes a name one allocation, and lets the codec copy and
//! compare names without re-splitting them.

use std::cmp::Ordering;
use std::fmt;

/// Maximum length of a single label in bytes.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (`foo..bar`) in a position where that is invalid.
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong,
    /// The whole name exceeded 255 wire bytes.
    NameTooLong,
    /// A label contained a byte outside printable ASCII.
    BadCharacter(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong => write!(f, "label exceeds 63 bytes"),
            NameError::NameTooLong => write!(f, "name exceeds 255 bytes"),
            NameError::BadCharacter(b) => write!(f, "invalid character 0x{b:02x} in label"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name.
///
/// Stored as one boxed buffer holding the lowercase labels in wire form,
/// each prefixed by its length octet, without the terminating root
/// label: `mail.example.com` is `\x04mail\x07example\x03com`. The root
/// name is the empty buffer and displays as `.`. Equality and hashing
/// work over the bytes; ordering compares label by label, exactly like
/// a sorted list of label strings.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Name {
    wire: Box<[u8]>,
}

/// Validate `label` and append it to `wire` in wire form, lowercased.
fn push_label(wire: &mut Vec<u8>, label: &str) -> Result<(), NameError> {
    let label = label.as_bytes();
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong);
    }
    // Accept any printable ASCII except '.' — hostnames in the wild
    // (and our synthesized test names) use letters, digits, '-', '_'.
    if let Some(&b) = label
        .iter()
        .find(|&&b| !(0x21..=0x7e).contains(&b) || b == b'.')
    {
        return Err(NameError::BadCharacter(b));
    }
    wire.push(label.len() as u8);
    wire.extend(label.iter().map(u8::to_ascii_lowercase));
    Ok(())
}

/// Iterator over a name's labels, leftmost (most specific) first.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(std::str::from_utf8(label).expect("labels are printable ASCII"))
    }
}

impl Name {
    /// The root name.
    pub fn root() -> Self {
        Name::default()
    }

    /// Wrap labels already in wire form (length-prefixed, lowercase,
    /// validated, no root terminator, at most 254 bytes).
    pub(crate) fn from_wire(wire: &[u8]) -> Self {
        Name { wire: wire.into() }
    }

    /// Wrap valid labels in wire form once every label has been checked,
    /// so a name both malformed and too long reports the bad label.
    fn from_checked_labels(wire: Vec<u8>) -> Result<Self, NameError> {
        // +1 for the root terminator the buffer leaves out.
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// The labels in wire form, without the root terminator.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Parse from presentation format (`mail.example.com`, optional
    /// trailing dot). The empty string and `"."` both give the root.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        // Each dot becomes a length octet, plus one for the first label.
        let mut wire = Vec::with_capacity(s.len() + 1);
        for label in s.split('.') {
            push_label(&mut wire, label)?;
        }
        Name::from_checked_labels(wire)
    }

    /// Construct from labels (each validated and lowercased).
    pub fn from_labels<I, S>(iter: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut wire = Vec::new();
        for label in iter {
            push_label(&mut wire, label.as_ref())?;
        }
        Name::from_checked_labels(wire)
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Length in wire bytes (length octets + labels + terminating zero).
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The parent name (one label removed from the left); `None` at root.
    pub fn parent(&self) -> Option<Name> {
        let (&len, tail) = self.wire.split_first()?;
        Some(Name::from_wire(&tail[len as usize..]))
    }

    /// Prepend a label: `label.self`.
    pub fn prepend(&self, label: &str) -> Result<Name, NameError> {
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        push_label(&mut wire, label)?;
        wire.extend_from_slice(&self.wire);
        Name::from_checked_labels(wire)
    }

    /// Concatenate: `self.other` (self's labels first).
    pub fn concat(&self, other: &Name) -> Result<Name, NameError> {
        Name::from_checked_labels([&self.wire[..], &other.wire[..]].concat())
    }

    /// Byte offset of the label where `ancestor` starts within `self`,
    /// if `self` equals `ancestor` or is a subdomain of it. Walks label
    /// boundaries: a bare byte-suffix match is not enough, because label
    /// bytes 0x21–0x3f double as valid length octets.
    fn suffix_start(&self, ancestor: &Name) -> Option<usize> {
        let cut = self.wire.len().checked_sub(ancestor.wire.len())?;
        let mut at = 0;
        while at < cut {
            at += 1 + self.wire[at] as usize;
        }
        (at == cut && self.wire[cut..] == ancestor.wire[..]).then_some(cut)
    }

    /// True if `self` equals `ancestor` or is a subdomain of it.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        self.suffix_start(ancestor).is_some()
    }

    /// Strip `suffix` from the right, returning the remaining left labels.
    ///
    /// `strip_suffix("a.b.example.com", "example.com")` yields `a`, `b`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Labels<'_>> {
        let cut = self.suffix_start(suffix)?;
        Some(Labels {
            rest: &self.wire[..cut],
        })
    }

    /// The `n` rightmost labels as a name (n may exceed the label count, in
    /// which case the whole name is returned).
    pub fn suffix(&self, n: usize) -> Name {
        let mut labels = self.labels();
        for _ in 0..self.label_count().saturating_sub(n) {
            labels.next();
        }
        Name::from_wire(labels.rest)
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Name {
    /// Presentation form: the wire bytes with every length octet turned
    /// into a dot, less the leading one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        let mut text = [0u8; MAX_NAME_LEN];
        let text = &mut text[..self.wire.len()];
        text.copy_from_slice(&self.wire);
        let mut at = 0;
        while at < text.len() {
            let len = text[at] as usize;
            text[at] = b'.';
            at += 1 + len;
        }
        f.write_str(std::str::from_utf8(&text[1..]).expect("labels are printable ASCII"))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::str::FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("example.com").to_string(), "example.com");
        assert_eq!(n("Example.COM.").to_string(), "example.com");
        assert_eq!(n("").to_string(), ".");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("a.b.c").label_count(), 3);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("MAIL.Example.Com"), n("mail.example.com"));
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
        let long = "x".repeat(64);
        assert_eq!(Name::parse(&long), Err(NameError::LabelTooLong));
        assert_eq!(Name::parse("a b"), Err(NameError::BadCharacter(b' ')));
    }

    #[test]
    fn rejects_too_long_name() {
        let label = "a".repeat(63);
        let long = [label.as_str(); 5].join(".");
        assert_eq!(Name::parse(&long), Err(NameError::NameTooLong));
    }

    #[test]
    fn wire_len() {
        assert_eq!(n("").wire_len(), 1);
        assert_eq!(n("com").wire_len(), 5); // 1+3 + 1
        assert_eq!(n("example.com").wire_len(), 13);
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("a.b.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("a.example.com")));
        assert!(!n("notexample.com").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn strip_suffix_labels() {
        let name = n("t01.m5.spf-test.dns-lab.org");
        let suffix = n("spf-test.dns-lab.org");
        let left: Vec<&str> = name.strip_suffix(&suffix).unwrap().collect();
        assert_eq!(left, ["t01", "m5"]);
        assert!(name.strip_suffix(&n("other.org")).is_none());
        assert_eq!(name.strip_suffix(&name).unwrap().count(), 0);
    }

    #[test]
    fn parent_and_prepend() {
        assert_eq!(n("a.b.c").parent().unwrap(), n("b.c"));
        assert_eq!(Name::root().parent(), None);
        assert_eq!(n("b.c").prepend("a").unwrap(), n("a.b.c"));
        assert_eq!(n("b.c").concat(&n("d.e")).unwrap(), n("b.c.d.e"));
    }

    #[test]
    fn suffix_n() {
        assert_eq!(n("a.b.c.d").suffix(2), n("c.d"));
        assert_eq!(n("a.b").suffix(5), n("a.b"));
        assert_eq!(n("a.b").suffix(0), Name::root());
    }

    /// The order the old `Vec<String>` representation derived: compare
    /// the collected label lists.
    fn label_list_cmp(a: &Name, b: &Name) -> Ordering {
        a.labels()
            .collect::<Vec<_>>()
            .cmp(&b.labels().collect::<Vec<_>>())
    }

    #[test]
    fn ord_matches_label_list_order_on_tricky_cases() {
        let names = [
            n("a.b"),
            n("a-x"),
            n("a"),
            n("ab"),
            n("ab.c"),
            n("a.bc"),
            n("A.B"),
            n("x.a.b"),
            n("b"),
            n("_dmarc.example"),
            n("~.a"),
            Name::root(),
        ];
        for x in &names {
            for y in &names {
                assert_eq!(x.cmp(y), label_list_cmp(x, y), "{x} vs {y}");
                assert_eq!(x.partial_cmp(y), Some(x.cmp(y)));
            }
        }
        // Wire bytes alone would order `a-x` (\x03a-x) after `a.b`
        // (\x01a\x01b); label order puts "a" before "a-x".
        assert!(n("a.b") < n("a-x"));
        assert!(
            n("a") < n("ab"),
            "a label that prefixes another sorts first"
        );
        assert!(Name::root() < n("a"));
        assert_eq!(n("A.B").cmp(&n("a.b")), Ordering::Equal);
    }

    #[test]
    fn ord_matches_label_list_order_on_random_names() {
        // xorshift64*: a fixed seed, no dependencies.
        let mut state = 0x2021_c0de_u64;
        let mut next = move |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        // A small alphabet with length-octet-looking bytes, so shared
        // prefixes and equal labels are common.
        let alphabet = b"ab-!?0";
        let names: Vec<Name> = (0..400)
            .map(|_| {
                let labels: Vec<String> = (0..next(4))
                    .map(|_| {
                        (0..1 + next(3))
                            .map(|_| alphabet[next(alphabet.len() as u64) as usize] as char)
                            .collect()
                    })
                    .collect();
                Name::from_labels(labels).unwrap()
            })
            .collect();
        for x in &names {
            for y in &names[..50] {
                assert_eq!(x.cmp(y), label_list_cmp(x, y), "{x} vs {y}");
            }
        }
        let mut sorted = names.clone();
        sorted.sort();
        let mut by_labels = names;
        by_labels.sort_by(label_list_cmp);
        assert_eq!(sorted, by_labels);
    }

    #[test]
    fn suffix_relations_walk_label_boundaries() {
        // `!` is 0x21 = 33: the wire form of `x!aaa….com` ends in the
        // exact bytes of `aaa….com` (\x21 + 33 × a + \x03com), but the
        // match starts inside a label, so it is no suffix.
        let long = "a".repeat(33);
        let ancestor = n(&format!("{long}.com"));
        let impostor = n(&format!("x!{long}.com"));
        assert!(impostor.wire().ends_with(ancestor.wire()));
        assert!(!impostor.is_subdomain_of(&ancestor));
        assert!(impostor.strip_suffix(&ancestor).is_none());
        let real = n(&format!("x!.{long}.com"));
        assert!(real.is_subdomain_of(&ancestor));
        assert_eq!(
            real.strip_suffix(&ancestor).unwrap().collect::<Vec<_>>(),
            ["x!"]
        );
        assert_eq!(real.suffix(2), ancestor);
        assert_eq!(real.parent().unwrap(), ancestor);
    }

    #[test]
    fn labels_iterate_and_display_roundtrips() {
        let name = n("Mail.Example.COM");
        assert_eq!(
            name.labels().collect::<Vec<_>>(),
            ["mail", "example", "com"]
        );
        assert_eq!(name.wire(), b"\x04mail\x07example\x03com");
        assert_eq!(Name::root().labels().count(), 0);
        assert!(Name::root().is_root());
        assert_eq!(n(&name.to_string()), name);
        assert_eq!(format!("{name:?}"), "Name(mail.example.com)");
    }

    #[test]
    fn length_limit_and_error_kinds() {
        let label = "a".repeat(63);
        // 3 × 64 + 62 + 1 = 255 wire bytes: the longest legal name.
        let longest = format!("{label}.{label}.{label}.{}", "b".repeat(61));
        assert_eq!(n(&longest).wire_len(), MAX_NAME_LEN);
        let over = format!("{label}.{label}.{label}.{}", "b".repeat(62));
        assert_eq!(Name::parse(&over), Err(NameError::NameTooLong));
        assert_eq!(
            Name::from_labels([label.as_str(); 4]),
            Err(NameError::NameTooLong)
        );
        let parent = n(&format!("{label}.{label}.{label}"));
        assert_eq!(parent.prepend(&"b".repeat(61)).unwrap().wire_len(), 255);
        assert_eq!(parent.prepend(&"b".repeat(62)), Err(NameError::NameTooLong));
        assert_eq!(
            parent.concat(&n(&"b".repeat(62))),
            Err(NameError::NameTooLong)
        );
        assert_eq!(parent.concat(&n(&"b".repeat(61))).unwrap().wire_len(), 255);
        // Label checks come before the length check, as they always did.
        assert_eq!(
            Name::parse(&format!("{over}.a b")),
            Err(NameError::BadCharacter(b' '))
        );
        assert_eq!(
            Name::parse(&format!("{over}..x")),
            Err(NameError::EmptyLabel)
        );
        assert_eq!(n("a").prepend(""), Err(NameError::EmptyLabel));
        assert_eq!(
            n("a").prepend(&"x".repeat(64)),
            Err(NameError::LabelTooLong)
        );
        assert_eq!(Name::parse("a.b\u{7f}"), Err(NameError::BadCharacter(0x7f)));
        assert_eq!(
            Name::from_labels(["ok", "dot.ted"]),
            Err(NameError::BadCharacter(b'.'))
        );
        assert_eq!(Name::from_labels(["é"]), Err(NameError::BadCharacter(0xc3)));
    }
}
