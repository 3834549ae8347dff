//! TLS ClientHello construction and TSPU-style inspection.
//!
//! The paper establishes (§5.2, Fig. 13) that the TSPU *parses* a
//! ClientHello to locate the SNI extension instead of string-matching whole
//! packets: mutating "type" or "length" fields changes the observed
//! censorship behavior while mutating opaque contents (random, session id,
//! ciphersuite values, other extension bodies) does not. [`extract_sni`]
//! implements exactly such a single-pass parser and reports *where* parsing
//! stopped, which the Fig. 13 fuzzing experiment uses to recover the
//! byte-sensitivity map.
//!
//! [`ClientHelloBuilder`] produces byte-accurate ClientHello records with
//! configurable session id, ciphersuites, extra extensions, and a padding
//! extension — everything the circumvention strategies (§8) manipulate.

use std::borrow::Cow;

use crate::{Error, Result};

/// TLS record content type for handshake records.
pub const CONTENT_TYPE_HANDSHAKE: u8 = 0x16;
/// Handshake message type for ClientHello.
pub const HANDSHAKE_TYPE_CLIENT_HELLO: u8 = 0x01;
/// Extension number for server_name (SNI).
pub const EXT_SERVER_NAME: u16 = 0x0000;
/// Extension number for padding (RFC 7685).
pub const EXT_PADDING: u16 = 0x0015;

/// The stage at which TSPU-style ClientHello parsing stopped.
///
/// Mutations to type/length fields push the parser into one of these
/// failure stages; mutations to opaque contents leave the outcome
/// unchanged. This distinction *is* the Fig. 13 sensitivity map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseStage {
    RecordHeader,
    HandshakeHeader,
    ClientVersion,
    SessionId,
    CipherSuites,
    Compression,
    ExtensionsLength,
    ExtensionHeader,
    SniEntry,
}

/// Outcome of TSPU-style SNI extraction over one TCP segment payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SniOutcome<'a> {
    /// A complete ClientHello with this server name, ASCII-lowercased: a
    /// slice of the payload, or a lowercased copy when the name on the
    /// wire has uppercase letters.
    Sni(Cow<'a, str>),
    /// A complete ClientHello without a server_name extension.
    NoSni,
    /// The first record is not a TLS handshake record at all.
    NotTls,
    /// A handshake record whose first message is not a ClientHello.
    NotClientHello,
    /// Structurally invalid or truncated at the given stage. Because the
    /// TSPU does not reassemble TCP streams (§8), a ClientHello split
    /// across segments lands here and never triggers.
    ParseFailure(ParseStage),
}

impl SniOutcome<'_> {
    /// The extracted hostname, if any.
    pub fn hostname(&self) -> Option<&str> {
        match self {
            SniOutcome::Sni(name) => Some(name.as_ref()),
            _ => None,
        }
    }
}

/// A cursor over the payload that fails with the current stage on underrun.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
    }

    fn u24(&mut self) -> Option<usize> {
        self.take(3).map(|s| (usize::from(s[0]) << 16) | (usize::from(s[1]) << 8) | usize::from(s[2]))
    }
}

/// Extracts the SNI from a TCP segment payload the way the TSPU does:
/// single pass over the *first* TLS record only, no TCP reassembly.
///
/// Returns [`SniOutcome::NotTls`] when the first bytes are not a plausible
/// handshake record, so prepending an unrelated TLS record (§8's client-side
/// strategy) defeats extraction. The name borrows from `payload` unless it
/// has to be lowercased, so a lower-case ClientHello is inspected without
/// touching the heap.
pub fn extract_sni(payload: &[u8]) -> SniOutcome<'_> {
    let mut r = Reader::new(payload);

    // Record header: type(1) version(2) length(2).
    let content_type = match r.u8() {
        Some(b) => b,
        None => return SniOutcome::NotTls,
    };
    if content_type != CONTENT_TYPE_HANDSHAKE {
        return SniOutcome::NotTls;
    }
    let record_version = match r.u16() {
        Some(v) => v,
        None => return SniOutcome::ParseFailure(ParseStage::RecordHeader),
    };
    // Accept SSL3.0..TLS1.3 record versions (0x0300..=0x0304), as real DPIs do.
    if !(0x0300..=0x0304).contains(&record_version) {
        return SniOutcome::NotTls;
    }
    let record_len = match r.u16() {
        Some(v) => usize::from(v),
        None => return SniOutcome::ParseFailure(ParseStage::RecordHeader),
    };
    // Inspection is bounded by the record length *and* by what is present
    // in this segment: a too-large record length means the rest of the
    // handshake is in a later segment the TSPU will not join up.
    let body = match r.take(record_len) {
        Some(b) => b,
        None => return SniOutcome::ParseFailure(ParseStage::RecordHeader),
    };

    let mut r = Reader::new(body);
    // Handshake header: type(1) length(3).
    let hs_type = match r.u8() {
        Some(b) => b,
        None => return SniOutcome::ParseFailure(ParseStage::HandshakeHeader),
    };
    if hs_type != HANDSHAKE_TYPE_CLIENT_HELLO {
        return SniOutcome::NotClientHello;
    }
    let hs_len = match r.u24() {
        Some(v) => v,
        None => return SniOutcome::ParseFailure(ParseStage::HandshakeHeader),
    };
    let hello = match r.take(hs_len) {
        Some(b) => b,
        None => return SniOutcome::ParseFailure(ParseStage::HandshakeHeader),
    };

    let mut r = Reader::new(hello);
    // client_version(2) random(32).
    if r.u16().is_none() {
        return SniOutcome::ParseFailure(ParseStage::ClientVersion);
    }
    if r.take(32).is_none() {
        return SniOutcome::ParseFailure(ParseStage::ClientVersion);
    }
    // session_id.
    let sid_len = match r.u8() {
        Some(v) => usize::from(v),
        None => return SniOutcome::ParseFailure(ParseStage::SessionId),
    };
    if r.take(sid_len).is_none() {
        return SniOutcome::ParseFailure(ParseStage::SessionId);
    }
    // cipher_suites.
    let cs_len = match r.u16() {
        Some(v) => usize::from(v),
        None => return SniOutcome::ParseFailure(ParseStage::CipherSuites),
    };
    if cs_len % 2 != 0 || r.take(cs_len).is_none() {
        return SniOutcome::ParseFailure(ParseStage::CipherSuites);
    }
    // compression_methods.
    let comp_len = match r.u8() {
        Some(v) => usize::from(v),
        None => return SniOutcome::ParseFailure(ParseStage::Compression),
    };
    if r.take(comp_len).is_none() {
        return SniOutcome::ParseFailure(ParseStage::Compression);
    }
    // A ClientHello may legally end here (no extensions).
    if r.pos == hello.len() {
        return SniOutcome::NoSni;
    }
    let ext_total = match r.u16() {
        Some(v) => usize::from(v),
        None => return SniOutcome::ParseFailure(ParseStage::ExtensionsLength),
    };
    let exts = match r.take(ext_total) {
        Some(b) => b,
        None => return SniOutcome::ParseFailure(ParseStage::ExtensionsLength),
    };

    // Walk extensions; the TSPU ignores all but server_name (Fig. 13).
    let mut r = Reader::new(exts);
    while r.pos < exts.len() {
        let ext_type = match r.u16() {
            Some(v) => v,
            None => return SniOutcome::ParseFailure(ParseStage::ExtensionHeader),
        };
        let ext_len = match r.u16() {
            Some(v) => usize::from(v),
            None => return SniOutcome::ParseFailure(ParseStage::ExtensionHeader),
        };
        let ext_body = match r.take(ext_len) {
            Some(b) => b,
            None => return SniOutcome::ParseFailure(ParseStage::ExtensionHeader),
        };
        if ext_type != EXT_SERVER_NAME {
            continue;
        }
        // server_name extension: list_len(2), then entries of
        // type(1) len(2) name(len); type 0 = host_name.
        let mut s = Reader::new(ext_body);
        let list_len = match s.u16() {
            Some(v) => usize::from(v),
            None => return SniOutcome::ParseFailure(ParseStage::SniEntry),
        };
        let list = match s.take(list_len) {
            Some(b) => b,
            None => return SniOutcome::ParseFailure(ParseStage::SniEntry),
        };
        let mut s = Reader::new(list);
        while s.pos < list.len() {
            let name_type = match s.u8() {
                Some(v) => v,
                None => return SniOutcome::ParseFailure(ParseStage::SniEntry),
            };
            let name_len = match s.u16() {
                Some(v) => usize::from(v),
                None => return SniOutcome::ParseFailure(ParseStage::SniEntry),
            };
            let name = match s.take(name_len) {
                Some(b) => b,
                None => return SniOutcome::ParseFailure(ParseStage::SniEntry),
            };
            if name_type == 0 {
                return match std::str::from_utf8(name) {
                    Ok(text) if text.bytes().any(|b| b.is_ascii_uppercase()) => {
                        SniOutcome::Sni(Cow::Owned(text.to_ascii_lowercase()))
                    }
                    Ok(text) => SniOutcome::Sni(Cow::Borrowed(text)),
                    Err(_) => SniOutcome::ParseFailure(ParseStage::SniEntry),
                };
            }
        }
        return SniOutcome::NoSni;
    }
    SniOutcome::NoSni
}

/// A parsed extension (type and raw body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    pub ext_type: u16,
    pub body: Vec<u8>,
}

/// A fully parsed ClientHello, for endpoints that need more than the SNI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    pub client_version: u16,
    pub random: [u8; 32],
    pub session_id: Vec<u8>,
    pub cipher_suites: Vec<u16>,
    pub compression_methods: Vec<u8>,
    pub extensions: Vec<Extension>,
}

impl ClientHello {
    /// Strict parse of a single complete ClientHello record.
    pub fn parse(payload: &[u8]) -> Result<ClientHello> {
        let mut r = Reader::new(payload);
        let content_type = r.u8().ok_or(Error::Truncated)?;
        if content_type != CONTENT_TYPE_HANDSHAKE {
            return Err(Error::WrongProtocol);
        }
        let _version = r.u16().ok_or(Error::Truncated)?;
        let record_len = usize::from(r.u16().ok_or(Error::Truncated)?);
        let body = r.take(record_len).ok_or(Error::Truncated)?;

        let mut r = Reader::new(body);
        let hs_type = r.u8().ok_or(Error::Truncated)?;
        if hs_type != HANDSHAKE_TYPE_CLIENT_HELLO {
            return Err(Error::WrongProtocol);
        }
        let hs_len = r.u24().ok_or(Error::Truncated)?;
        let hello = r.take(hs_len).ok_or(Error::Truncated)?;

        let mut r = Reader::new(hello);
        let client_version = r.u16().ok_or(Error::Truncated)?;
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32).ok_or(Error::Truncated)?);
        let sid_len = usize::from(r.u8().ok_or(Error::Truncated)?);
        let session_id = r.take(sid_len).ok_or(Error::Truncated)?.to_vec();
        let cs_len = usize::from(r.u16().ok_or(Error::Truncated)?);
        if cs_len % 2 != 0 {
            return Err(Error::Malformed);
        }
        let cs_raw = r.take(cs_len).ok_or(Error::Truncated)?;
        let cipher_suites = cs_raw
            .chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect();
        let comp_len = usize::from(r.u8().ok_or(Error::Truncated)?);
        let compression_methods = r.take(comp_len).ok_or(Error::Truncated)?.to_vec();
        let mut extensions = Vec::new();
        if r.pos < hello.len() {
            let ext_total = usize::from(r.u16().ok_or(Error::Truncated)?);
            let exts = r.take(ext_total).ok_or(Error::Truncated)?;
            let mut r = Reader::new(exts);
            while r.pos < exts.len() {
                let ext_type = r.u16().ok_or(Error::Truncated)?;
                let ext_len = usize::from(r.u16().ok_or(Error::Truncated)?);
                let body = r.take(ext_len).ok_or(Error::Truncated)?.to_vec();
                extensions.push(Extension { ext_type, body });
            }
        }
        Ok(ClientHello {
            client_version,
            random,
            session_id,
            cipher_suites,
            compression_methods,
            extensions,
        })
    }

    /// The server name carried in the SNI extension, if present and valid.
    pub fn sni(&self) -> Option<String> {
        let ext = self.extensions.iter().find(|e| e.ext_type == EXT_SERVER_NAME)?;
        extract_sni_from_ext(&ext.body)
    }
}

fn extract_sni_from_ext(body: &[u8]) -> Option<String> {
    let mut r = Reader::new(body);
    let list_len = usize::from(r.u16()?);
    let list = r.take(list_len)?;
    let mut r = Reader::new(list);
    while r.pos < list.len() {
        let name_type = r.u8()?;
        let name_len = usize::from(r.u16()?);
        let name = r.take(name_len)?;
        if name_type == 0 {
            return std::str::from_utf8(name).ok().map(|s| s.to_ascii_lowercase());
        }
    }
    None
}

/// Record-layer version the builder writes (TLS 1.0).
const RECORD_VERSION: u16 = 0x0301;
/// ClientHello.client_version the builder writes (TLS 1.2).
const CLIENT_VERSION: u16 = 0x0303;
/// The default 32-byte session id.
const DEFAULT_SESSION_ID: [u8; 32] = [0x71; 32];
/// A plausible modern suite list.
const DEFAULT_CIPHER_SUITES: [u16; 9] =
    [0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, 0xc02c, 0xc030, 0x009e, 0x009f];
/// Null compression only.
const COMPRESSION_METHODS: [u8; 1] = [0x00];
/// The extensions every built ClientHello carries after the SNI.
const DEFAULT_EXTENSIONS: [(u16, &[u8]); 2] = [
    // supported_versions offering TLS 1.3 + 1.2.
    (0x002b, &[0x04, 0x03, 0x04, 0x03, 0x03]),
    // supported_groups: x25519, secp256r1.
    (0x000a, &[0x00, 0x04, 0x00, 0x1d, 0x00, 0x17]),
];

/// Builder for byte-accurate ClientHello records.
///
/// The server name is borrowed and the defaults are `'static` tables, so
/// a default builder owns no heap memory, and [`ClientHelloBuilder::build`]
/// sizes the record first and then writes it once: one allocation per
/// ClientHello.
#[derive(Debug, Clone)]
pub struct ClientHelloBuilder<'a> {
    sni: Option<&'a str>,
    random: [u8; 32],
    session_id: Cow<'static, [u8]>,
    cipher_suites: Cow<'static, [u16]>,
    extra_extensions: Vec<Extension>,
    padding: Option<usize>,
}

impl<'a> ClientHelloBuilder<'a> {
    /// A realistic default ClientHello for `server_name`.
    pub fn new(server_name: &'a str) -> ClientHelloBuilder<'a> {
        ClientHelloBuilder {
            sni: Some(server_name),
            random: [0x5a; 32],
            session_id: Cow::Borrowed(&DEFAULT_SESSION_ID),
            cipher_suites: Cow::Borrowed(&DEFAULT_CIPHER_SUITES),
            extra_extensions: Vec::new(),
            padding: None,
        }
    }

    /// Builds without any server_name extension.
    pub fn without_sni() -> ClientHelloBuilder<'static> {
        ClientHelloBuilder { sni: None, ..ClientHelloBuilder::new("") }
    }

    /// Overrides the 32-byte client random.
    pub fn random(mut self, random: [u8; 32]) -> Self {
        self.random = random;
        self
    }

    /// Overrides the session id (0–32 bytes).
    pub fn session_id(mut self, session_id: Vec<u8>) -> Self {
        debug_assert!(session_id.len() <= 32);
        self.session_id = Cow::Owned(session_id);
        self
    }

    /// Overrides the ciphersuite list.
    pub fn cipher_suites(mut self, suites: Vec<u16>) -> Self {
        self.cipher_suites = Cow::Owned(suites);
        self
    }

    /// Appends an arbitrary extension.
    pub fn extension(mut self, ext_type: u16, body: Vec<u8>) -> Self {
        self.extra_extensions.push(Extension { ext_type, body });
        self
    }

    /// Adds a padding extension (RFC 7685) of `len` zero bytes — the
    /// client-side circumvention that inflates the ClientHello past one MSS.
    pub fn padding(mut self, len: usize) -> Self {
        self.padding = Some(len);
        self
    }

    /// Bytes of the extensions block: SNI first (as most stacks emit it
    /// early), then the defaults, the appended extensions and the padding.
    fn extensions_len(&self) -> usize {
        let sni = self.sni.map_or(0, |name| 4 + 5 + name.len());
        let defaults: usize = DEFAULT_EXTENSIONS.iter().map(|(_, body)| 4 + body.len()).sum();
        let extra: usize = self.extra_extensions.iter().map(|ext| 4 + ext.body.len()).sum();
        sni + defaults + extra + self.padding.map_or(0, |len| 4 + len)
    }

    /// Builds the complete TLS record bytes into one exactly-sized buffer.
    pub fn build(&self) -> Vec<u8> {
        let ext_len = self.extensions_len();
        // version, random, then each list behind its length prefix.
        let hello_len = 2
            + 32
            + (1 + self.session_id.len())
            + (2 + 2 * self.cipher_suites.len())
            + (1 + COMPRESSION_METHODS.len())
            + (2 + ext_len);
        // A 5-byte record header, then a 4-byte handshake header.
        let mut record = Vec::with_capacity(9 + hello_len);
        record.push(CONTENT_TYPE_HANDSHAKE);
        record.extend_from_slice(&RECORD_VERSION.to_be_bytes());
        record.extend_from_slice(&((hello_len + 4) as u16).to_be_bytes());
        record.push(HANDSHAKE_TYPE_CLIENT_HELLO);
        record.extend_from_slice(&(hello_len as u32).to_be_bytes()[1..]);
        record.extend_from_slice(&CLIENT_VERSION.to_be_bytes());
        record.extend_from_slice(&self.random);
        record.push(self.session_id.len() as u8);
        record.extend_from_slice(&self.session_id);
        record.extend_from_slice(&((self.cipher_suites.len() * 2) as u16).to_be_bytes());
        for suite in self.cipher_suites.iter() {
            record.extend_from_slice(&suite.to_be_bytes());
        }
        record.push(COMPRESSION_METHODS.len() as u8);
        record.extend_from_slice(&COMPRESSION_METHODS);
        record.extend_from_slice(&(ext_len as u16).to_be_bytes());
        if let Some(name) = self.sni {
            // server_name: list_len(2), then one host_name entry:
            // type(1) = 0, len(2), name.
            let name = name.as_bytes();
            push_extension_header(&mut record, EXT_SERVER_NAME, 5 + name.len());
            record.extend_from_slice(&((name.len() + 3) as u16).to_be_bytes());
            record.push(0x00);
            record.extend_from_slice(&(name.len() as u16).to_be_bytes());
            record.extend_from_slice(name);
        }
        for (ext_type, body) in DEFAULT_EXTENSIONS {
            push_extension_header(&mut record, ext_type, body.len());
            record.extend_from_slice(body);
        }
        for ext in &self.extra_extensions {
            push_extension_header(&mut record, ext.ext_type, ext.body.len());
            record.extend_from_slice(&ext.body);
        }
        if let Some(len) = self.padding {
            push_extension_header(&mut record, EXT_PADDING, len);
            record.resize(record.len() + len, 0);
        }
        debug_assert_eq!(record.len(), 9 + hello_len);
        record
    }
}

fn push_extension_header(out: &mut Vec<u8>, ext_type: u16, body_len: usize) {
    out.extend_from_slice(&ext_type.to_be_bytes());
    out.extend_from_slice(&(body_len as u16).to_be_bytes());
}

/// Builds a minimal non-ClientHello TLS record (change_cipher_spec), used
/// by the record-prepend circumvention strategy.
pub fn change_cipher_spec_record() -> Vec<u8> {
    vec![0x14, 0x03, 0x03, 0x00, 0x01, 0x01]
}

/// Builds a minimal ServerHello-ish handshake record used by simulated
/// servers to answer a ClientHello. The contents are not cryptographically
/// meaningful; the TSPU never inspects server responses.
pub fn server_hello_record() -> Vec<u8> {
    let body_len: usize = 2 + 32 + 1 + 2 + 1; // version + random + sid len + suite + comp
    let mut record = Vec::new();
    record.push(CONTENT_TYPE_HANDSHAKE);
    record.extend_from_slice(&0x0303u16.to_be_bytes());
    record.extend_from_slice(&((body_len + 4) as u16).to_be_bytes());
    record.push(0x02); // ServerHello
    record.push(0);
    record.push(0);
    record.push(body_len as u8);
    record.extend_from_slice(&0x0303u16.to_be_bytes());
    record.extend_from_slice(&[0xa5; 32]);
    record.push(0); // empty session id
    record.extend_from_slice(&0x1301u16.to_be_bytes());
    record.push(0); // null compression
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() -> Result<()> {
        let record = ClientHelloBuilder::new("twitter.com").build();
        assert_eq!(extract_sni(&record), SniOutcome::Sni("twitter.com".into()));
        let hello = ClientHello::parse(&record)?;
        assert_eq!(hello.sni().as_deref(), Some("twitter.com"));
        assert_eq!(hello.compression_methods, vec![0]);
        assert_eq!(hello.cipher_suites[0], 0x1301);
        Ok(())
    }

    #[test]
    fn sni_is_case_insensitive() {
        let record = ClientHelloBuilder::new("TWITTER.com").build();
        assert_eq!(extract_sni(&record), SniOutcome::Sni("twitter.com".into()));
    }

    #[test]
    fn no_sni() {
        let record = ClientHelloBuilder::without_sni().build();
        assert_eq!(extract_sni(&record), SniOutcome::NoSni);
    }

    #[test]
    fn not_tls() {
        assert_eq!(extract_sni(b"GET / HTTP/1.1\r\n"), SniOutcome::NotTls);
        assert_eq!(extract_sni(&[]), SniOutcome::NotTls);
    }

    #[test]
    fn not_client_hello() {
        let record = server_hello_record();
        assert_eq!(extract_sni(&record), SniOutcome::NotClientHello);
    }

    #[test]
    fn prepended_record_hides_sni() {
        // §8: prepending another TLS record defeats extraction, because the
        // TSPU only inspects the first record.
        let mut bytes = change_cipher_spec_record();
        bytes.extend_from_slice(&ClientHelloBuilder::new("facebook.com").build());
        assert_eq!(extract_sni(&bytes), SniOutcome::NotTls);
    }

    #[test]
    fn truncated_clienthello_fails_parse() {
        // §8: a ClientHello split across TCP segments never parses, because
        // the TSPU does not reassemble streams.
        let record = ClientHelloBuilder::new("facebook.com").build();
        let first_half = &record[..record.len() / 2];
        assert!(matches!(extract_sni(first_half), SniOutcome::ParseFailure(_)));
    }

    #[test]
    fn mutating_length_fields_changes_outcome() {
        let record = ClientHelloBuilder::new("nordvpn.com").build();
        // Session-id length byte lives at offset 9 (record hdr 5 + hs hdr 4)
        // + 2 (version) + 32 (random) = 43.
        let mut mutated = record.clone();
        mutated[43] = 0xff;
        assert_ne!(extract_sni(&mutated), SniOutcome::Sni("nordvpn.com".into()));
    }

    #[test]
    fn mutating_random_does_not_change_outcome() {
        let record = ClientHelloBuilder::new("nordvpn.com").build();
        let mut mutated = record.clone();
        for byte in &mut mutated[11..43] {
            *byte ^= 0xff; // the 32-byte random
        }
        assert_eq!(extract_sni(&mutated), SniOutcome::Sni("nordvpn.com".into()));
    }

    #[test]
    fn other_extensions_are_ignored() {
        let record = ClientHelloBuilder::new("meduza.io")
            .extension(0x0010, b"\x00\x0c\x02h2\x08http/1.1".to_vec())
            .padding(64)
            .build();
        assert_eq!(extract_sni(&record), SniOutcome::Sni("meduza.io".into()));
    }

    #[test]
    fn padding_inflates_record() {
        let plain = ClientHelloBuilder::new("dw.com").build();
        let padded = ClientHelloBuilder::new("dw.com").padding(1400).build();
        assert!(padded.len() >= plain.len() + 1400);
        assert_eq!(extract_sni(&padded), SniOutcome::Sni("dw.com".into()));
    }

    #[test]
    fn odd_ciphersuite_length_is_malformed() {
        let record = ClientHelloBuilder::new("t.co").build();
        // cipher_suites length at offset 43 + 1 + sid(32) = 76..78.
        let mut mutated = record.clone();
        mutated[77] = mutated[77].wrapping_add(1);
        assert!(matches!(extract_sni(&mutated), SniOutcome::ParseFailure(ParseStage::CipherSuites)));
    }

    #[test]
    fn second_sni_entry_type_skipped() {
        // An SNI extension whose first entry is a non-hostname type falls
        // through to the next entry.
        let name = b"rutracker.org";
        let mut body = Vec::new();
        let entries_len = (3 + 4) + (3 + name.len());
        body.extend_from_slice(&(entries_len as u16).to_be_bytes());
        body.push(0x01); // unknown name type
        body.extend_from_slice(&4u16.to_be_bytes());
        body.extend_from_slice(b"xxxx");
        body.push(0x00); // host_name
        body.extend_from_slice(&(name.len() as u16).to_be_bytes());
        body.extend_from_slice(name);
        let record = {
            let mut b = ClientHelloBuilder::without_sni();
            b = b.extension(EXT_SERVER_NAME, body);
            b.build()
        };
        assert_eq!(extract_sni(&record), SniOutcome::Sni("rutracker.org".into()));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The record bytes the builder has always produced, field by field:
    /// a rewrite of `build` must reproduce every one of them.
    #[test]
    fn builder_bytes_are_pinned() {
        let unspaced = |s: String| s.replace(' ', "");
        let random = "5a".repeat(32);
        let session_id = format!("20{}", "71".repeat(32));
        let suites = "0012 1301 1302 1303 c02b c02f c02c c030 009e 009f";
        let sni = "0000 0010 000e 00 000b 6578616d706c652e6f7267"; // example.org
        let defaults = "002b 0005 0403040303 000a 0006 0004001d0017";

        let record = ClientHelloBuilder::new("example.org").build();
        let expected = format!("16 0301 0086 01 000082 0303 {random} {session_id} {suites} 01 00 0027 {sni} {defaults}");
        assert_eq!(hex(&record), unspaced(expected));

        let record = ClientHelloBuilder::without_sni().build();
        let expected = format!("16 0301 0072 01 00006e 0303 {random} {session_id} {suites} 01 00 0013 {defaults}");
        assert_eq!(hex(&record), unspaced(expected));

        let record = ClientHelloBuilder::new("example.org").padding(517).build();
        let zeros = "00".repeat(517);
        let expected = format!(
            "16 0301 028f 01 00028b 0303 {random} {session_id} {suites} 01 00 0230 {sni} {defaults} 0015 0205 {zeros}"
        );
        assert_eq!(hex(&record), unspaced(expected));

        // Every override at once; the name keeps its case on the wire.
        let mut counting = [0u8; 32];
        for (i, b) in counting.iter_mut().enumerate() {
            *b = i as u8;
        }
        let record = ClientHelloBuilder::new("Example.ORG")
            .random(counting)
            .session_id(vec![])
            .cipher_suites(vec![0x1301])
            .extension(0x0010, b"\x00\x0c\x02h2\x08http/1.1".to_vec())
            .padding(3)
            .build();
        let counting = hex(&counting);
        let expected = format!(
            "16 0301 006f 01 00006b 0303 {counting} 00 0002 1301 01 00 0040 \
             0000 0010 000e 00 000b 4578616d706c652e4f5247 {defaults} \
             0010 000e 000c02683208687474702f312e31 0015 0003 000000"
        );
        assert_eq!(hex(&record), unspaced(expected));
    }
}
