//! Minimal DNS wire format: A-record queries and responses, enough to run
//! the ISPs' blockpage resolvers (§6.2) at packet level.
//!
//! The paper's resolver measurement "select\[s\] three local resolvers
//! inside the three RU ISPs, and send\[s\] queries to them once from the RU
//! vantage points and once from US measurement machines" — plain UDP/53
//! A-lookups, which is exactly the subset implemented here (plus NXDOMAIN
//! responses). Name compression is emitted in the standard answer form
//! (a pointer to the question) and followed when parsing.

use std::net::Ipv4Addr;

use crate::{Error, Result};

/// DNS header length.
pub const HEADER_LEN: usize = 12;
/// QTYPE A.
pub const QTYPE_A: u16 = 1;
/// QCLASS IN.
pub const QCLASS_IN: u16 = 1;
/// RCODE for NXDOMAIN.
pub const RCODE_NXDOMAIN: u8 = 3;

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuery {
    pub id: u16,
    pub qname: String,
    pub qtype: u16,
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsResponse {
    pub id: u16,
    pub qname: String,
    pub rcode: u8,
    /// A-record answers, in order.
    pub answers: Vec<Ipv4Addr>,
}

fn push_qname(out: &mut Vec<u8>, name: &str) -> Result<()> {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        if label.len() > 63 {
            return Err(Error::Malformed);
        }
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    Ok(())
}

fn read_qname(data: &[u8], mut pos: usize) -> Result<(String, usize)> {
    let mut labels = Vec::new();
    let mut jumped_end = None;
    let mut hops = 0;
    loop {
        let len = *data.get(pos).ok_or(Error::Truncated)? as usize;
        if len == 0 {
            pos += 1;
            break;
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            let lo = *data.get(pos + 1).ok_or(Error::Truncated)? as usize;
            let target = ((len & 0x3f) << 8) | lo;
            if jumped_end.is_none() {
                jumped_end = Some(pos + 2);
            }
            pos = target;
            hops += 1;
            if hops > 8 {
                return Err(Error::Malformed);
            }
            continue;
        }
        let label = data.get(pos + 1..pos + 1 + len).ok_or(Error::Truncated)?;
        labels.push(String::from_utf8(label.to_vec()).map_err(|_| Error::Malformed)?);
        pos += 1 + len;
    }
    Ok((labels.join("."), jumped_end.unwrap_or(pos)))
}

impl DnsQuery {
    /// Builds the query bytes (one question, RD set).
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.qname.len() + 6);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&0x0100u16.to_be_bytes()); // RD
        out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        push_qname(&mut out, &self.qname).expect("valid qname");
        out.extend_from_slice(&self.qtype.to_be_bytes());
        out.extend_from_slice(&QCLASS_IN.to_be_bytes());
        out
    }

    /// Parses a query.
    pub fn parse(data: &[u8]) -> Result<DnsQuery> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let id = u16::from_be_bytes([data[0], data[1]]);
        let flags = u16::from_be_bytes([data[2], data[3]]);
        if flags & 0x8000 != 0 {
            return Err(Error::WrongProtocol); // a response, not a query
        }
        let qdcount = u16::from_be_bytes([data[4], data[5]]);
        if qdcount != 1 {
            return Err(Error::Malformed);
        }
        let (qname, pos) = read_qname(data, HEADER_LEN)?;
        let qtype = u16::from_be_bytes([
            *data.get(pos).ok_or(Error::Truncated)?,
            *data.get(pos + 1).ok_or(Error::Truncated)?,
        ]);
        Ok(DnsQuery { id, qname: qname.to_ascii_lowercase(), qtype })
    }
}

impl DnsResponse {
    /// Builds a response to `query` answering with `answers` (empty +
    /// `rcode` = NXDOMAIN/SERVFAIL style).
    pub fn answer(query: &DnsQuery, answers: &[Ipv4Addr]) -> DnsResponse {
        DnsResponse {
            id: query.id,
            qname: query.qname.clone(),
            rcode: 0,
            answers: answers.to_vec(),
        }
    }

    /// Builds an NXDOMAIN response to `query`.
    pub fn nxdomain(query: &DnsQuery) -> DnsResponse {
        DnsResponse { id: query.id, qname: query.qname.clone(), rcode: RCODE_NXDOMAIN, answers: Vec::new() }
    }

    /// Serializes the response (question echoed, answers compressed
    /// against it).
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&(0x8180u16 | u16::from(self.rcode)).to_be_bytes()); // QR|RD|RA + rcode
        out.extend_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        push_qname(&mut out, &self.qname).expect("valid qname");
        out.extend_from_slice(&QTYPE_A.to_be_bytes());
        out.extend_from_slice(&QCLASS_IN.to_be_bytes());
        for addr in &self.answers {
            out.extend_from_slice(&0xc00cu16.to_be_bytes()); // pointer to question name
            out.extend_from_slice(&QTYPE_A.to_be_bytes());
            out.extend_from_slice(&QCLASS_IN.to_be_bytes());
            out.extend_from_slice(&300u32.to_be_bytes()); // TTL
            out.extend_from_slice(&4u16.to_be_bytes());
            out.extend_from_slice(&addr.octets());
        }
        out
    }

    /// Parses a response.
    pub fn parse(data: &[u8]) -> Result<DnsResponse> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let id = u16::from_be_bytes([data[0], data[1]]);
        let flags = u16::from_be_bytes([data[2], data[3]]);
        if flags & 0x8000 == 0 {
            return Err(Error::WrongProtocol);
        }
        let rcode = (flags & 0x000f) as u8;
        let qdcount = u16::from_be_bytes([data[4], data[5]]);
        let ancount = u16::from_be_bytes([data[6], data[7]]);
        let mut pos = HEADER_LEN;
        let mut qname = String::new();
        for _ in 0..qdcount {
            let (name, next) = read_qname(data, pos)?;
            qname = name;
            pos = next + 4; // qtype + qclass
        }
        let mut answers = Vec::new();
        for _ in 0..ancount {
            let (_, next) = read_qname(data, pos)?;
            pos = next;
            let rtype = u16::from_be_bytes([
                *data.get(pos).ok_or(Error::Truncated)?,
                *data.get(pos + 1).ok_or(Error::Truncated)?,
            ]);
            let rdlen = u16::from_be_bytes([
                *data.get(pos + 8).ok_or(Error::Truncated)?,
                *data.get(pos + 9).ok_or(Error::Truncated)?,
            ]) as usize;
            let rdata = data.get(pos + 10..pos + 10 + rdlen).ok_or(Error::Truncated)?;
            if rtype == QTYPE_A && rdlen == 4 {
                answers.push(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3]));
            }
            pos += 10 + rdlen;
        }
        Ok(DnsResponse { id, qname: qname.to_ascii_lowercase(), rcode, answers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let query = DnsQuery { id: 0x1234, qname: "blocked.example.ru".into(), qtype: QTYPE_A };
        let bytes = query.build();
        assert_eq!(DnsQuery::parse(&bytes).unwrap(), query);
    }

    #[test]
    fn response_roundtrip_with_answers() {
        let query = DnsQuery { id: 7, qname: "site.ru".into(), qtype: QTYPE_A };
        let response = DnsResponse::answer(&query, &[Ipv4Addr::new(10, 10, 10, 10), Ipv4Addr::new(10, 10, 10, 11)]);
        let bytes = response.build();
        let parsed = DnsResponse::parse(&bytes).unwrap();
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.qname, "site.ru");
        assert_eq!(parsed.rcode, 0);
        assert_eq!(parsed.answers.len(), 2);
        assert_eq!(parsed.answers[0], Ipv4Addr::new(10, 10, 10, 10));
    }

    #[test]
    fn nxdomain_roundtrip() {
        let query = DnsQuery { id: 9, qname: "nosuch.ru".into(), qtype: QTYPE_A };
        let bytes = DnsResponse::nxdomain(&query).build();
        let parsed = DnsResponse::parse(&bytes).unwrap();
        assert_eq!(parsed.rcode, RCODE_NXDOMAIN);
        assert!(parsed.answers.is_empty());
    }

    #[test]
    fn query_parse_rejects_response_bit() {
        let query = DnsQuery { id: 1, qname: "a.ru".into(), qtype: QTYPE_A };
        let bytes = DnsResponse::answer(&query, &[]).build();
        assert_eq!(DnsQuery::parse(&bytes).unwrap_err(), Error::WrongProtocol);
    }

    #[test]
    fn qname_case_normalized() {
        let query = DnsQuery { id: 2, qname: "MiXeD.Ru".into(), qtype: QTYPE_A };
        let parsed = DnsQuery::parse(&query.build()).unwrap();
        assert_eq!(parsed.qname, "mixed.ru");
    }

    #[test]
    fn parse_never_panics_on_garbage() {
        for seed in 0u8..=50 {
            let data: Vec<u8> = (0..40).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect();
            let _ = DnsQuery::parse(&data);
            let _ = DnsResponse::parse(&data);
        }
    }

    #[test]
    fn compression_pointer_loops_rejected() {
        // A name that points at itself.
        let mut bytes = DnsQuery { id: 3, qname: "x.ru".into(), qtype: QTYPE_A }.build();
        // Replace qname start with a self-pointer.
        bytes[HEADER_LEN] = 0xc0;
        bytes[HEADER_LEN + 1] = HEADER_LEN as u8;
        assert!(DnsQuery::parse(&bytes).is_err());
    }
}
