//! Minimal HTTP/1.1 request/response handling — enough for ISP blockpages
//! and the legacy keyword-filtering DPIs of the pre-TSPU era (§2: ISPs
//! "implemented different blocking mechanisms with varying efficacy, such
//! as keyword filtering or DNS censorship").

use crate::{Error, Result};

/// A parsed HTTP request line + headers (bodies are not modeled; the
/// censors of interest key on the request line and Host header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub host: Option<String>,
}

impl HttpRequest {
    /// A GET request for `path` at `host`.
    pub fn get(host: &str, path: &str) -> HttpRequest {
        HttpRequest { method: "GET".into(), path: path.into(), host: Some(host.to_string()) }
    }

    /// Serializes the request.
    pub fn build(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.path);
        if let Some(host) = &self.host {
            out.push_str(&format!("Host: {host}\r\n"));
        }
        out.push_str("Connection: close\r\n\r\n");
        out.into_bytes()
    }

    /// Parses a request from the start of a TCP payload.
    pub fn parse(payload: &[u8]) -> Result<HttpRequest> {
        let text = std::str::from_utf8(payload).map_err(|_| Error::Malformed)?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next().ok_or(Error::Truncated)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or(Error::Malformed)?.to_string();
        let path = parts.next().ok_or(Error::Malformed)?.to_string();
        let version = parts.next().ok_or(Error::Malformed)?;
        if !version.starts_with("HTTP/") || !method.chars().all(|c| c.is_ascii_uppercase()) {
            return Err(Error::WrongProtocol);
        }
        let mut host = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("host") {
                    host = Some(value.trim().to_ascii_lowercase());
                }
            }
        }
        Ok(HttpRequest { method, path, host })
    }
}

/// A minimal HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 with the given body.
    pub fn ok(body: &[u8]) -> HttpResponse {
        HttpResponse { status: 200, body: body.to_vec() }
    }

    /// A 302 redirect (what some ISPs use to bounce users to blockpages).
    pub fn redirect(location: &str) -> HttpResponse {
        HttpResponse { status: 302, body: format!("Location: {location}").into_bytes() }
    }

    /// Serializes the response.
    pub fn build(&self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            302 => "Found",
            403 => "Forbidden",
            _ => "Status",
        };
        let mut out = format!(
            "HTTP/1.1 {} {reason}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a response.
    pub fn parse(payload: &[u8]) -> Result<HttpResponse> {
        let text = String::from_utf8_lossy(payload);
        let (head, body) = match text.split_once("\r\n\r\n") {
            Some((head, body)) => (head.to_string(), body.as_bytes().to_vec()),
            None => return Err(Error::Truncated),
        };
        let status_line = head.split("\r\n").next().ok_or(Error::Truncated)?;
        let mut parts = status_line.split(' ');
        let version = parts.next().ok_or(Error::Malformed)?;
        if !version.starts_with("HTTP/") {
            return Err(Error::WrongProtocol);
        }
        let status = parts.next().ok_or(Error::Malformed)?.parse().map_err(|_| Error::Malformed)?;
        Ok(HttpResponse { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() -> Result<()> {
        let request = HttpRequest::get("blocked.ru", "/index.html");
        let bytes = request.build();
        let parsed = HttpRequest::parse(&bytes)?;
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.path, "/index.html");
        assert_eq!(parsed.host.as_deref(), Some("blocked.ru"));
        Ok(())
    }

    #[test]
    fn host_header_case_insensitive() -> Result<()> {
        let raw = b"GET / HTTP/1.1\r\nHOST: MiXeD.Ru\r\n\r\n";
        let parsed = HttpRequest::parse(raw)?;
        assert_eq!(parsed.host.as_deref(), Some("mixed.ru"));
        Ok(())
    }

    #[test]
    fn response_roundtrip() -> Result<()> {
        let response = HttpResponse::ok(b"<html>page</html>");
        let parsed = HttpResponse::parse(&response.build())?;
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"<html>page</html>");
        Ok(())
    }

    #[test]
    fn redirect_carries_location() -> Result<()> {
        let response = HttpResponse::redirect("http://blockpage.isp/");
        let parsed = HttpResponse::parse(&response.build())?;
        assert_eq!(parsed.status, 302);
        assert!(String::from_utf8_lossy(&parsed.body).contains("blockpage.isp"));
        Ok(())
    }

    #[test]
    fn rejects_non_http() {
        assert!(HttpRequest::parse(b"\x16\x03\x01\x00\x20tls-bytes").is_err());
        assert!(HttpRequest::parse(b"").is_err());
        assert!(HttpResponse::parse(b"GET / HTTP/1.1\r\n\r\n").is_err());
    }
}
