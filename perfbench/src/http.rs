//! A minimal HTTP/1.1 client for `srtd-server`, which answers one request
//! per connection and closes it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A request rendered to its wire bytes ahead of time.
#[derive(Debug, Clone)]
pub struct Request(Vec<u8>);

impl Request {
    pub fn new(method: &str, path: &str, body: &str) -> Self {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        Self(wire)
    }

    pub fn get(path: &str) -> Self {
        Self::new("GET", path, "")
    }

    /// Bytes on the wire.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A received response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Bytes received, head included.
    pub wire_len: usize,
}

/// Sends `request` on a fresh connection and reads the whole response.
pub fn send(addr: SocketAddr, request: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .write_all(&request.0)
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let wire_len = raw.len();
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Response {
        status,
        body: body.to_string(),
        wire_len,
    })
}

/// [`send`] that also requires a 200.
pub fn send_ok(addr: SocketAddr, request: &Request) -> Result<Response, String> {
    let r = send(addr, request)?;
    if r.status == 200 {
        Ok(r)
    } else {
        Err(format!("status {}: {}", r.status, r.body))
    }
}
