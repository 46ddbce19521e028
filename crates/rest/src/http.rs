//! Minimal HTTP/1.1: request parsing, response serialization, and the
//! thread-per-connection accept loop both APIs are served by.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (uppercased).
    pub method: String,
    /// Path, possibly carrying a raw query string (handlers split it
    /// off with [`split_query`]).
    pub path: String,
    /// Body bytes (Content-Length respected).
    pub body: Vec<u8>,
}

/// Response status codes used by the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 201
    Created,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 500
    InternalError,
}

impl StatusCode {
    /// Numeric code and reason phrase.
    pub fn parts(self) -> (u16, &'static str) {
        match self {
            StatusCode::Ok => (200, "OK"),
            StatusCode::Created => (201, "Created"),
            StatusCode::BadRequest => (400, "Bad Request"),
            StatusCode::NotFound => (404, "Not Found"),
            StatusCode::MethodNotAllowed => (405, "Method Not Allowed"),
            StatusCode::InternalError => (500, "Internal Server Error"),
        }
    }
}

/// A response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status.
    pub status: StatusCode,
    /// Body (JSON unless stated otherwise).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: StatusCode, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition format is
    /// text/plain, not JSON).
    pub fn text(status: StatusCode, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: StatusCode, msg: &str) -> Self {
        Response {
            status,
            body: format!("{{\"error\":{}}}", un_nffg::jsonval::escape(msg)),
            content_type: "application/json",
        }
    }
}

/// Split a request path into its route part and query parameters:
/// `/a/b?x=1&y=2` → (`/a/b`, `[("x","1"), ("y","2")]`). Pairs keep
/// request order; a key without `=` maps to an empty value. No
/// percent-decoding — the API's parameter values never need it.
pub fn split_query(path: &str) -> (&str, Vec<(&str, &str)>) {
    match path.split_once('?') {
        None => (path, Vec::new()),
        Some((route, query)) => (
            route,
            query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
                .collect(),
        ),
    }
}

/// Largest request body the server reads. The biggest document the
/// API takes is an NF-FG of a few thousand rules, well under 1 MiB.
const MAX_BODY_BYTES: u64 = 4 << 20;
/// Longest request line or header line the server reads.
const MAX_LINE_BYTES: u64 = 8 << 10;

/// Why [`read_request`] produced no request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// EOF, an unreadable request line or a body shorter than
    /// announced: the peer is gone or never spoke HTTP, and there is
    /// nothing to answer.
    Closed,
    /// The request breaks a limit or cannot be parsed; answer `400`
    /// with this message.
    Malformed(&'static str),
}

/// Read one line of at most [`MAX_LINE_BYTES`]; empty at EOF.
fn read_line<R: BufRead>(reader: &mut R) -> Result<String, Rejected> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_LINE_BYTES);
    limited.read_line(&mut line).map_err(|_| Rejected::Closed)?;
    if limited.limit() == 0 && !line.ends_with('\n') {
        return Err(Rejected::Malformed("request or header line too long"));
    }
    Ok(line)
}

/// Parse one request from a stream. Nothing the peer sends sizes an
/// allocation: lines and the body are read through `take`, into
/// buffers that grow as bytes arrive.
pub fn read_request<R: Read>(stream: R) -> Result<Request, Rejected> {
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(Rejected::Closed)?.to_uppercase();
    let path = parts.next().ok_or(Rejected::Closed)?.to_string();

    let mut content_length = 0u64;
    loop {
        let header = read_line(&mut reader)?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Rejected::Malformed("unparsable Content-Length"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(Rejected::Malformed("request body too large"));
                }
            }
        }
    }

    let mut body = Vec::new();
    let read = reader.take(content_length).read_to_end(&mut body);
    if read.ok() != Some(content_length as usize) {
        return Err(Rejected::Closed);
    }
    Ok(Request { method, path, body })
}

/// Serialize a response onto a stream.
pub fn write_response<W: Write>(mut stream: W, resp: &Response) -> std::io::Result<()> {
    let (code, reason) = resp.status.parts();
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.content_type,
        resp.body.len(),
        resp.body
    )
}

/// A running REST server (thread per connection). Dropping it stops
/// accepting and joins the acceptor thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// The bound address (use port 0 to pick a free one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server (`drop`, spelled out at call sites).
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `bind` and answer every request with `handler`: the one accept
/// loop behind [`crate::serve`] and [`crate::serve_cluster`].
pub(crate) fn serve_with(
    bind: &str,
    handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> io::Result<Server> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handler = Arc::new(handler);
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let handler = handler.clone();
            std::thread::spawn(move || {
                let Ok(peer_read) = stream.try_clone() else {
                    return;
                };
                let resp = match read_request(peer_read) {
                    Ok(req) => Some(handler(&req)),
                    Err(Rejected::Malformed(msg)) => {
                        Some(Response::error(StatusCode::BadRequest, msg))
                    }
                    Err(Rejected::Closed) => None,
                };
                if let Some(resp) = resp {
                    let _ = write_response(&stream, &resp);
                }
                let _ = stream.shutdown(Shutdown::Both);
            });
        }
    });
    Ok(Server {
        addr,
        stop,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_put_with_body() {
        let raw = b"PUT /nffg/g1 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "PUT");
        assert_eq!(req.path, "/nffg/g1");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /node HTTP/1.1\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/node");
        assert!(req.body.is_empty());
    }

    #[test]
    fn splits_query_strings() {
        assert_eq!(split_query("/domain/events"), ("/domain/events", vec![]));
        assert_eq!(
            split_query("/domain/events?since=9&kind=span&limit=2"),
            (
                "/domain/events",
                vec![("since", "9"), ("kind", "span"), ("limit", "2")]
            )
        );
        assert_eq!(split_query("/x?flag"), ("/x", vec![("flag", "")]));
        assert_eq!(split_query("/x?"), ("/x", vec![]));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(read_request(&b""[..]), Err(Rejected::Closed));
        assert_eq!(read_request(&b"\r\n"[..]), Err(Rejected::Closed));
    }

    /// The parser must reject on the header alone. (Sizing the body
    /// buffer from the header aborted the process on these lengths.)
    #[test]
    fn hostile_content_length_is_rejected_before_any_body_byte() {
        for len in [
            "1099511627776",
            "9223372036854775807",
            "99999999999999999999",
        ] {
            let raw = format!("PUT /nffg/g1 HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello");
            assert!(
                matches!(read_request(raw.as_bytes()), Err(Rejected::Malformed(_))),
                "Content-Length: {len}"
            );
        }
        // A malformed value is an error, not a silent zero.
        let raw = b"PUT /nffg/g1 HTTP/1.1\r\nContent-Length: five\r\n\r\nhello";
        assert!(matches!(
            read_request(&raw[..]),
            Err(Rejected::Malformed(_))
        ));
        // The limit itself is fine; one past it is not.
        let at = format!("PUT /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        assert_eq!(read_request(at.as_bytes()), Err(Rejected::Closed));
    }

    #[test]
    fn truncated_body_is_a_closed_connection() {
        let raw = b"PUT /nffg/g1 HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello";
        assert_eq!(read_request(&raw[..]), Err(Rejected::Closed));
    }

    #[test]
    fn overlong_lines_are_rejected() {
        let long = "a".repeat(MAX_LINE_BYTES as usize + 1);
        let request_line = format!("GET /{long} HTTP/1.1\r\n\r\n");
        let header = format!("GET / HTTP/1.1\r\nX-Pad: {long}\r\n\r\n");
        for raw in [request_line, header] {
            assert!(matches!(
                read_request(raw.as_bytes()),
                Err(Rejected::Malformed(_))
            ));
        }
        // A line that fills the limit exactly, newline included, passes.
        let pad = "a".repeat(MAX_LINE_BYTES as usize - "X-Pad: \r\n".len());
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        assert_eq!(read_request(raw.as_bytes()).unwrap().path, "/");
    }

    #[test]
    fn server_answers_a_hostile_length_with_400() {
        let server = serve_with("127.0.0.1:0", |_| Response::json(StatusCode::Ok, "{}")).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"PUT /x HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\nhello")
            .unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
        server.shutdown();
    }

    #[test]
    fn serializes_response() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(StatusCode::Ok, "{\"a\":1}")).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 7"));
        assert!(s.ends_with("{\"a\":1}"));
    }

    #[test]
    fn error_body_is_json() {
        let r = Response::error(StatusCode::NotFound, "no such graph 'x'");
        assert!(r.body.contains("\"error\""));
        assert_eq!(r.status.parts().0, 404);
    }
}
