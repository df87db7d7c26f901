//! A minimal, dependency-free HTTP/1.1 listener over the daemon's JSONL
//! surface — `std::net::TcpListener`, one thread, `Connection: close`.
//!
//! Routes:
//!
//! - `GET /health` — daemon health/counters.
//! - `GET /status?job=<id>` — job state.
//! - `GET /result?job=<id>` — full repair report of a finished job.
//! - `POST /submit` — body is one submit JSON object (same shape as the
//!   stdin JSONL line, the `"op"` field optional).
//! - `POST /drain` — run every queued job.
//!
//! Every response is `application/json`; the payloads are exactly the
//! JSONL responses of [`Acrd::handle`]. This is an operator/debug
//! surface, not a performance path: requests are served sequentially
//! under the daemon mutex, keeping the scheduler's determinism intact.
//! A request must arrive whole within one deadline and every write is
//! bounded by a timeout, so a client that stalls — or drips one byte at a
//! time — delays the next request by a bounded time instead of forever,
//! and a body over the size limit is refused (`413`), not truncated; a
//! request head over its limit is refused (`431`), not buffered — and a
//! refusal is read to the end of what the client sends before the socket
//! closes, so the client sees it instead of a reset. A poisoned daemon
//! mutex is recovered rather than unwrapped: the daemon fails a panicking
//! job on its own ([`Acrd::step`]), so its state stays consistent and the
//! listener keeps answering.

use crate::daemon::Acrd;
use acr_obs::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running listener; drop or [`HttpServer::stop`] to shut down.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves `daemon` until stopped.
pub fn serve(daemon: Arc<Mutex<Acrd>>, addr: &str) -> std::io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Sequential service: determinism over throughput.
            if let Err(e) = handle_conn(stream, &daemon) {
                eprintln!("acrd: http connection error: {e}");
            }
        }
    });
    Ok(HttpServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Longest a whole request may take to arrive, and longest one response
/// write may block. Service is sequential, so this bounds how long a
/// client that stalls or drips bytes can keep everyone else (and
/// [`HttpServer::stop`]) waiting.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request body accepted; a longer `Content-Length` is refused
/// with `413` before any of it is read.
const MAX_BODY: usize = 1 << 22;

/// Most bytes read as request line and headers; a head that fills this
/// is refused with `431`, so a client that never sends a newline cannot
/// grow a line buffer without bound.
const MAX_HEAD: u64 = 16 << 10;

/// Reads from a socket under one deadline for the whole request: before
/// each read the socket's timeout is set to the time left, and once it is
/// spent every read fails with `TimedOut`.
struct Deadline<'s> {
    stream: &'s TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn handle_conn(stream: TcpStream, daemon: &Arc<Mutex<Acrd>>) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(Deadline {
        stream: &stream,
        until: Instant::now() + IO_TIMEOUT,
    });
    let mut head = reader.by_ref().take(MAX_HEAD);
    let mut request_line = String::new();
    if head.read_line(&mut request_line)? == 0 {
        return Ok(()); // the shutdown poke
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return respond(&stream, 400, "{\"ok\":false,\"error\":\"bad_request\"}"),
    };
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if head.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
    }
    if head.limit() == 0 {
        return refuse(
            &stream,
            reader,
            431,
            "{\"ok\":false,\"error\":\"head_too_large\"}",
        );
    }
    if content_length > MAX_BODY {
        return refuse(
            &stream,
            reader,
            413,
            "{\"ok\":false,\"error\":\"body_too_large\"}",
        );
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body).into_owned();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let job = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("job="))
        .unwrap_or("");
    let line = match (method.as_str(), path) {
        ("GET", "/health") => "{\"op\":\"health\"}".to_string(),
        ("GET", "/status") => json::Obj::new().str("op", "status").str("job", job).build(),
        ("GET", "/result") => json::Obj::new().str("op", "result").str("job", job).build(),
        ("POST", "/drain") => "{\"op\":\"drain\"}".to_string(),
        ("POST", "/submit") => {
            // The body is the submit object; tolerate a missing "op".
            if body.contains("\"op\"") {
                body
            } else if let Some(rest) = body.trim_start().strip_prefix('{') {
                format!("{{\"op\":\"submit\",{rest}")
            } else {
                body
            }
        }
        _ => return respond(&stream, 404, "{\"ok\":false,\"error\":\"not_found\"}"),
    };
    let payload = (daemon.lock())
        .unwrap_or_else(PoisonError::into_inner)
        .handle(&line);
    let status = if payload.contains("\"ok\":false") {
        400
    } else {
        200
    };
    respond(&stream, status, &payload)
}

/// Answers a request the client may still be sending, then reads and
/// drops the rest from `rest` (bounded by [`MAX_BODY`] and the request's
/// deadline) before closing: closing with unread input resets the
/// connection, and a reset can discard the refusal before the client has
/// read it.
fn refuse(stream: &TcpStream, rest: impl Read, status: u16, body: &str) -> std::io::Result<()> {
    respond(stream, status, body)?;
    stream.shutdown(Shutdown::Write)?;
    let _ = std::io::copy(&mut rest.take(MAX_BODY as u64), &mut std::io::sink());
    Ok(())
}

fn respond(mut stream: &TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}
