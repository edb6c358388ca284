//! A hand-rolled HTTP/1.1 subset: exactly what the loopback actuation
//! protocol needs, over `std::net` with no external dependencies.
//!
//! One request per connection (`Connection: close`), bodies framed by
//! `Content-Length`, everything else ignored. This is deliberately not
//! a general HTTP implementation — it exists so the wire boundary
//! between the reconciler and the cluster server is a real TCP socket
//! carrying real HTTP text, while the whole stack stays inside the
//! offline build environment.
//!
//! A message's bytes are handled once. Reading: the head comes in
//! through small reads, each scanned for the terminator once, and is
//! bounded by its own cap; then the body is read straight into a
//! buffer sized to the declared `Content-Length` (itself capped, and
//! refused when two headers disagree about it). A request must arrive
//! whole before a deadline, checked after every read. Writing: head and
//! body leave in one vectored write, the body never copied into a
//! string beside its head.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest accepted body, a guard against a runaway peer rather than
/// a tuning knob.
const MAX_BODY_BYTES: usize = 4 << 20;

/// Largest accepted header block, terminator included. The protocol's
/// own heads are under 200 bytes; the bound is what a peer that never
/// sends the terminator can make the serving thread buffer and scan.
const MAX_HEADER_BYTES: usize = 16 << 10;

/// Longest the server waits for one whole request, head and body. A
/// socket read timeout restarts with every byte, so without this a peer
/// that trickles a byte at a time holds the one serving thread for as
/// long as it likes; a loopback request takes milliseconds.
pub(crate) const MAX_REQUEST_TIME: Duration = Duration::from_secs(2);

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (e.g. `/v1/observe`).
    pub path: String,
    /// Decoded body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// One parsed HTTP response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Decoded body.
    pub body: String,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn closed(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg.to_owned())
}

/// `TimedOut` once `deadline` has passed.
fn within(deadline: Option<Instant>) -> io::Result<()> {
    match deadline {
        Some(at) if Instant::now() >= at => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "message not complete before its deadline",
        )),
        _ => Ok(()),
    }
}

/// Reads bytes until the `\r\n\r\n` header terminator, then reads the
/// `Content-Length` body. Shared by both request and response parsing
/// (the framing is identical; only the first line differs).
///
/// The head arrives in small reads, each scanned once; whatever body
/// bytes came with it are split off into a buffer sized to the
/// declared length, and the rest of the body is read straight into
/// that buffer. After every read that leaves the message incomplete,
/// the `deadline` (when there is one) is checked.
fn read_message(stream: &mut impl Read, deadline: Option<Instant>) -> io::Result<(String, String)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut scanned = 0;
    let header_end = loop {
        if let Some(at) = find_terminator(&buf, scanned) {
            break at;
        }
        within(deadline)?;
        // A terminator can straddle two reads by at most three bytes.
        scanned = buf.len().saturating_sub(3);
        let room = (MAX_HEADER_BYTES - buf.len()).min(1024);
        if room == 0 {
            return Err(invalid("header block too large"));
        }
        let filled = buf.len();
        buf.resize(filled + room, 0);
        let n = stream.read(&mut buf[filled..])?;
        buf.truncate(filled + n);
        if n == 0 {
            return Err(closed("peer closed before the header terminator"));
        }
    };
    let mut body = buf.split_off(header_end + 4);
    buf.truncate(header_end);
    let head = String::from_utf8(buf).map_err(|_| invalid("header block is not UTF-8"))?;
    let content_length = content_length(&head)?;
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("declared body too large"));
    }
    body.truncate(content_length);
    let mut filled = body.len();
    body.resize(content_length, 0);
    while filled < content_length {
        within(deadline)?;
        let n = stream.read(&mut body[filled..])?;
        if n == 0 {
            return Err(closed("peer closed mid-body"));
        }
        filled += n;
    }
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
    Ok((head, body))
}

/// The offset of the first `\r\n\r\n` at or after `from`.
fn find_terminator(buf: &[u8], from: usize) -> Option<usize> {
    let at = buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + at)
}

/// The declared body length: 0 when no `Content-Length` is sent, an
/// error when one does not parse as a `usize` or when two disagree
/// (believing either would let the two ends frame the stream
/// differently).
fn content_length(head: &str) -> io::Result<usize> {
    let mut declared = None;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let length = value
            .trim()
            .parse::<usize>()
            .map_err(|_| invalid("unparseable Content-Length"))?;
        if declared.is_some_and(|first| first != length) {
            return Err(invalid("conflicting Content-Length headers"));
        }
        declared = Some(length);
    }
    Ok(declared.unwrap_or(0))
}

/// Sends `head` then `body` in one vectored write when the socket
/// takes it all, finishing with plain writes when it does not. Two
/// separate writes would put the small head in a segment of its own
/// ahead of the body; gluing them into one string would copy the body.
fn write_message(stream: &mut TcpStream, head: &str, body: &str) -> io::Result<()> {
    let (head, body) = (head.as_bytes(), body.as_bytes());
    let sent = match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    stream.write_all(head.get(sent..).unwrap_or_default())?;
    stream.write_all(
        body.get(sent.saturating_sub(head.len())..)
            .unwrap_or_default(),
    )?;
    stream.flush()
}

/// Reads and parses one request from an accepted connection; a request
/// still incomplete at `deadline` is a `TimedOut` error. A peer that
/// sends nothing at all is cut off by the socket's read timeout instead.
pub fn read_request(stream: &mut TcpStream, deadline: Instant) -> io::Result<Request> {
    let (head, body) = read_message(stream, Some(deadline))?;
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| invalid("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| invalid("request line has no target"))?;
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        body,
    })
}

/// Writes one JSON response and flushes. The connection is then done
/// (`Connection: close`).
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_message(stream, &head, body)
}

/// Sends one `POST` and reads the response, all within `timeout` per
/// socket operation. Each call is its own connection.
pub fn post(addr: SocketAddr, path: &str, body: &str, timeout: Duration) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: faro-cluster\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_message(&mut stream, &head, body)?;
    let (head, body) = read_message(&mut stream, None)?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("unparseable status line"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A deadline no test request comes near.
    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn round_trips_a_request_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let req = read_request(&mut conn, soon()).expect("parse request");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/echo");
            write_response(&mut conn, 200, &req.body).expect("write response");
        });
        let resp = post(addr, "/v1/echo", "{\"v\":1}", Duration::from_secs(5)).expect("post");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"v\":1}");
        server.join().expect("server thread");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let req = read_request(&mut conn, soon()).expect("parse request");
            assert_eq!(req.body, "");
            write_response(&mut conn, 404, "{}").expect("write response");
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /missing HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let (head, _) = read_message(&mut stream, None).expect("response");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.join().expect("server thread");
    }

    #[test]
    fn a_body_larger_than_a_socket_buffer_round_trips() {
        // Past what one vectored write or one read moves, under the cap.
        let big = "x".repeat(3 << 20);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let req = read_request(&mut conn, soon()).expect("parse request");
            write_response(&mut conn, 200, &req.body).expect("write response");
        });
        let resp = post(addr, "/v1/echo", &big, Duration::from_secs(5)).expect("post");
        assert_eq!(resp.status, 200);
        assert!(resp.body == big, "3 MiB body came back changed");
        server.join().expect("server thread");
    }

    /// A peer whose every `read` returns the next scripted piece: the
    /// split points a socket only produces by luck, produced on demand.
    struct Pieces(std::collections::VecDeque<Vec<u8>>);

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(piece) = self.0.front_mut() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            piece.drain(..n);
            if piece.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    /// A request whose body spans several reads and itself contains
    /// the header terminator.
    fn sample_request() -> Vec<u8> {
        let body = format!("{{\"pad\":\"\r\n\r\n{}\"}}", "é".repeat(1500));
        format!(
            "POST /v1/apply HTTP/1.1\r\nHost: x\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn every_split_of_the_stream_frames_the_same_message() {
        let message = sample_request();
        let read = |pieces: Vec<Vec<u8>>| read_message(&mut Pieces(pieces.into()), Some(soon()));
        let whole = read(vec![message.clone()]).expect("one piece");
        assert_eq!(whole.1.len(), 3014, "the body is the declared length");
        for at in 1..message.len() {
            let (a, b) = message.split_at(at);
            let split = read(vec![a.to_vec(), b.to_vec()]);
            assert_eq!(split.expect("two pieces"), whole, "split at {at}");
        }
        let bytes = message.iter().map(|&b| vec![b]).collect();
        assert_eq!(read(bytes).expect("bytes"), whole);
        // Bytes past the declared length are not part of the message.
        let mut trailing = message.clone();
        trailing.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        assert_eq!(read(vec![trailing]).expect("with trailing bytes"), whole);
    }

    /// Accepts one connection, lets `peer` write to it from another
    /// thread, and returns what `read_request` made of it.
    fn receive(peer: impl FnOnce(&mut TcpStream) + Send + 'static) -> io::Result<Request> {
        receive_within(Duration::from_secs(5), peer)
    }

    /// [`receive`], with `limit` for the whole request.
    fn receive_within(
        limit: Duration,
        peer: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            peer(&mut stream);
        });
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let result = read_request(&mut conn, Instant::now() + limit);
        // Close before joining: a peer still writing must see the
        // connection go away, not a full buffer.
        drop(conn);
        peer.join().expect("peer thread");
        result
    }

    fn receive_pieces(pieces: Vec<Vec<u8>>) -> io::Result<Request> {
        receive(move |stream| {
            for piece in pieces {
                // The reader may already have given up on this peer.
                if stream.write_all(&piece).is_err() {
                    return;
                }
            }
        })
    }

    #[test]
    fn split_writes_over_a_socket_parse_like_one_write() {
        let message = sample_request();
        let whole = receive_pieces(vec![message.clone()]).expect("one piece");
        assert_eq!(
            (whole.method.as_str(), whole.path.as_str()),
            ("POST", "/v1/apply")
        );
        assert_eq!(whole.body.len(), 3014);
        let bytes = message.iter().map(|&b| vec![b]).collect();
        assert_eq!(receive_pieces(bytes).expect("one byte at a time"), whole);
        let terminator = find_terminator(&message, 0).expect("has a terminator");
        for at in terminator.saturating_sub(2)..terminator + 8 {
            let (a, b) = message.split_at(at);
            let split = receive_pieces(vec![a.to_vec(), b.to_vec()]);
            assert_eq!(split.expect("two pieces"), whole, "split at {at}");
        }
    }

    fn kind_of(result: io::Result<Request>) -> io::ErrorKind {
        result.expect_err("must not frame a message").kind()
    }

    #[test]
    fn a_peer_that_closes_early_is_an_error_not_a_hang() {
        let mid_body = b"POST /v1/apply HTTP/1.1\r\nContent-Length: 10\r\n\r\n1234".to_vec();
        assert_eq!(
            kind_of(receive_pieces(vec![mid_body])),
            io::ErrorKind::UnexpectedEof
        );
        let mid_head = b"POST /v1/apply HTTP/1.1\r\nContent-Le".to_vec();
        assert_eq!(
            kind_of(receive_pieces(vec![mid_head])),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn a_content_length_that_cannot_be_trusted_is_refused() {
        for (declared, body) in [
            ("Content-Length: 99999999999999999999999999", "{}"),
            ("Content-Length: two", "{}"),
            ("Content-Length: -2", "{}"),
            ("Content-Length: 4194305", "{}"),
            ("Content-Length: 2\r\nContent-Length: 3", "{}x"),
            ("Content-Length: 2\r\ncontent-length : 20", "{}"),
        ] {
            let message = format!("POST /v1/apply HTTP/1.1\r\n{declared}\r\n\r\n{body}");
            assert_eq!(
                kind_of(receive_pieces(vec![message.into_bytes()])),
                io::ErrorKind::InvalidData,
                "{declared}"
            );
        }
        // Saying the same length twice is not a contradiction, and the
        // cap itself is a legal length (the peer then closes mid-body).
        let twice = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(
            receive_pieces(vec![twice.to_vec()]).expect("agree").body,
            "{}"
        );
        let at_cap = b"POST / HTTP/1.1\r\nContent-Length: 4194304\r\n\r\n{}";
        assert_eq!(
            kind_of(receive_pieces(vec![at_cap.to_vec()])),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn a_header_flood_is_cut_off_at_the_header_cap() {
        let started = std::time::Instant::now();
        let result = receive(|stream| {
            let line = format!("X-Pad: {}\r\n", "a".repeat(1015));
            let _ = stream.write_all(b"POST /v1/apply HTTP/1.1\r\n");
            for _ in 0..1024 {
                // 1 MiB of header lines and never a blank one; the
                // write fails once the reader has hung up.
                if stream.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
        });
        assert_eq!(kind_of(result), io::ErrorKind::InvalidData);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_peer_that_trickles_bytes_runs_out_of_time() {
        let started = Instant::now();
        let result = receive_within(Duration::from_millis(300), |stream| {
            let head = b"POST /v1/apply HTTP/1.1\r\nX-Pad: ";
            // One byte every 50 ms restarts any per-read timeout, and
            // the header cap is 800 s away: only the deadline ends this.
            for &byte in head.iter().chain(std::iter::repeat(&b'a')) {
                if stream.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        assert_eq!(kind_of(result), io::ErrorKind::TimedOut);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_head_of_exactly_the_cap_is_accepted_and_one_byte_more_is_not() {
        let fixed = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        for (pad, accepted) in [
            (MAX_HEADER_BYTES - fixed, true),
            (MAX_HEADER_BYTES - fixed + 1, false),
        ] {
            let message = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
            let result = read_message(&mut Pieces([message.into_bytes()].into()), None);
            assert_eq!(result.is_ok(), accepted, "pad {pad}");
        }
    }

    #[test]
    fn post_reports_a_reply_cut_short_as_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            read_request(&mut conn, soon()).expect("parse request");
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"v\":1")
                .expect("send");
        });
        let err = post(addr, "/v1/observe", "{}", Duration::from_secs(5)).expect_err("cut short");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        server.join().expect("server thread");
    }
}
