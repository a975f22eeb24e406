//! A minimal HTTP/1.1 front door over the engine — `std::net` + threads,
//! no async runtime (the container has no registry, and a thread per
//! short-lived connection is plenty for the workloads the load generator
//! drives).
//!
//! Routes:
//! * `POST /classify` — body is one raw RGB tile (`3·s·s` bytes,
//!   row-major interleaved, `s` = the engine's tile size); the response
//!   body is the `s·s`-byte class mask. `503` when admission control
//!   sheds, `504` when a per-request deadline expires in queue, `400` on
//!   a malformed body.
//! * `GET /stats` — the engine's [`StatsSnapshot`] as JSON (includes the
//!   raw latency buckets and cache eviction count).
//! * `GET /metrics` — the same numbers in Prometheus text exposition
//!   format, plus the process-wide `seaice-obs` registry.
//! * `GET /healthz` — liveness probe: HTTP 200 with
//!   `{"status":"ok"}`, or `{"status":"degraded"}` once worker restarts
//!   or deadline sheds cross the engine's configured thresholds (the
//!   engine still serves; degraded is an operator warning, not an
//!   outage).
//!
//! Connections are `Connection: close`; shutdown stops the acceptor and
//! then shuts the engine down gracefully (drain, then join).

use crate::engine::{Engine, ServeError};
use seaice_imgproc::buffer::Image;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(engine: Arc<Engine>, addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let engine = Arc::clone(&engine);
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("seaice-http-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stopping.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let engine = Arc::clone(&engine);
                        // Short-lived connection threads; handle() answers
                        // one request and closes.
                        std::thread::spawn(move || {
                            let _ = handle(&engine, stream);
                        });
                    }
                })?
        };
        Ok(HttpServer {
            addr,
            engine,
            stopping,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then gracefully shuts the engine down (drains the
    /// queue, joins the workers). Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            // seaice-lint: allow(panic-in-library) reason="the acceptor loop catches per-connection errors; a panic reaching join() is a bug in the loop itself and must crash the shutdown loudly, not be swallowed"
            h.join().expect("http acceptor panicked");
        }
        self.engine.shutdown();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one HTTP/1.1 request, routes it, writes one response.
fn handle(engine: &Engine, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return respond(stream, 400, "text/plain", b"malformed request line"),
    };

    // Headers: only Content-Length matters to us.
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            break;
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    match (method.as_str(), path.as_str()) {
        ("POST", "/classify") => {
            let s = engine.config().tile_size;
            if body.len() != 3 * s * s {
                let msg = format!(
                    "body must be a raw {s}x{s} RGB tile ({} bytes), got {}",
                    3 * s * s,
                    body.len()
                );
                return respond(stream, 400, "text/plain", msg.as_bytes());
            }
            let tile = Image::from_vec(s, s, 3, body);
            match engine.classify(tile) {
                Ok(mask) => respond(stream, 200, "application/octet-stream", &mask),
                Err(ServeError::Overloaded) => {
                    respond(stream, 503, "text/plain", b"overloaded: request shed")
                }
                Err(ServeError::DeadlineExceeded) => respond(
                    stream,
                    504,
                    "text/plain",
                    b"deadline exceeded: request shed",
                ),
                Err(ServeError::Closed) => respond(stream, 503, "text/plain", b"shutting down"),
                Err(ServeError::BadRequest(m)) => respond(stream, 400, "text/plain", m.as_bytes()),
                Err(ServeError::BadConfig(m)) | Err(ServeError::Internal(m)) => {
                    respond(stream, 500, "text/plain", m.as_bytes())
                }
            }
        }
        ("GET", "/stats") => {
            let json = engine.stats().to_json();
            respond(stream, 200, "application/json", json.as_bytes())
        }
        ("GET", "/metrics") => respond(
            stream,
            200,
            "text/plain; version=0.0.4",
            engine.metrics_prometheus().as_bytes(),
        ),
        ("GET", "/healthz") => {
            let body = format!("{{\"status\":\"{}\"}}", engine.health());
            respond(stream, 200, "application/json", body.as_bytes())
        }
        _ => respond(stream, 404, "text/plain", b"not found"),
    }
}

fn respond(mut stream: TcpStream, status: u16, content_type: &str, body: &[u8]) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use seaice_s2::synth::{generate, SceneConfig};
    use seaice_unet::checkpoint::snapshot;
    use seaice_unet::{UNet, UNetConfig};

    fn engine() -> Arc<Engine> {
        let mut model = UNet::new(UNetConfig {
            depth: 1,
            base_filters: 4,
            dropout: 0.0,
            seed: 31,
            ..UNetConfig::paper()
        });
        Arc::new(
            Engine::new(
                &snapshot(&mut model),
                EngineConfig {
                    workers: 1,
                    ..EngineConfig::for_tile(16)
                },
            )
            .unwrap(),
        )
    }

    /// A bare-bones HTTP client: one request, returns (status, body).
    fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text_end = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("no header terminator");
        let head = String::from_utf8_lossy(&response[..text_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("no status");
        (status, response[text_end + 4..].to_vec())
    }

    #[test]
    fn classify_stats_health_and_errors_over_the_wire() {
        let engine = engine();
        let mut server = HttpServer::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // POST /classify answers the same mask the engine computes.
        let tile = generate(&SceneConfig::tiny(16), 7).rgb;
        let (status, mask) = request(addr, "POST", "/classify", tile.as_slice());
        assert_eq!(status, 200);
        assert_eq!(mask.len(), 256);
        assert!(mask.iter().all(|&c| c < 3));
        let direct = engine.classify(tile).unwrap();
        assert_eq!(&mask, direct.as_ref());

        // Wrong body size → 400 with a helpful message.
        let (status, body) = request(addr, "POST", "/classify", &[0u8; 10]);
        assert_eq!(status, 400);
        assert!(String::from_utf8_lossy(&body).contains("16x16"));

        // Stats JSON carries the latency summary.
        let (status, body) = request(addr, "GET", "/stats", b"");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"p99_us\""), "{text}");
        assert!(text.contains("\"cache_hit_rate\""), "{text}");
        // The robustness section rides along in the same snapshot.
        assert!(text.contains("\"robustness\""), "{text}");
        assert!(text.contains("\"worker_restarts\""), "{text}");
        assert!(text.contains("\"shed_deadline\""), "{text}");
        // Raw histogram buckets and eviction counts for external
        // scrapers.
        assert!(text.contains("\"latency_buckets\""), "{text}");
        assert!(text.contains("\"floor_us\""), "{text}");
        assert!(text.contains("\"cache_evictions\""), "{text}");
        // The hand-written body is one well-formed document with every
        // `StatsSnapshot` member, integers exact.
        let doc = seaice_obs::json::parse(&text).expect("/stats is JSON");
        assert_eq!(doc.as_obj().map(<[_]>::len), Some(24), "{text}");
        let count = doc.get("latency").and_then(|l| l.get("count"));
        assert_eq!(count.and_then(|c| c.as_u64()), Some(2), "{text}");

        // Prometheus exposition over the same engine.
        let (status, body) = request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.contains("# TYPE seaice_serve_requests_submitted counter"),
            "{text}"
        );
        // One POST compute + one direct cache hit so far.
        assert!(text.contains("seaice_serve_requests_ok 2"), "{text}");
        assert!(text.contains("seaice_serve_cache_evictions 0"), "{text}");
        assert!(
            text.contains("seaice_serve_request_latency_us_bucket{le=\"+Inf\"}"),
            "{text}"
        );
        assert!(
            text.contains("seaice_serve_request_latency_us_count"),
            "{text}"
        );

        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"ok"}"#);
        // The same state rides along in /stats.
        let (_, body) = request(addr, "GET", "/stats", b"");
        let stats_text = String::from_utf8(body).unwrap();
        assert!(stats_text.contains("\"health\":\"ok\""), "{stats_text}");

        let (status, _) = request(addr, "GET", "/nope", b"");
        assert_eq!(status, 404);

        server.shutdown();
        // After shutdown the engine refuses work.
        assert!(matches!(
            engine.classify(generate(&SceneConfig::tiny(16), 8).rgb),
            Err(ServeError::Closed)
        ));
    }
}
