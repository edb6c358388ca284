//! The cluster-in-a-process actuation server.
//!
//! A [`ClusterServer`] owns a [`ClusterModel`] behind a loopback TCP
//! listener and speaks the v1 HTTP/JSON protocol: `POST /v1/observe`,
//! `POST /v1/apply`, and `POST /v1/chaos` (live fault-injection
//! reconfiguration). Connections are served one at a time on a single
//! thread, so given a fixed chaos seed and a fixed request order the
//! server's behavior replays exactly — determinism across a real
//! process-style boundary is the whole point.

use crate::http::{read_request, write_response, Request, MAX_REQUEST_TIME};
use crate::model::{ClusterConfig, ClusterModel, FaultStreams};
use crate::wall::WallAnchor;
use crate::wire::{
    ApplyRequest, ChaosConfig, ErrorBody, ObserveResponse, APPLY_PATH, CHAOS_PATH, OBSERVE_PATH,
};
use faro_core::types::ClusterSnapshot;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct ServerState {
    model: ClusterModel,
    /// The clock cold starts run on, anchored when the server spawns.
    wall: WallAnchor,
    chaos: ChaosConfig,
    streams: FaultStreams,
    /// Last fresh observation, replayed when the stale-observe fault
    /// fires.
    cached: Option<(u64, ClusterSnapshot)>,
}

impl ServerState {
    fn handle(&mut self, req: &Request) -> (u16, String) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", OBSERVE_PATH) | ("GET", OBSERVE_PATH) => self.observe(),
            ("POST", APPLY_PATH) => self.apply(&req.body),
            ("POST", CHAOS_PATH) => self.chaos(&req.body),
            _ => error_reply(
                404,
                &format!("no such endpoint: {} {}", req.method, req.path),
                false,
            ),
        }
    }

    fn observe(&mut self) -> (u16, String) {
        let stale = if self.cached.is_some() {
            self.streams.draw_stale(self.chaos.stale_observe_per_mille)
        } else {
            false
        };
        let body = if stale {
            #[expect(clippy::expect_used, reason = "invariant: checked above")]
            let (seq, snapshot) = self.cached.clone().expect("invariant: checked above");
            ObserveResponse {
                seq,
                age_ms: self.chaos.stale_age_ms,
                snapshot,
            }
        } else {
            let (seq, snapshot) = self.model.observe(self.wall.now_ms());
            self.cached = Some((seq, snapshot.clone()));
            ObserveResponse {
                seq,
                age_ms: 0,
                snapshot,
            }
        };
        match serde_json::to_string(&body) {
            Ok(json) => (200, json),
            Err(e) => error_reply(503, &format!("snapshot serialization failed: {e:?}"), true),
        }
    }

    fn apply(&mut self, body: &str) -> (u16, String) {
        if self.streams.draw_fail(self.chaos.apply_fail_per_mille) {
            return error_reply(503, "injected apply unavailability", true);
        }
        let Ok(value) = serde_json::from_str(body) else {
            return error_reply(400, "apply body is not JSON", false);
        };
        let Some(req) = ApplyRequest::from_json(&value) else {
            return error_reply(400, "apply body does not match the v1 schema", false);
        };
        // Each replica a target starts is a pending entry in the model:
        // a target past the whole cluster is refused, not allocated.
        let total = self.model.total_replicas();
        if let Some((id, d)) = req.desired.iter().find(|(_, d)| d.target_replicas > total) {
            let message = format!(
                "job {} targets {} replicas, past the cluster's {total}",
                id.index(),
                d.target_replicas
            );
            return error_reply(400, &message, false);
        }
        // The cluster has no class table: an allocation over classes
        // cannot be actuated, so it is refused rather than dropped.
        if let Some((id, _)) = req.desired.iter().find(|(_, d)| d.classes.is_some()) {
            let message = format!(
                "job {} carries a class allocation, but the cluster has no replica classes",
                id.index()
            );
            return error_reply(400, &message, false);
        }
        let resp = self.model.apply(&req.desired, self.wall.now_ms());
        match serde_json::to_string(&resp) {
            Ok(json) => (200, json),
            Err(e) => error_reply(503, &format!("apply serialization failed: {e:?}"), true),
        }
    }

    fn chaos(&mut self, body: &str) -> (u16, String) {
        let Ok(value) = serde_json::from_str(body) else {
            return error_reply(400, "chaos body is not JSON", false);
        };
        let Some(plan) = ChaosConfig::from_json(&value) else {
            return error_reply(400, "chaos body does not match the v1 schema", false);
        };
        self.chaos = plan;
        self.streams = FaultStreams::new(plan.seed);
        match serde_json::to_string(&plan) {
            Ok(json) => (200, json),
            Err(e) => error_reply(503, &format!("chaos serialization failed: {e:?}"), true),
        }
    }
}

fn error_reply(status: u16, message: &str, retryable: bool) -> (u16, String) {
    let body = ErrorBody {
        error: message.to_owned(),
        retryable,
    };
    let json = serde_json::to_string(&body).unwrap_or_else(|_| {
        "{\"v\":1,\"error\":\"unserializable\",\"retryable\":false}".to_owned()
    });
    (status, json)
}

/// The running server: spawn it, read its address, shut it down.
pub struct ClusterServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ClusterServer {
    /// Binds an ephemeral loopback port and serves the cluster on a
    /// background thread until [`ClusterServer::shutdown`] (or drop).
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the loopback listener cannot be bound.
    pub fn spawn(config: ClusterConfig) -> io::Result<Self> {
        Self::spawn_with_chaos(config, ChaosConfig::none())
    }

    /// Like [`ClusterServer::spawn`], with fault injection active from
    /// the first request (the loopback tests set the plan up front so
    /// no un-faulted warmup request shifts the seeded draw streams).
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the loopback listener cannot be bound.
    pub fn spawn_with_chaos(config: ClusterConfig, chaos: ChaosConfig) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let mut state = ServerState {
            model: ClusterModel::new(config),
            wall: WallAnchor::new(),
            chaos,
            streams: FaultStreams::new(chaos.seed),
            cached: None,
        };
        let join = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                serve_connection(&mut state, &mut conn);
            }
        });
        Ok(Self {
            addr,
            shutdown,
            join: Some(join),
        })
    }

    /// The loopback address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with one last connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves one connection. However its peer sends, reading the request
/// holds the serving thread at most twice [`MAX_REQUEST_TIME`]: the
/// deadline ends a peer that trickles bytes, the read timeout one that
/// falls silent.
fn serve_connection(state: &mut ServerState, conn: &mut TcpStream) {
    let _ = conn.set_read_timeout(Some(MAX_REQUEST_TIME));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(req) = read_request(conn, Instant::now() + MAX_REQUEST_TIME) else {
        // Garbled, too slow, or a wakeup connection; nothing to answer.
        return;
    };
    if state.chaos.api_latency_ms > 0 {
        std::thread::sleep(Duration::from_millis(state.chaos.api_latency_ms));
    }
    let (status, body) = state.handle(&req);
    let _ = write_response(conn, status, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::post;
    use crate::wire::ApplyResponse;

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn serves_the_v1_protocol_end_to_end() {
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();

        let obs = post(addr, OBSERVE_PATH, "{}", T).expect("observe");
        assert_eq!(obs.status, 200);
        let parsed = ObserveResponse::from_json(&serde_json::from_str(&obs.body).expect("json"))
            .expect("v1 observe body");
        assert_eq!(parsed.seq, 0);
        assert_eq!(parsed.age_ms, 0);
        assert_eq!(parsed.snapshot.jobs.len(), 2);

        let apply = post(
            addr,
            APPLY_PATH,
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":5,\"drop_rate\":0.0}]}",
            T,
        )
        .expect("apply");
        assert_eq!(apply.status, 200, "{}", apply.body);
        let parsed = ApplyResponse::from_json(&serde_json::from_str(&apply.body).expect("json"))
            .expect("v1 apply body");
        assert_eq!(parsed.applied, 1);
        assert_eq!(parsed.replicas_started, 3);

        let missing = post(addr, "/v2/observe", "{}", T).expect("unknown route");
        assert_eq!(missing.status, 404);
        server.shutdown();
    }

    #[test]
    fn a_slow_loris_is_cut_off_and_the_server_keeps_serving() {
        use std::io::Write;
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        // Connected first, so served first: one byte every 50 ms, for
        // longer than any test would wait.
        let mut loris = TcpStream::connect(addr).expect("connect");
        let trickle = std::thread::spawn(move || {
            for &byte in b"POST /v1/observe HTTP/1.1\r\nX-Pad: ".iter().cycle() {
                if loris.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let started = Instant::now();
        let obs = post(addr, OBSERVE_PATH, "{}", T).expect("observe behind the loris");
        assert_eq!(obs.status, 200);
        assert!(
            started.elapsed() < MAX_REQUEST_TIME + Duration::from_secs(1),
            "took {:?}",
            started.elapsed()
        );
        server.shutdown();
        trickle
            .join()
            .expect("the loris sees its connection closed");
    }

    #[test]
    fn chaos_endpoint_reconfigures_fault_injection() {
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        let plan = post(
            addr,
            CHAOS_PATH,
            "{\"v\":1,\"seed\":9,\"apply_fail_per_mille\":1000}",
            T,
        )
        .expect("chaos");
        assert_eq!(plan.status, 200, "{}", plan.body);
        // Every apply now fails with a retryable 503.
        let apply = post(
            addr,
            APPLY_PATH,
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":3,\"drop_rate\":0.0}]}",
            T,
        )
        .expect("apply under chaos");
        assert_eq!(apply.status, 503);
        let err = ErrorBody::from_json(&serde_json::from_str(&apply.body).expect("json"))
            .expect("v1 error body");
        assert!(err.retryable);
        server.shutdown();
    }

    #[test]
    fn chaos_rates_past_u32_get_a_400_and_arm_nothing() {
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        // 2^32 + 1000: narrowed with `as`, this armed 1000 per mille.
        for knob in ["apply_fail_per_mille", "stale_observe_per_mille"] {
            let body = format!("{{\"v\":1,\"seed\":9,\"{knob}\":4294968296}}");
            let plan = post(addr, CHAOS_PATH, &body, T).expect("an answer");
            assert_eq!(plan.status, 400, "{}", plan.body);
            let err = ErrorBody::from_json(&serde_json::from_str(&plan.body).expect("json"))
                .expect("v1 error body");
            assert!(!err.retryable, "the same body can never match");
        }
        let obs = post(addr, OBSERVE_PATH, "{}", T).expect("observe after the bad bodies");
        assert_eq!(obs.status, 200);
        let parsed = ObserveResponse::from_json(&serde_json::from_str(&obs.body).expect("json"))
            .expect("v1 observe body");
        assert_eq!((parsed.seq, parsed.age_ms), (0, 0), "a fresh snapshot");
        let apply = post(
            addr,
            APPLY_PATH,
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":3,\"drop_rate\":0.0}]}",
            T,
        )
        .expect("apply");
        assert_eq!(apply.status, 200, "{}", apply.body);
        server.shutdown();
    }

    #[test]
    fn a_latency_past_the_cap_gets_a_400_and_the_server_keeps_answering() {
        use crate::wire::MAX_API_LATENCY_MS;
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        // Just past the cap: armed, it would hold the next reply past
        // `T`.
        let body = format!(
            "{{\"v\":1,\"seed\":9,\"api_latency_ms\":{}}}",
            MAX_API_LATENCY_MS + 1
        );
        let plan = post(addr, CHAOS_PATH, &body, T).expect("an answer");
        assert_eq!(plan.status, 400, "{}", plan.body);
        let err = ErrorBody::from_json(&serde_json::from_str(&plan.body).expect("json"))
            .expect("v1 error body");
        assert!(!err.retryable, "the same body can never be armed");
        let obs = post(addr, OBSERVE_PATH, "{}", T).expect("observe within T");
        assert_eq!(obs.status, 200);
        server.shutdown();
    }

    #[test]
    fn legacy_untagged_apply_bodies_are_accepted() {
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        let apply = post(
            addr,
            APPLY_PATH,
            "{\"desired\":[{\"job\":1,\"target_replicas\":4,\"drop_rate\":0.25}]}",
            T,
        )
        .expect("legacy apply");
        assert_eq!(apply.status, 200, "{}", apply.body);
        server.shutdown();
    }

    /// Posts one apply body the server must refuse as the client's
    /// mistake, then checks the same server still observes and applies.
    /// Returns the refusal.
    fn refused_then_served(body: &str) -> ErrorBody {
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        let reply = post(addr, APPLY_PATH, body, T).expect("an answer, not a dead server");
        assert_eq!(reply.status, 400, "{body}: {}", reply.body);
        let err = ErrorBody::from_json(&serde_json::from_str(&reply.body).expect("json"))
            .expect("v1 error body");
        assert!(!err.retryable, "the same body can never be applied");
        let obs = post(addr, OBSERVE_PATH, "{}", T).expect("observe after the bad body");
        assert_eq!(obs.status, 200);
        let parsed = ObserveResponse::from_json(&serde_json::from_str(&obs.body).expect("json"))
            .expect("v1 observe body");
        // The refused body moved nothing.
        for job in &parsed.snapshot.jobs {
            assert_eq!((job.target_replicas, job.drop_rate), (2, 0.0), "{body}");
        }
        let apply = post(
            addr,
            APPLY_PATH,
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":3,\"drop_rate\":0.0}]}",
            T,
        )
        .expect("apply");
        assert_eq!(apply.status, 200, "{}", apply.body);
        server.shutdown();
        err
    }

    #[test]
    fn a_target_past_the_cluster_gets_a_400_and_the_server_keeps_serving() {
        // Applied, this extended one job's pending list by 2^32 - 1
        // entries: about 34 GB.
        refused_then_served(
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":4294967295,\"drop_rate\":0.0}]}",
        );
        // One past the demo cluster's 16.
        refused_then_served(
            "{\"v\":1,\"desired\":[{\"job\":1,\"target_replicas\":17,\"drop_rate\":0.0}]}",
        );
    }

    #[test]
    fn a_job_listed_twice_gets_a_400_and_the_server_keeps_serving() {
        refused_then_served(
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":4,\"drop_rate\":0.0},\
             {\"job\":0,\"target_replicas\":5,\"drop_rate\":0.0}]}",
        );
    }

    #[test]
    fn a_drop_rate_outside_zero_to_one_gets_a_400_and_the_server_keeps_serving() {
        // `1e999` parses to +inf, which every later snapshot echoed.
        for rate in ["1e999", "-1e999", "1.5", "-0.25"] {
            refused_then_served(&format!(
                "{{\"v\":1,\"desired\":[{{\"job\":0,\"target_replicas\":3,\"drop_rate\":{rate}}}]}}"
            ));
        }
    }

    #[test]
    fn classes_that_miss_the_target_get_a_400_and_the_server_keeps_serving() {
        for classes in ["[1,1]", "[2,2]", "[4294967295,4]"] {
            refused_then_served(&format!(
                "{{\"v\":1,\"desired\":[{{\"job\":0,\"target_replicas\":3,\"drop_rate\":0.0,\
                 \"classes\":{classes}}}]}}"
            ));
        }
    }

    #[test]
    fn a_class_allocation_gets_a_400_naming_the_job_and_the_server_keeps_serving() {
        // Well formed (the classes sum to the target), but the cluster
        // has no class table to actuate it on.
        let err = refused_then_served(
            "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":3,\"drop_rate\":0.0,\
             \"classes\":[1,2]}]}",
        );
        assert!(err.error.contains("job 0"), "{}", err.error);
    }

    #[test]
    fn bodies_nested_past_the_depth_cap_get_a_400_and_the_server_keeps_serving() {
        let server = ClusterServer::spawn(ClusterConfig::demo(50)).expect("spawn");
        let addr = server.addr();
        // 100 KB of open brackets: unbounded recursive descent
        // overflows the serving thread's stack on this and takes the
        // whole process down.
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(20_000)] {
            let reply = post(addr, APPLY_PATH, &deep, T).expect("an answer, not a dead server");
            assert_eq!(reply.status, 400, "{}", reply.body);
            let err = ErrorBody::from_json(&serde_json::from_str(&reply.body).expect("json"))
                .expect("v1 error body");
            assert!(!err.retryable, "the same body can never parse");
            let chaos = post(addr, CHAOS_PATH, &deep, T).expect("an answer");
            assert_eq!(chaos.status, 400, "{}", chaos.body);
        }
        let obs = post(addr, OBSERVE_PATH, "{}", T).expect("observe after the bad bodies");
        assert_eq!(obs.status, 200);
        server.shutdown();
    }
}
