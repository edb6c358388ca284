//! The wall-clock HTTP backend: a [`ClusterBackend`] whose cluster is
//! on the other side of a TCP socket.
//!
//! [`HttpBackend`] keeps the control plane's two timelines strictly
//! apart. Its [`Clock`] is *logical*: round `n` is at `n · tick`
//! [`SimTimeMs`], exactly like the simulator, so policies, telemetry,
//! and the resilient driver's staleness arithmetic behave identically
//! against a live server. [`HttpBackend::wall_now`] is the host's
//! physical clock — the epoch offset read once at connect plus
//! monotonic elapsed time, so it never steps backwards — used only for
//! wall-tagged telemetry: [`WallTimeMs`] has no conversion into the
//! logical timeline, so the two cannot be mixed by accident.
//!
//! A server-reported stale snapshot (`age_ms > 0`) is mapped onto the
//! logical timeline as `snapshot.now = clock.now() − age`, which is
//! precisely what [`faro_control::ResilientDriver`]'s staleness window
//! checks — the cache-tolerance ladder works unchanged across the
//! process boundary. An age past `i64::MAX` milliseconds saturates
//! there: it reads as ancient, never as fresh. A refusal whose error
//! body says `"retryable": false` (a 400 for a body the server can
//! never apply, a 404) is [`BackendError::Rejected`], which the ladder
//! does not retry; every other failure is transient.

use crate::http::post;
use crate::wall::WallAnchor;
use crate::wire::{
    write_apply_request, ApplyResponse, ChaosConfig, ErrorBody, ObserveResponse, APPLY_PATH,
    CHAOS_PATH, OBSERVE_PATH,
};
use faro_control::{ActuationReport, BackendError, Clock, ClusterBackend};
use faro_core::types::{ClusterSnapshot, DesiredState};
use faro_core::units::{DurationMs, ReplicaCount, SimTimeMs, WallTimeMs};
use faro_telemetry::{TelemetryEvent, TelemetrySink};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// How an [`HttpBackend`] paces and bounds its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Logical milliseconds per round (the snapshot timeline step).
    pub tick_ms: u64,
    /// Wall-clock pause between rounds. Zero runs the loop flat out —
    /// the logical timeline still advances by `tick_ms` per round, so
    /// tests compress minutes of cluster time into milliseconds.
    pub interval: Duration,
    /// Rounds before the clock reports the horizon and the driver
    /// stops.
    pub horizon_rounds: u64,
    /// Per-socket-operation timeout for every HTTP call.
    pub request_timeout: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            tick_ms: 10_000,
            interval: Duration::from_millis(0),
            horizon_rounds: 30,
            request_timeout: Duration::from_secs(5),
        }
    }
}

/// A [`ClusterBackend`] speaking the v1 HTTP/JSON actuation protocol.
#[derive(Debug)]
pub struct HttpBackend {
    addr: SocketAddr,
    cfg: LiveConfig,
    round: u64,
    /// The host clock behind [`HttpBackend::wall_now`], anchored at
    /// connect.
    wall: WallAnchor,
}

impl HttpBackend {
    /// A backend talking to the server at `addr`.
    pub fn connect(addr: SocketAddr, cfg: LiveConfig) -> Self {
        Self {
            addr,
            cfg,
            round: 0,
            wall: WallAnchor::new(),
        }
    }

    /// The host's physical clock, as milliseconds since the Unix epoch:
    /// the epoch offset read at connect plus monotonic elapsed time, so
    /// it never decreases. For tagging and gating, never for ordering
    /// rounds; that is [`Clock::now`]'s logical timeline.
    pub fn wall_now(&self) -> WallTimeMs {
        WallTimeMs::from_millis(self.wall.now_ms() as i64)
    }

    /// Reconfigures the server's fault injection (`POST /v1/chaos`).
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the call fails like any other API call.
    pub fn configure_chaos(&mut self, plan: ChaosConfig) -> Result<(), BackendError> {
        let body = serde_json::to_string(&plan)
            .map_err(|e| unavailable(format!("chaos plan serialization failed: {e:?}")))?;
        let resp = post(self.addr, CHAOS_PATH, &body, self.cfg.request_timeout)
            .map_err(|e| self.transport_error(e))?;
        if resp.status == 200 {
            Ok(())
        } else {
            Err(reply_error(resp.status, &resp.body))
        }
    }

    fn transport_error(&self, e: io::Error) -> BackendError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => BackendError::Timeout {
                elapsed: DurationMs::from_millis(self.cfg.request_timeout.as_millis() as i64),
            },
            _ => unavailable(format!("transport: {e}")),
        }
    }
}

fn unavailable(reason: String) -> BackendError {
    BackendError::Unavailable { reason }
}

/// Maps a non-200 reply onto the backend error taxonomy: a body that
/// says `"retryable": false` is [`BackendError::Rejected`], anything
/// else (an injected 503, an unparseable body) is `Unavailable`.
fn reply_error(status: u16, body: &str) -> BackendError {
    let parsed = serde_json::from_str(body)
        .ok()
        .as_ref()
        .and_then(ErrorBody::from_json);
    let retryable = parsed.as_ref().is_none_or(|e| e.retryable);
    let detail = parsed
        .map(|e| e.error)
        .unwrap_or_else(|| format!("status {status} with unparseable body"));
    let reason = format!("server refused ({status}): {detail}");
    if retryable {
        unavailable(reason)
    } else {
        BackendError::Rejected { reason }
    }
}

impl Clock for HttpBackend {
    fn now(&self) -> SimTimeMs {
        SimTimeMs::from_millis(self.round.saturating_mul(self.cfg.tick_ms) as i64)
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        if self.round >= self.cfg.horizon_rounds {
            return None;
        }
        if !self.cfg.interval.is_zero() {
            std::thread::sleep(self.cfg.interval);
        }
        self.round += 1;
        Some(self.now())
    }

    fn advance_with(&mut self, sink: &mut dyn TelemetrySink) -> Option<SimTimeMs> {
        let at = self.advance()?;
        if sink.enabled() {
            sink.event(
                at,
                &TelemetryEvent::WallClockTick {
                    wall_ms: self.wall_now().as_millis(),
                    round: self.round,
                },
            );
        }
        Some(at)
    }
}

impl ClusterBackend for HttpBackend {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let resp = post(self.addr, OBSERVE_PATH, "{}", self.cfg.request_timeout)
            .map_err(|e| self.transport_error(e))?;
        if resp.status != 200 {
            return Err(reply_error(resp.status, &resp.body));
        }
        let value = serde_json::from_str(&resp.body)
            .map_err(|e| unavailable(format!("observe body is not JSON: {e:?}")))?;
        let parsed = ObserveResponse::from_json(&value)
            .ok_or_else(|| unavailable("observe body does not match the v1 schema".to_owned()))?;
        let mut snapshot = parsed.snapshot;
        // Re-key the server's report onto this clock's logical
        // timeline: fresh snapshots land at `now`, stale ones land
        // `age_ms` behind it, where the resilient driver's staleness
        // window can judge them. An age past `i64` saturates rather
        // than wrapping negative, which would land it after `now`.
        let age = i64::try_from(parsed.age_ms).unwrap_or(i64::MAX);
        snapshot.now = self.now() - DurationMs::from_millis(age);
        Ok(snapshot)
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let mut body = String::new();
        write_apply_request(desired, &mut body);
        let resp = post(self.addr, APPLY_PATH, &body, self.cfg.request_timeout)
            .map_err(|e| self.transport_error(e))?;
        if resp.status != 200 {
            return Err(reply_error(resp.status, &resp.body));
        }
        let value = serde_json::from_str(&resp.body)
            .map_err(|e| unavailable(format!("apply body is not JSON: {e:?}")))?;
        let parsed = ApplyResponse::from_json(&value)
            .ok_or_else(|| unavailable("apply body does not match the v1 schema".to_owned()))?;
        Ok(ActuationReport {
            jobs_applied: parsed.applied,
            jobs_failed: parsed.failed,
            replicas_started: ReplicaCount::new(parsed.replicas_started),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClusterConfig;
    use crate::server::ClusterServer;
    use faro_telemetry::TraceSink;
    use std::time::Instant;

    fn quick() -> LiveConfig {
        LiveConfig {
            horizon_rounds: 3,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn the_logical_clock_ticks_independently_of_wall_time() {
        let server = ClusterServer::spawn(ClusterConfig::demo(20)).expect("spawn");
        let mut backend = HttpBackend::connect(server.addr(), quick());
        assert_eq!(backend.now(), SimTimeMs::from_millis(0));
        assert_eq!(backend.advance(), Some(SimTimeMs::from_millis(10_000)));
        assert_eq!(backend.advance(), Some(SimTimeMs::from_millis(20_000)));
        assert_eq!(backend.advance(), Some(SimTimeMs::from_millis(30_000)));
        assert_eq!(backend.advance(), None, "horizon bounds the loop");
        server.shutdown();
    }

    #[test]
    fn observe_and_apply_cross_the_socket() {
        let server = ClusterServer::spawn(ClusterConfig::demo(20)).expect("spawn");
        let mut backend = HttpBackend::connect(server.addr(), quick());
        let snapshot = backend.observe().expect("observe");
        assert_eq!(snapshot.jobs.len(), 2);
        assert_eq!(snapshot.now, SimTimeMs::from_millis(0), "fresh = now");

        let mut desired = DesiredState::new();
        desired.set(
            faro_core::types::JobId::new(0),
            faro_core::types::JobDecision {
                target_replicas: 5,
                drop_rate: 0.0,
                classes: None,
            },
        );
        let report = backend.apply(&desired).expect("apply");
        assert_eq!(report.jobs_applied, 1);
        assert_eq!(report.replicas_started, ReplicaCount::new(3));
        server.shutdown();
    }

    #[test]
    fn advance_with_emits_a_wall_clock_tick() {
        let server = ClusterServer::spawn(ClusterConfig::demo(20)).expect("spawn");
        let mut backend = HttpBackend::connect(server.addr(), quick());
        let mut sink = TraceSink::new();
        backend.advance_with(&mut sink).expect("one round");
        let kinds: Vec<&str> = sink.entries().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, vec!["WallClockTick"]);
        server.shutdown();
    }

    #[test]
    fn a_reply_nested_past_the_depth_cap_is_an_unavailable_backend() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let rogue = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().expect("accept");
                let deadline = Instant::now() + Duration::from_secs(5);
                crate::http::read_request(&mut conn, deadline).expect("request");
                crate::http::write_response(&mut conn, 200, &"[".repeat(100_000)).expect("reply");
            }
        });
        let mut backend = HttpBackend::connect(addr, quick());
        for result in [
            backend.observe().map(|_| ()),
            backend.apply(&DesiredState::new()).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(BackendError::Unavailable { .. })),
                "{result:?}"
            );
        }
        rogue.join().expect("rogue server thread");
    }

    #[test]
    fn an_age_past_i64_reads_as_stale_not_fresh() {
        use crate::model::{ClusterConfig, ClusterModel};
        use faro_control::resilient::STALENESS_WINDOW;
        let (seq, snapshot) = ClusterModel::new(ClusterConfig::demo(20)).observe(0);
        let reply = serde_json::to_string(&crate::wire::ObserveResponse {
            seq,
            age_ms: 10_000_000_000_000_000_000,
            snapshot,
        })
        .expect("serializes");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let rogue = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let deadline = Instant::now() + Duration::from_secs(5);
            crate::http::read_request(&mut conn, deadline).expect("request");
            crate::http::write_response(&mut conn, 200, &reply).expect("reply");
        });
        let mut backend = HttpBackend::connect(addr, quick());
        backend.advance();
        let snapshot = backend.observe().expect("a well-formed reply");
        let age = backend.now().saturating_duration_since(snapshot.now);
        assert!(age >= STALENESS_WINDOW, "{age:?} at {:?}", snapshot.now);
        rogue.join().expect("rogue server thread");
    }

    #[test]
    fn an_absurd_apply_is_rejected_and_the_next_one_lands() {
        use faro_core::types::JobDecision;
        let server = ClusterServer::spawn(ClusterConfig::demo(20)).expect("spawn");
        let mut backend = HttpBackend::connect(server.addr(), quick());
        let id = faro_core::types::JobId::new(0);
        for absurd in [
            JobDecision::replicas(u32::MAX),
            JobDecision::replicas(3).with_drop_rate(f64::INFINITY),
            JobDecision::replicas(3).with_drop_rate(-0.5),
        ] {
            let mut desired = DesiredState::new();
            desired.set(id, absurd);
            let result = backend.apply(&desired);
            assert!(
                matches!(&result, Err(e @ BackendError::Rejected { .. }) if !e.is_retryable()),
                "{absurd:?}: {result:?}"
            );
        }
        let mut desired = DesiredState::new();
        desired.set(id, JobDecision::replicas(5));
        let report = backend
            .apply(&desired)
            .expect("a valid apply after the refusals");
        assert_eq!(report.replicas_started, ReplicaCount::new(3));
        server.shutdown();
    }

    #[test]
    fn wall_time_never_steps_backwards() {
        let backend = HttpBackend::connect("127.0.0.1:9".parse().expect("address"), quick());
        let mut last = backend.wall_now();
        assert!(last.as_millis() > 1_600_000_000_000, "ms since the epoch");
        for _ in 0..10_000 {
            let now = backend.wall_now();
            assert!(now >= last, "{now:?} after {last:?}");
            last = now;
        }
    }
}
