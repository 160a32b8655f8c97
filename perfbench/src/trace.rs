//! In-memory spans of the traced run, written out as Chrome trace-event JSON when
//! the run ends. Spans of one job share its id; times are microseconds since the
//! benchmark process started.

use crate::stats::Json;
use std::time::Instant;

/// One recorded interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Job the span belongs to.
    pub job: u64,
    /// Layer call, e.g. `run_numeric` or `verify.residual`.
    pub name: &'static str,
    /// Start, seconds since process start.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
}

/// Span recorder; a no-op when disabled so untraced runs pay nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, record it as span `name` of `job`, and return its result with its
    /// duration in seconds.
    pub fn time<T>(&mut self, job: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let dur_s = t.elapsed().as_secs_f64();
        self.push(
            job,
            name,
            t.duration_since(self.origin).as_secs_f64(),
            dur_s,
        );
        (out, dur_s)
    }

    /// Record an interval measured elsewhere (e.g. taken from a service outcome).
    pub fn push(&mut self, job: u64, name: &'static str, start_s: f64, dur_s: f64) {
        if self.enabled {
            self.spans.push(Span {
                job,
                name,
                start_s,
                dur_s,
            });
        }
    }

    /// Seconds since the recorder's origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Write the spans as Chrome trace-event JSON (one thread row per job).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_s * 1e6)),
                    ("dur", Json::Num(s.dur_s * 1e6)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(s.job as i64)),
                    ("args", Json::obj([("job", Json::Int(s.job as i64))])),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            Json::obj([("traceEvents", Json::Arr(events))]).render(),
        )
    }
}
