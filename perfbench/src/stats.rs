//! Percentiles, the CPU clock and the metric record every workload fills in.

use std::collections::BTreeMap;

/// Nearest-rank percentile `p` (0–100) of `xs`; `0.0` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (nearest rank); `0.0` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Mean over templates of each template's percentile `p` of `(template, x)` samples.
///
/// Job times cluster by template, so a percentile over the mixture jumps between
/// clusters and ignores every template but the one it lands in. This moves with a
/// speed-up of any template, in proportion to its share of a cycle through them.
pub fn template_percentile(samples: impl IntoIterator<Item = (usize, f64)>, p: f64) -> f64 {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (t, x) in samples {
        by.entry(t).or_default().push(x);
    }
    mean(by.values().map(|xs| percentile(xs, p)))
}

/// CPU time this process has used, in seconds (64-bit Linux).
///
/// On a shared host the wall time of a single-threaded call also counts the time
/// the host ran something else on its core: the kernel leaves hypervisor steal
/// and run-queue waits out of this clock.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of `struct timespec`
    // on 64-bit Linux, and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b != 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Named metric values in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Record `name = value`; a name recorded twice is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name.to_string(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Minimal JSON value writer: enough for the result line, the info line and the
/// trace file, without a serialisation dependency.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialise compactly onto one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Rust's shortest round-trip formatting keeps every digit measured.
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn template_percentiles_weigh_templates_equally() {
        let xs = [(0, 1.0), (0, 3.0), (0, 2.0), (1, 10.0)];
        assert_eq!(template_percentile(xs, 50.0), 6.0);
    }

    #[test]
    fn the_cpu_clock_counts_work() {
        let t0 = cpu_s();
        let mut x = 0u64;
        while cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x + 1);
        }
        assert!(x > 0);
    }

    #[test]
    fn json_renders_compactly() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Int(2), Json::str("x\"y")])),
        ]);
        assert_eq!(j.render(), r#"{"a":1.5,"b":[2,"x\"y"]}"#);
    }
}
