//! Fixed-bucket histograms, counters, and gauges with a deterministic
//! JSON rendering.
//!
//! The registry replaces ad-hoc per-experiment counter plumbing with one
//! API: counters accumulate deltas, gauges hold last-written values, and
//! histograms bucket observations against a fixed bound table so two runs
//! of the same seed render byte-identical JSON. All maps are `BTreeMap`s —
//! iteration order, and therefore the rendered artifact, never depends on
//! hash seeds.

use std::collections::BTreeMap;

use crate::json::{write_object, ObjWriter};

/// Default latency/staleness bucket upper bounds, in microseconds.
///
/// Spans 500 µs … 10 s in roughly 1-2-5 steps — wide enough for the
/// paper's 100 ms–2 s deadline range with resolution below the deadline.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 300_000, 500_000, 750_000,
    1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket histogram: `counts[i]` counts observations `<= bounds[i]`,
/// with one implicit overflow bucket at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram over the given bucket upper bounds
    /// (must be strictly increasing).
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The smallest bound with cumulative count ≥ `q`·count — a
    /// bucket-resolution quantile (returns the max for the overflow
    /// bucket, 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    fn write_json(&self, o: &mut ObjWriter<'_>) {
        o.u64("count", self.count);
        o.u64("sum", self.sum);
        o.u64("min", if self.count == 0 { 0 } else { self.min });
        o.u64("max", self.max);
        o.u64("p50", self.quantile(0.50));
        o.u64("p99", self.quantile(0.99));
        o.u64s("bounds", self.bounds.iter().copied());
        o.u64s("counts", self.counts.iter().copied());
    }
}

/// Counters, gauges, and histograms behind one deterministic registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name`, creating it over `bounds`
    /// on first use.
    pub fn observe(&mut self, name: &str, bounds: &'static [u64], value: u64) {
        self.hists
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Renders the registry as one deterministic JSON document:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}` with keys
    /// in lexicographic order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, |o| {
            for (key, scalars) in [("counters", &self.counters), ("gauges", &self.gauges)] {
                o.obj(key, |o| {
                    for (name, v) in scalars {
                        o.u64(name, *v);
                    }
                });
            }
            o.obj("histograms", |o| {
                for (name, h) in &self.hists {
                    o.obj(name, |o| h.write_json(o));
                }
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(LATENCY_BOUNDS_US);
        for v in [100, 500, 501, 250_000, 99_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 100 + 500 + 501 + 250_000 + 99_000_000);
        // 100 and 500 land in the first bucket (<= 500), 501 in the next.
        assert_eq!(h.quantile(0.0), 500);
        assert_eq!(h.quantile(1.0), 99_000_000); // overflow bucket -> max
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn empty_histogram_renders_without_panic() {
        let h = Histogram::new(LATENCY_BOUNDS_US);
        assert_eq!(h.quantile(0.5), 0);
        let mut s = String::new();
        write_object(&mut s, |o| h.write_json(o));
        assert!(s.contains("\"count\":0"));
    }

    #[test]
    fn registry_json_is_deterministic_and_parseable() {
        let mut m = MetricsRegistry::new();
        m.add("z.counter", 2);
        m.add("a.counter", 1);
        m.add("a.counter", 1);
        m.set_gauge("g", 42);
        m.observe("lat", LATENCY_BOUNDS_US, 900);
        let a = m.to_json();
        let b = m.clone().to_json();
        assert_eq!(a, b);
        // "a.counter" sorts before "z.counter".
        assert!(a.find("a.counter").unwrap() < a.find("z.counter").unwrap());
        let parsed = crate::json::parse_json(&a).unwrap();
        let obj = parsed.as_obj().unwrap();
        assert_eq!(
            obj["counters"].as_obj().unwrap()["a.counter"].as_u64(),
            Some(2)
        );
        assert_eq!(obj["gauges"].as_obj().unwrap()["g"].as_u64(), Some(42));
        assert_eq!(
            obj["histograms"].as_obj().unwrap()["lat"].as_obj().unwrap()["count"].as_u64(),
            Some(1)
        );
    }

    /// The byte fence for the metrics document.
    #[test]
    fn registry_json_matches_the_pinned_document() {
        let mut m = MetricsRegistry::new();
        m.add("client.busy_rejections", 3);
        m.set_gauge("server.queue_depth", 17);
        for v in [400, 900, 20_000_000] {
            m.observe("read_us", &[500, 1_000, 10_000_000], v);
        }
        assert_eq!(
            m.to_json(),
            concat!(
                r#"{"counters":{"client.busy_rejections":3},"gauges":{"server.queue_depth":17},"#,
                r#""histograms":{"read_us":{"count":3,"sum":20001300,"min":400,"max":20000000,"#,
                r#""p50":1000,"p99":20000000,"bounds":[500,1000,10000000],"counts":[1,1,0,1]}}}"#
            )
        );
    }
}
