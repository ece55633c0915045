//! In-memory span recorder and the small statistics the benchmark reports.
//!
//! A [`Rec`] is either off (every [`Rec::span`] just calls its closure, so
//! the untraced run pays one branch per call) or on, in which case it keeps
//! one [`Span`] per call: name, start, end, parent and the request id shared
//! by the spans of one operation. Spans stay in memory until the run ends,
//! when [`Rec::chrome_events`] writes them out in one piece.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use scaledeep_trace::json::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 for a root span.
    pub parent: u64,
    /// The operation (sweep, iteration, job, round) the span belongs to.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span and value recorder for one pass of one workload.
pub struct Rec {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    values: Mutex<BTreeMap<String, f64>>,
}

impl Rec {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
        }
    }

    /// Reserves a span id, for a span whose children are recorded before
    /// the span itself ends on another thread (a served job).
    pub fn alloc(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.alloc();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, req, start, Instant::now());
        out
    }

    /// Records a span measured by the caller under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span lock is never poisoned")
            .push(span);
    }

    /// Records a named value (a count or a derived figure) for the
    /// per-layer report.
    pub fn set(&self, name: &str, value: f64) {
        if self.on {
            self.values
                .lock()
                .expect("value lock is never poisoned")
                .insert(name.to_string(), value);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock is never poisoned")
            .clone()
    }

    pub fn values(&self) -> BTreeMap<String, f64> {
        self.values
            .lock()
            .expect("value lock is never poisoned")
            .clone()
    }

    /// Median duration in microseconds of the spans called `name`.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let durs: Vec<f64> = self
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        median(&durs)
    }

    /// Each layer's self time — its spans' durations minus the part their
    /// children cover — as a percentage of all recorded self time.
    pub fn self_pct(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *by_layer.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(covered) as f64;
        }
        let total: f64 = by_layer.values().sum();
        for v in by_layer.values_mut() {
            *v = if total > 0.0 { 100.0 * *v / total } else { 0.0 };
        }
        by_layer
    }

    /// The spans as a Chrome/Perfetto trace document; `pass` names the
    /// workload pass they came from.
    pub fn chrome_events(&self, pass: &str, pid: usize, out: &mut Vec<Json>) {
        for s in self.spans() {
            out.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str(s.layer().into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Json::Num(pid as f64)),
                ("tid".into(), Json::Num(s.req as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("pass".into(), Json::Str(pass.into())),
                        ("id".into(), Json::Num(s.id as f64)),
                        ("parent".into(), Json::Num(s.parent as f64)),
                        ("req".into(), Json::Num(s.req as f64)),
                    ]),
                ),
            ]));
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Nearest-rank percentile `p` in `(0, 100]`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Spread of a sample as its interquartile range over its median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let iqr = quantile(xs, 0.75)? - quantile(xs, 0.25)?;
    (m != 0.0).then(|| iqr / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 2, 25), 13 + 5);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 99.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Rec::new(true);
        let t0 = rec.epoch;
        let ms = |n| t0 + std::time::Duration::from_millis(n);
        let root = rec.alloc();
        let child = rec.alloc();
        rec.record(child, "compiler.compile", root, 1, ms(1), ms(4));
        rec.record(root, "bench.op", 0, 1, ms(0), ms(4));
        let pct = rec.self_pct();
        assert!((pct["compiler"] - 75.0).abs() < 1e-9);
        assert!((pct["bench"] - 25.0).abs() < 1e-9);
    }
}
