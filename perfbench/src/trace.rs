//! Span recording and the arithmetic the per-layer table is built from.
//!
//! Spans are opened by the benchmark around its calls into the library's
//! public functions; nothing inside the library is instrumented. A span's
//! self time is its duration minus the part its child spans cover, and a
//! phase's unattributed share is the wall time that no span covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. When off, `begin`/`end` read no clock and
/// record nothing, so traced and untraced passes run the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            // Pre-sized so that recording does not allocate inside the
            // allocation-counted training steps.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::with_capacity(if on { 16 } else { 0 }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Share of `wall_ns` that no span covers: the wall time minus the summed
/// self times (which add up to the top-level spans' durations).
pub fn unattributed_frac(wall_ns: u64, spans: &[Span]) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    let covered: u64 = self_times(spans).iter().sum();
    wall_ns.saturating_sub(covered) as f64 / wall_ns as f64
}

/// Relative cost of recording: traced minus untraced wall time of the same
/// work, as a share of the untraced time.
pub fn overhead_frac(untraced_ns: u64, traced_ns: u64) -> f64 {
    (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64
}

/// Calls, inclusive time and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStat {
    /// Inclusive milliseconds per `per` (steps, rounds, ...).
    pub fn ms_per(&self, per: u64) -> f64 {
        self.total_ns as f64 / 1e6 / per.max(1) as f64
    }

    /// Mean inclusive microseconds per call.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// Per-name totals over a span set.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; NaN
/// when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `v` in ascending order under the IEEE total order.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The smallest sample; NaN when empty.
///
/// The end-to-end timings use it next to a tail percentile. The shared host
/// the benchmark runs on switches between a fast and a slow state every few
/// seconds, and the slow state's share of a run varies from run to run, so
/// a median lands in either state and its runs spread by 20-30%. Host
/// interference only ever adds time: the fastest of many operations is the
/// code's own cost, and it spreads least.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    /// a[0,100) holds b[10,40) (which holds c[20,30)) and d[50,70);
    /// e[120,150) is a second top-level span.
    fn hand_built() -> Vec<Span> {
        vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("d", 50, 70, Some(0)),
            span("e", 120, 150, None),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&hand_built()), vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn self_times_sum_to_top_level_durations() {
        let spans = hand_built();
        let total: u64 = self_times(&spans).iter().sum();
        let top: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!((total, top), (130, 130));
    }

    #[test]
    fn unattributed_share_is_wall_minus_covered() {
        let spans = hand_built();
        assert!((unattributed_frac(200, &spans) - 0.35).abs() < 1e-12);
        assert_eq!(unattributed_frac(130, &spans), 0.0);
        assert_eq!(unattributed_frac(0, &spans), 0.0);
        assert_eq!(unattributed_frac(50, &[]), 1.0);
        assert!((overhead_frac(200, 210) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn by_name_sums_repeated_calls() {
        let mut spans = hand_built();
        spans.push(span("d", 160, 165, None));
        let stats = by_name(&spans);
        assert_eq!(
            stats["d"],
            NameStat {
                calls: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!((stats["a"].total_ns, stats["a"].self_ns), (100, 50));
        assert!((stats["d"].ms_per(5) - 5e-6).abs() < 1e-15);
        assert!((stats["d"].mean_us() - 0.0125).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(fastest(&[3.0, 0.5, 2.0]), 0.5);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.begin("outer");
        tr.span("inner", || ());
        tr.end();
        tr.span("next", || ());
        let shape: Vec<(&str, Option<usize>)> =
            tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![("outer", None), ("inner", Some(0)), ("next", None)]
        );
        let (outer, inner) = (&tr.spans()[0], &tr.spans()[1]);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let mut off = Tracer::new(false);
        off.begin("x");
        assert_eq!(off.span("y", || 3), 3);
        off.end();
        assert!(off.spans().is_empty());
    }
}
