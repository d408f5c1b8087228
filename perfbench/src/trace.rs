//! In-memory spans recorded around public calls, the timing
//! `RoutePolicy` wrapper that sums route calls per epoch, and the laps
//! an untraced batch marks at the end of every epoch or sweep point.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use dimetrodon_ckpt::{CkptError, Dec, Enc};
use dimetrodon_fleet::{FleetView, RoutePolicy};

/// One timed interval. Spans without a parent are roots: one per
/// policy variant or sweep point.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    pub dur: Duration,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(id, _)| id),
            start: now - self.origin,
            dur: Duration::ZERO,
        });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (id, started) = self.open.pop().expect("exit without a matching enter");
        self.spans[id].dur = started.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// Records a summed child of the innermost open span: many short
    /// calls folded into one span whose duration is their total.
    pub fn record_sum(&mut self, name: &'static str, started: Instant, total: Duration) {
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(id, _)| id),
            start: started - self.origin,
            dur: total,
        });
    }

    /// Durations of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.durations(name).iter().sum()
    }

    /// Mean duration of the spans named `name`, seconds.
    pub fn mean_secs(&self, name: &str) -> f64 {
        let durations = self.durations(name);
        durations.iter().sum::<Duration>().as_secs_f64() / durations.len() as f64
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.dur;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            *by_name.entry(span.name).or_insert(Duration::ZERO) += span.dur.saturating_sub(covered);
        }
        by_name
    }

    /// Summed duration of the root spans.
    pub fn roots_total(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur)
            .sum()
    }

    /// Writes every span as a tab-separated line: id, parent, name,
    /// start and duration in nanoseconds.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("id\tparent\tname\tstart_ns\tdur_ns\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{id}\t{parent}\t{}\t{}\t{}",
                span.name,
                span.start.as_nanos(),
                span.dur.as_nanos()
            );
        }
        std::fs::write(path, text)
    }
}

/// Host time between fixed points of a batch's work: the end of every
/// control epoch and policy variant, or of every sweep point. Lap `i`
/// of one batch covers the same work as lap `i` of the next.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    pub secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// A `RoutePolicy` that forwards every call to `inner` and ends a lap
/// after every `end_epoch`, which `Fleet::step` calls once, last.
/// Forwarding is exact, so outputs are unchanged.
pub struct Lapped<'a, P> {
    inner: P,
    laps: &'a mut Laps,
}

impl<'a, P: RoutePolicy> Lapped<'a, P> {
    pub fn new(inner: P, laps: &'a mut Laps) -> Lapped<'a, P> {
        Lapped { inner, laps }
    }
}

impl<P: RoutePolicy> RoutePolicy for Lapped<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        self.inner.route(tenant, view)
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        self.inner.end_epoch(view);
        self.laps.lap();
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.inner.restore_state(dec)
    }
}

/// A `RoutePolicy` that forwards every call to `inner` and sums the host
/// time of `route` and `end_epoch`. Forwarding is exact, so a fleet
/// stepped through the wrapper produces bit-identical output.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    pub route_calls: u64,
    pub route_time: Duration,
    pub end_epoch_calls: u64,
    pub end_epoch_time: Duration,
}

impl<P: RoutePolicy> Timed<P> {
    pub fn new(inner: P) -> Timed<P> {
        Timed {
            inner,
            route_calls: 0,
            route_time: Duration::ZERO,
            end_epoch_calls: 0,
            end_epoch_time: Duration::ZERO,
        }
    }
}

impl<P: RoutePolicy> RoutePolicy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        let started = Instant::now();
        let machine = self.inner.route(tenant, view);
        self.route_time += started.elapsed();
        self.route_calls += 1;
        machine
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        let started = Instant::now();
        self.inner.end_epoch(view);
        self.end_epoch_time += started.elapsed();
        self.end_epoch_calls += 1;
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.inner.restore_state(dec)
    }
}
