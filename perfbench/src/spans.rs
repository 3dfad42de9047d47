//! In-memory spans recorded around the calls the benchmark makes into
//! each layer.
//!
//! The benchmark times every layer from outside: a span opens before a
//! call into a module's public entry point and closes after it returns.
//! Spans nest (a per-call root span holds the sequential oracle, the
//! engine solve and the input handling of that call), share a request id
//! per closed-loop call, and stay in memory until the run writes them out.
//!
//! A disabled tracer records nothing but still times [`Tracer::timed`]
//! calls, so the untraced end-to-end run and the traced run share one
//! code path and differ only in what is kept.

use std::fmt::Write as _;
use std::time::Instant;

/// Upper bound on recorded spans; later spans are counted as dropped so a
/// long traced run cannot grow without bound. [`Tracer::allow`] splits it
/// between a run's phases.
pub const MAX_SPANS: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span times, e.g. `engine.execute`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The closed-loop call (request) the span belongs to.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between the span's start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan(Option<usize>);

/// Span recorder (see module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    limit: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing; [`Tracer::timed`] still times.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            limit: MAX_SPANS,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Lets `more` spans be recorded from now on (within [`MAX_SPANS`]);
    /// spans past the allowance are counted as dropped. Called between a
    /// run's phases, with no span open, so that a phase of short calls
    /// cannot crowd out the ones after it.
    pub fn allow(&mut self, more: usize) {
        debug_assert!(self.stack.is_empty(), "allowance changed inside a span");
        self.limit = (self.spans.len() + more).min(MAX_SPANS);
    }

    /// Opens a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> OpenSpan {
        if !self.enabled {
            return OpenSpan(None);
        }
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return OpenSpan(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        OpenSpan(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: OpenSpan) {
        if let Some(id) = span.0 {
            let end_ns = self.now_ns();
            self.spans[id].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with its
    /// wall time in nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let span = self.open(name, request);
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let elapsed_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.close(span);
        (out, elapsed_ns)
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every recorded span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// The spans as a JSON document: one object per span with its id,
    /// parent, name, request, start and duration in nanoseconds.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.duration_ns()
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span("call", None, 0, 100),
            span("seq", Some(0), 10, 30),
            span("engine", Some(0), 40, 90),
            span("inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 120),
        ];
        // Covered: 10..70 and 90..100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut tr = Tracer::on();
        let root = tr.open("call", 7);
        let (v, ns) = tr.timed("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        tr.close(root);
        assert_eq!(v, 5);
        assert!(ns >= 2_000_000);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].duration_ns() >= ns);
        assert!(spans[0].duration_ns() >= ns);
        assert_eq!(tr.durations_us("child").len(), 1);
        let own = self_times_ns(spans);
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert!(tr.to_json("w", 1).contains("\"name\":\"child\""));
    }

    #[test]
    fn allowance_drops_whole_calls_past_it() {
        let mut tr = Tracer::on();
        tr.allow(3);
        for request in 0..3 {
            let root = tr.open("call", request);
            tr.timed("child", request, || ());
            tr.close(root);
        }
        // The second call's root filled the allowance: its child and the
        // whole third call are dropped, so no recorded span has a dropped
        // parent.
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.dropped, 3);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!((tr.spans()[2].name, tr.spans()[2].parent), ("call", None));
        tr.allow(1);
        tr.timed("after", 9, || ());
        assert_eq!(tr.spans().len(), 4);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::off();
        let root = tr.open("call", 0);
        let (_, ns) = tr.timed("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.close(root);
        assert!(ns >= 1_000_000);
        assert!(tr.spans().is_empty());
    }
}
