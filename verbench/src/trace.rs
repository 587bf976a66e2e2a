//! Spans recorded in memory around the calls the traced replay makes into
//! each layer. A span has a name, a start and an end, the span that caused
//! it, and the request it belongs to; a layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<usize>,
    /// Offsets from the tracer's creation.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    pub total: Duration,
    pub self_time: Duration,
}

/// The span recorder. A tracer built with `on == false` records nothing
/// and only runs the closures it is given, so the untraced replay runs
/// the same code path minus the clock reads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    request: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            request: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        self.last_closed = Some(idx);
        out
    }

    /// Add children to the span that closed last, one per phase a layer's
    /// own `PhaseTimer` reported, and return their indices. The layers
    /// time these phases inside the call, so the benchmark knows their
    /// order and length but not their exact start: they are laid end to
    /// end from the span's start and clipped to its end.
    pub fn attach_phases(&mut self, phases: &[(&'static str, Duration)]) -> Vec<usize> {
        match self.last_closed {
            Some(parent) => self.attach_phases_under(parent, phases),
            None => Vec::new(),
        }
    }

    /// [`Tracer::attach_phases`] under the span with index `parent`.
    pub fn attach_phases_under(
        &mut self,
        parent: usize,
        phases: &[(&'static str, Duration)],
    ) -> Vec<usize> {
        if !self.on {
            return Vec::new();
        }
        let (mut at, end, request) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.request)
        };
        let mut added = Vec::with_capacity(phases.len());
        for &(name, len) in phases {
            let stop = (at + len).min(end);
            added.push(self.spans.len());
            self.spans.push(Span {
                name,
                request,
                parent: Some(parent),
                start: at,
                end: stop,
            });
            at = stop;
        }
        added
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| self_time((s.start, s.end), kids))
            .collect()
    }

    /// Calls, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total += s.duration();
            e.self_time += own;
        }
        out
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                own.as_secs_f64() * 1e6
            );
        }
        out
    }
}

/// `span`'s length minus the union of `children` clipped to it.
pub fn self_time(span: (Duration, Duration), children: &mut [(Duration, Duration)]) -> Duration {
    let (start, end) = span;
    children.sort();
    let mut covered = Duration::ZERO;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(
            self_time((ms(0), ms(10)), &mut [(ms(1), ms(3)), (ms(5), ms(6))]),
            ms(7)
        );
        // Overlapping children count once.
        assert_eq!(
            self_time((ms(0), ms(10)), &mut [(ms(4), ms(8)), (ms(2), ms(6))]),
            ms(4)
        );
        // A child nested in another child counts once.
        assert_eq!(
            self_time((ms(0), ms(10)), &mut [(ms(1), ms(9)), (ms(2), ms(3))]),
            ms(2)
        );
        // Children are clipped to the parent.
        assert_eq!(
            self_time((ms(2), ms(10)), &mut [(ms(0), ms(4)), (ms(9), ms(12))]),
            ms(5)
        );
        // No children: all self.
        assert_eq!(self_time((ms(3), ms(5)), &mut []), ms(2));
    }

    #[test]
    fn nested_spans_record_parents_requests_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        let v = t.span("request", |t| {
            let a = t.span("a", |_| {
                std::thread::sleep(ms(5));
                1
            });
            std::thread::sleep(ms(5));
            a + t.span("b", |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("request", None));
        assert_eq!((s[1].name, s[1].parent), ("a", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("b", Some(0)));
        assert!(s.iter().all(|s| s.request == 7));
        let own = t.self_times();
        assert_eq!(own[0], s[0].duration() - s[1].duration() - s[2].duration());
        assert!(own[0] >= ms(5));
        let names = t.by_name();
        assert_eq!(names["a"].calls, 1);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn phases_become_children_inside_the_last_span() {
        let mut t = Tracer::new(true);
        t.span("search", |_| std::thread::sleep(ms(10)));
        let added = t.attach_phases(&[("jgs", ms(4)), ("materialize", ms(30))]);
        assert_eq!(added, vec![1, 2]);
        // Grandchildren nest under a phase.
        assert_eq!(t.attach_phases_under(1, &[("jgs.score", ms(1))]), vec![3]);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[3].parent, s[3].start), (Some(1), s[1].start));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].start),
            ("jgs", Some(0), s[0].start)
        );
        assert_eq!(s[1].duration(), ms(4));
        // The second phase starts where the first ended and is clipped.
        assert_eq!(s[2].start, s[1].end);
        assert_eq!(s[2].end, s[0].end);
        let own = t.self_times();
        assert_eq!(own[0], Duration::ZERO);
        assert_eq!(own[1], ms(3));
    }

    #[test]
    fn an_off_tracer_runs_closures_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 5)), 5);
        t.attach_phases(&[("z", ms(1))]);
        assert!(t.spans().is_empty());
    }
}
