//! The benchmark's own in-memory span recorder. Spans wrap calls into a
//! layer's public functions from outside; nothing inside the program is
//! instrumented. A span's name starts with its layer (`core.exec`), and
//! all spans of one frame, request or step share an operation id.

use mtsr_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// The frame, request or step this span belongs to.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// Records nested spans on one thread; several recorders sharing an
/// origin can be merged with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`; the span's
    /// parent is the innermost span open on this recorder.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (another thread's clock reads)
    /// under `parent`, and returns its index.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        self.spans.len() - 1
    }

    /// Appends another recorder's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (ns) and span count per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = out.entry(span.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        out
    }

    /// The trace as JSON: one object per span plus the per-name self-time
    /// table, for `benchmark/out/trace.<workload>.json`.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), num(s.op)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(p as u64)),
                    ),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                ])
            })
            .collect();
        let table = self
            .self_ns_by_name()
            .into_iter()
            .map(|(name, (self_ns, count))| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("self_ns".into(), num(self_ns)),
                        ("count".into(), num(count)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("self_time_by_name".into(), Json::Obj(table)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("a.root", None, 0, 100),
            span("b.kid", Some(0), 10, 30),
            // Overlaps the first child: only 30..50 is new cover.
            span("b.kid", Some(0), 20, 50),
            // Sticks out of the parent: clipped to 90..100.
            span("c.late", Some(0), 90, 130),
            span("d.leaf", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 40, 6]);
    }

    #[test]
    fn scopes_nest_and_merge() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.scope("x.outer", 7, |r| {
            r.scope("y.inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let mut b = Recorder::new(origin);
        b.scope("x.outer", 8, |r| r.scope("y.inner", 8, |_| ()));
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[3].parent), (Some(0), Some(2)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let by_name = a.self_ns_by_name();
        assert_eq!(by_name["x.outer"].1, 2);
        // Self times partition the root spans' durations.
        let total: u64 = by_name.values().map(|v| v.0).sum();
        let roots: u64 = s
            .iter()
            .filter(|x| x.parent.is_none())
            .map(|x| x.end_ns - x.start_ns)
            .sum();
        assert_eq!(total, roots);
    }

    #[test]
    fn trace_json_round_trips() {
        let mut r = Recorder::new(Instant::now());
        r.scope("core.exec", 3, |_| ());
        let text = r.to_json().pretty();
        let back = Json::parse(&text).expect("valid JSON");
        let spans = back.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(
            spans[0].get("name").and_then(Json::as_str),
            Some("core.exec")
        );
        assert_eq!(spans[0].get("op").and_then(Json::as_u64), Some(3));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
