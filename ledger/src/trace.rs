//! In-memory spans for the traced run.
//!
//! A span is a layer name, start and end (nanoseconds since the tracer's
//! epoch), the index of the span that caused it, and the candidate or
//! request id it belongs to. Spans stay in memory while the workload
//! runs and are written out once at the end; a span's self time is its
//! duration minus the part of it its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.record_ns(span)
    }

    /// Records a span whose times are already relative to the epoch
    /// (spans timed on another thread).
    pub fn record_ns(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals (children on other threads may overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Sum of self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }

    /// Tab-separated dump: one header line, then one line per span.
    pub fn render(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tid\tself_ns\n");
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{t}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record_ns(Span {
            name: "r",
            start_ns: 0,
            end_ns: 100,
            parent: ROOT,
            id: 0,
        });
        t.record_ns(Span {
            name: "a",
            start_ns: 10,
            end_ns: 40,
            parent: root,
            id: 0,
        });
        t.record_ns(Span {
            name: "b",
            start_ns: 30,
            end_ns: 60,
            parent: root,
            id: 0,
        });
        assert_eq!(t.self_times(), vec![50, 30, 30]);
        assert_eq!(t.self_time_by_name()[0], ("r", 50));
    }
}
