//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark, around its calls into each layer:
//! name, start, end, the span that caused them and the operation (round or
//! delta) they belong to. They are kept in memory and written out once, when
//! the run ends. A layer's self time is its span's duration minus what its
//! child spans cover. Spans inside the program are a later change.

use std::time::Instant;
use vmn_serve::json::Value;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Operation id: the round, load or delta the span belongs to.
    pub op: usize,
    pub start_s: f64,
    pub end_s: f64,
    /// Measured in situ (`false`) or in the probe pass and placed under the
    /// span it explains (`true`).
    pub probed: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans against one clock. Open spans form a stack; a span opened
/// while another is open is its child.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Starts a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> usize {
        self.op += 1;
        self.op
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            op: self.op,
            start_s: now,
            end_s: now,
            probed: false,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id].end_s = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Places layer times measured in the probe pass under the span they
    /// explain, back to back from its start, and closes the interval with a
    /// `remainder` span so the children sum to the parent exactly. The
    /// remainder is negative when the probes ran slower than the real call.
    pub fn explain(&mut self, parent: usize, layers: &[(&str, f64)], remainder: &str) -> f64 {
        let (op, mut at, end) =
            (self.spans[parent].op, self.spans[parent].start_s, self.spans[parent].end_s);
        for &(name, seconds) in layers {
            self.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent),
                op,
                start_s: at,
                end_s: at + seconds,
                probed: true,
            });
            at += seconds;
        }
        self.spans.push(Span {
            name: remainder.to_string(),
            parent: Some(parent),
            op,
            start_s: at,
            end_s: end,
            probed: true,
        });
        end - at
    }

    /// Self time per span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    pub fn to_json(&self) -> Value {
        let own = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_s))| {
                Value::obj([
                    ("id", Value::num(id as f64)),
                    ("name", Value::str(s.name.clone())),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::num(p as f64))),
                    ("op", Value::num(s.op as f64)),
                    ("start_s", Value::Num(s.start_s)),
                    ("end_s", Value::Num(s.end_s)),
                    ("self_s", Value::Num(self_s)),
                    ("probed", Value::Bool(s.probed)),
                ])
            })
            .collect();
        Value::obj([("unit", Value::str("s")), ("spans", Value::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut rec = Recorder::new();
        let root = rec.enter("round");
        let new = rec.enter("verifier_new");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(new);
        let sweep = rec.enter("verify_all");
        std::thread::sleep(std::time::Duration::from_millis(3));
        rec.exit(sweep);
        rec.exit(root);
        // Probed layers may overshoot their parent; the remainder absorbs it.
        let call = rec.spans[sweep].duration();
        let rest = rec.explain(sweep, &[("smt.check", call), ("slice.plan", call)], "engine.self");
        assert!(rest < 0.0, "probes longer than the call leave a negative remainder");

        let own = rec.self_times();
        let total: f64 = own.iter().sum();
        let root_span = &rec.spans[root];
        assert!((total - root_span.duration()).abs() < 1e-9, "{total} vs {}", root_span.duration());
        assert!(own[sweep].abs() < 1e-9, "an explained span has no self time left");
        assert_eq!(rec.spans[sweep].parent, Some(root));
        assert!(rec.spans.iter().skip(1).all(|s| s.parent.is_some()));
    }

    #[test]
    fn operations_tag_their_spans() {
        let mut rec = Recorder::new();
        rec.next_op();
        rec.span("load", || ());
        rec.next_op();
        rec.span("delta", || ());
        assert_eq!(rec.spans.iter().map(|s| s.op).collect::<Vec<_>>(), [1, 2]);
        assert!(rec.to_json().to_string().contains("\"self_s\""));
    }
}
