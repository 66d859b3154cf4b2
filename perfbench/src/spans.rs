//! Spans the benchmark records around its own calls into each layer:
//! set-up, solve, verify, and every layer microbench. Kept in memory and
//! written out once, when the run ends. Spans inside the program itself
//! are not recorded here.

use std::collections::BTreeMap;
use std::time::Instant;

use ssp_runtime::JsonValue;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A run's span recorder. Disabled, every call is a no-op, so the
/// untraced run pays nothing for it.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Spans::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Every span as JSON: id, name, start/end (ns since the run began),
    /// parent id, and self time (duration minus the part its children
    /// cover).
    pub fn to_json(&self, run_id: &str) -> JsonValue {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let num = |x: u64| JsonValue::Num(x as f64);
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut m = BTreeMap::new();
                m.insert("id".to_string(), num(i as u64));
                m.insert("run".to_string(), JsonValue::Str(run_id.to_string()));
                m.insert("name".to_string(), JsonValue::Str(s.name.clone()));
                m.insert("start_ns".to_string(), num(s.start_ns));
                m.insert("end_ns".to_string(), num(s.end_ns));
                m.insert(
                    "parent".to_string(),
                    s.parent.map_or(JsonValue::Null, |p| num(p as u64)),
                );
                let dur = s.end_ns - s.start_ns;
                m.insert("self_ns".to_string(), num(dur.saturating_sub(child_ns[i])));
                JsonValue::Obj(m)
            })
            .collect();
        JsonValue::Arr(rows)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut s = Spans::new(true);
        s.span("outer", |s| {
            s.span("inner", |_| std::hint::black_box(1 + 1))
        });
        assert_eq!(s.len(), 2);
        let json = s.to_json("r").to_json();
        assert!(json.contains("\"parent\":0"), "{json}");
        let mut off = Spans::new(false);
        off.span("x", |_| ());
        assert_eq!(off.len(), 0);
    }
}
