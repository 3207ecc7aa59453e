//! In-memory spans for the traced run: one per call the benchmark makes
//! into a layer, kept until the run ends and then written out as Chrome
//! `trace_event` JSON (open in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
    args: Vec<(String, String)>,
}

/// A span tree under one root opened at construction.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    /// Start recording; opens the root span `root`.
    pub fn new(root: &str) -> Spans {
        let mut s = Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        s.enter(root);
        s
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = Some(self.now_ns());
    }

    /// Attach a key/value to a span.
    pub fn arg(&mut self, id: SpanId, key: &str, value: impl ToString) {
        self.spans[id.0]
            .args
            .push((key.to_owned(), value.to_string()));
    }

    fn duration(&self, ix: usize) -> u64 {
        let s = &self.spans[ix];
        s.end_ns.unwrap_or(s.start_ns) - s.start_ns
    }

    /// A span's duration minus the part of it its children cover.
    fn self_ns(&self, ix: usize) -> u64 {
        let children: u64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(ix))
            .map(|c| self.duration(c))
            .sum();
        self.duration(ix).saturating_sub(children)
    }

    /// Close every open span (the root last) and render the tree as
    /// Chrome `trace_event` JSON; each event carries its id, parent and
    /// self time.
    pub fn finish(mut self) -> String {
        while let Some(&ix) = self.open.last() {
            self.exit(SpanId(ix));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for ix in 0..self.spans.len() {
            let s = &self.spans[ix];
            let _ = write!(
                out,
                "{}{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{ix},\"parent\":{},\"self_us\":{:.3}",
                if ix == 0 { "" } else { ",\n" },
                quote(&s.name),
                s.start_ns as f64 / 1e3,
                self.duration(ix) as f64 / 1e3,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                self.self_ns(ix) as f64 / 1e3,
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",{}:{}", quote(k), quote(v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_renders_self_time() {
        let mut s = Spans::new("root");
        let a = s.enter("a");
        let b = s.enter("b \"quoted\"");
        s.arg(b, "k", 7);
        s.exit(b);
        s.exit(a);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(1));
        assert!(s.self_ns(1) <= s.duration(1));
        let json = s.finish();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"b \\\"quoted\\\"\""));
        assert!(json.contains("\"k\":\"7\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
