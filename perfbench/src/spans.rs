//! The benchmark's own span log, kept in memory and written out when the
//! run ends.
//!
//! The log is separate from `vmin-trace`: the program's spans land in
//! `vmin-trace` collectors, while these spans bracket the benchmark's calls
//! into the program ([`Kind::Call`]) and its own work ([`Kind::Own`]), so a
//! request's wall time splits into program time and benchmark time.

use std::fmt::Write as _;
use vmin_trace::clock::{self, Tick};

/// What a span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call into a public function of the program.
    Call,
    /// Work the benchmark does itself (phases, output checks).
    Own,
}

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the span brackets, e.g. `vmin_core::fleet_screen`.
    pub name: &'static str,
    /// Call or own work.
    pub kind: Kind,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id the span belongs to; `None` during setup.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. A log created with [`SpanLog::off`] records
/// nothing and reads the clock only once, when it is created.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Tick,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
}

impl SpanLog {
    /// A recording log whose epoch is now.
    pub fn on() -> Self {
        SpanLog {
            epoch: clock::now(),
            recording: true,
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    /// A log that records nothing.
    pub fn off() -> Self {
        SpanLog {
            recording: false,
            ..SpanLog::on()
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attributes the spans opened from now on to request `id`.
    pub fn set_request(&mut self, id: Option<u64>) {
        self.request = id;
    }

    /// Opens a span and returns its index (`usize::MAX` when not
    /// recording).
    pub fn open(&mut self, name: &'static str, kind: Kind) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        let start_ns = self.epoch.elapsed_ns();
        self.spans.push(Span {
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        if !self.recording {
            return;
        }
        let now = self.epoch.elapsed_ns();
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a [`Kind::Call`] span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Kind::Call);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a [`Kind::Own`] span named `name`.
    pub fn own<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Kind::Own);
        let out = f();
        self.close(id);
        out
    }

    /// Total time of the outermost call spans inside span `root`.
    pub fn call_ns_in(&self, root: usize) -> u64 {
        self.spans
            .iter()
            .enumerate()
            .skip(root.saturating_add(1))
            .filter(|(_, s)| s.kind == Kind::Call && self.outermost_call_in(s, root))
            .map(|(_, s)| s.ns())
            .sum()
    }

    /// Whether `root` encloses `span` with no call span in between.
    fn outermost_call_in(&self, span: &Span, root: usize) -> bool {
        let mut parent = span.parent;
        while let Some(p) = parent {
            if p == root {
                return true;
            }
            match self.spans.get(p) {
                Some(s) if s.kind == Kind::Own => parent = s.parent,
                _ => return false,
            }
        }
        false
    }

    /// Duration of span `id` (0 when it does not exist).
    pub fn ns(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, Span::ns)
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kind = match s.kind {
                Kind::Call => "call",
                Kind::Own => "own",
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            // Writing into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"kind\": \"{kind}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_sums_direct_calls() {
        let mut log = SpanLog::on();
        log.set_request(Some(7));
        let root = log.open("request", Kind::Own);
        log.call("a", || std::hint::black_box(1));
        let own = log.open("assemble", Kind::Own);
        log.call("b", log_free_work);
        log.close(own);
        log.own("check", || ());
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[3].parent, Some(own));
        assert!(spans.iter().all(|s| s.request == Some(7)));
        // Calls nested under the benchmark's own spans still count.
        let calls = spans[1].ns() + spans[3].ns();
        assert_eq!(log.call_ns_in(root), calls);
        assert_eq!(log.call_ns_in(own), spans[3].ns());
        assert!(log.ns(root) >= calls);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("\"name\": \"check\", \"kind\": \"own\""));
    }

    fn log_free_work() -> u64 {
        (0..1000u64).map(std::hint::black_box).sum()
    }

    #[test]
    fn an_off_log_records_nothing() {
        let mut log = SpanLog::off();
        let root = log.open("request", Kind::Own);
        assert_eq!(log.call("a", || 5), 5);
        log.close(root);
        assert!(log.spans().is_empty());
        assert_eq!(log.ns(root), 0);
    }
}
