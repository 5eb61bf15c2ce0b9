//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as one Chrome trace (loadable in Perfetto) when
//! the traced run ends.
//!
//! Each client thread owns a [`SpanLog`], so recording takes no lock.
//! A disabled log records nothing and costs one branch per call.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer function, when, who caused it, and the
/// request it served.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary crossed, e.g. `service.submit_spec`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Unique across the run: thread id in the high half, index below.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The benchmark request this span served; spans of one request
    /// share it.
    pub request: u64,
    /// Recording thread.
    pub tid: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle to an open span; `None` when tracing is off.
pub type SpanId = Option<u64>;

/// Per-thread span recorder.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder for thread `tid`; records only when `on`.
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Self {
            on,
            origin,
            tid,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        let id = (u64::from(self.tid) << 32) | self.spans.len() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            id,
            parent,
            request,
            tid: self.tid,
        });
        Some(id)
    }

    /// Closes a span opened by this log.
    pub fn close(&mut self, span: SpanId) {
        if let Some(id) = span {
            let now = self.now_ns();
            let idx = (id & u64::from(u32::MAX)) as usize;
            self.spans[idx].end_ns = now;
        }
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes at most `limit` spans (earliest first) as a Chrome trace
    /// JSON file and reports how many were left out.
    pub fn write_chrome(&self, path: &Path, limit: usize) -> io::Result<usize> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.start_ns);
        let kept = spans.len().min(limit);
        let mut out = String::with_capacity(kept * 160 + 128);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in spans[..kept].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.request
            )
            .expect("writing to a String cannot fail");
        }
        write!(
            out,
            "\n],\"otherData\":{{\"spans\":{},\"dropped\":{}}}}}\n",
            spans.len(),
            spans.len() - kept
        )
        .expect("writing to a String cannot fail");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()?;
        Ok(spans.len() - kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 1);
        let s = log.open("op", None, 7);
        log.close(s);
        assert_eq!(s, None);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn children_name_their_parent_and_request() {
        let mut log = SpanLog::new(true, Instant::now(), 3);
        let op = log.open("op", None, 9);
        let child = log.open("service.wait", op, 9);
        log.close(child);
        log.close(op);
        assert_eq!(log.len(), 2);
        let spans = &log.spans;
        assert_eq!(spans[1].parent, op);
        assert_eq!(spans[1].request, 9);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(log.durations_ms("service.wait").len(), 1);
    }
}
