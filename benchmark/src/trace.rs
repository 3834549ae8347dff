//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around calls into each
//! layer's public API; nothing inside the simulator is instrumented. They
//! are pushed to an in-memory `Vec` and written once, when the run ends, as
//! Chrome-trace JSON. The recorder is thread-local because every workload
//! runs on one thread and the application wrappers that record spans from
//! inside `Network::run_*` cannot be handed a `&mut` recorder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span, `cell` of a span that belongs to no cell.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// The campaign cell (scenario, flow slice, download…) it belongs to:
    /// the identifier all spans of one unit of work share.
    pub cell: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            origin: Some(Instant::now()),
            ..Recorder::default()
        };
    });
}

/// Stops recording and hands back every span, in the order they began.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let recorder = std::mem::take(&mut *r.borrow_mut());
        assert!(
            recorder.open.is_empty(),
            "trace finished with {} spans open",
            recorder.open.len()
        );
        recorder.spans
    })
}

/// Handle of a span that has begun; give it back to [`end`].
#[must_use]
pub struct Open(u32);

/// Begins a span. Does nothing (and costs one thread-local read) while
/// recording is off, so shared code paths may call it unconditionally.
pub fn begin(name: &'static str, cell: u32) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(origin) = r.origin else {
            return Open(NONE);
        };
        let index = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NONE);
        let start_ns = origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        r.open.push(index);
        Open(index)
    })
}

/// Ends the innermost open span, which must be `open`.
pub fn end(open: Open) {
    if open.0 == NONE {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let origin = r.origin.expect("a span is open, so recording is on");
        assert_eq!(r.open.pop(), Some(open.0), "spans must end innermost first");
        r.spans[open.0 as usize].end_ns = origin.elapsed().as_nanos() as u64;
    });
}

/// Records `f` as one span.
pub fn span<R>(name: &'static str, cell: u32, f: impl FnOnce() -> R) -> R {
    let open = begin(name, cell);
    let result = f();
    end(open);
    result
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NONE {
            covered[span.parent as usize] += span.duration_ns();
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *by_name.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    by_name
}

/// Durations of every span called `name`, in microseconds, sorted.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut out: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Spans a trace file keeps at most. A 100k-cell sweep records 300k spans;
/// the file is for looking at, the numbers come from the full `Vec`.
pub const FILE_SPAN_LIMIT: usize = 200_000;

fn json_id(id: u32) -> i64 {
    if id == NONE {
        -1
    } else {
        i64::from(id)
    }
}

/// Writes the first [`FILE_SPAN_LIMIT`] spans as Chrome-trace JSON
/// (`chrome://tracing`, Perfetto). A missing parent or cell is `-1`.
pub fn write_chrome_trace(mut w: impl Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    let kept = spans.len().min(FILE_SPAN_LIMIT);
    write!(
        w,
        "{{\"otherData\":{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{kept}}},\"traceEvents\":[",
        spans.len()
    )?;
    for (index, span) in spans[..kept].iter().enumerate() {
        if index > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{index},\"parent\":{},\"cell\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            json_id(span.parent),
            json_id(span.cell),
        )?;
    }
    w.write_all(b"\n]}\n")
}

/// Writes the trace to `path`, creating its directory.
pub fn save_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_chrome_trace(&mut w, workload, spans)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // cell [0,100] ⊃ fork [10,30], probe [30,90] ⊃ run [40,80]
        let spans = vec![
            s("cell", 0, 100, NONE),
            s("fork", 10, 30, 0),
            s("probe", 30, 90, 0),
            s("run", 40, 80, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own["cell"], 100 - 20 - 60);
        assert_eq!(own["fork"], 20);
        assert_eq!(own["probe"], 60 - 40);
        assert_eq!(own["run"], 40);
        // Self times partition the root: they sum to its duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![s("cell", 0, 10, NONE), s("cell", 10, 25, NONE)];
        assert_eq!(self_times(&spans)["cell"], 25);
        assert_eq!(durations_us(&spans, "cell"), vec![0.010, 0.015]);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        // Off: nothing is recorded and `end` accepts the dummy handle.
        let open = begin("ignored", 1);
        end(open);
        start();
        span("outer", 7, || {
            span("inner", 7, || std::hint::black_box(1 + 1));
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].cell),
            ("outer", NONE, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(finish().is_empty(), "finish must switch recording off");
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let spans = vec![s("cell", 0, 2_000, NONE), s("fork", 500, 1_500, 0)];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, "test", &spans).expect("writing to memory");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.contains("\"spans_recorded\":2"));
        assert!(text.contains(
            "\"name\":\"fork\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.500,\"dur\":1.000"
        ));
        assert!(
            text.contains("\"parent\":-1"),
            "a root span's parent is written as -1"
        );
        assert_eq!(text.matches("\"ph\"").count(), 2);
    }
}
