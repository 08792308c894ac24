//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with an optional parent span and an
//! optional task id (the spans of one live task share it). Spans are
//! kept in memory while the run executes and written out as JSON lines
//! when it ends. With recording disabled, `open`/`close` read no clock
//! and store nothing, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Id of "no parent" (span ids start at 1).
pub const ROOT: u32 = 0;
/// Task id of spans that belong to no live task.
pub const NO_TASK: u64 = u64::MAX;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id, assigned at `open` (so children can name a parent that
    /// has not closed yet).
    pub id: u32,
    /// The span that caused this one ([`ROOT`] for none).
    pub parent: u32,
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Live task id, or [`NO_TASK`].
    pub task: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Units of work the span covered (operations, events, lines...).
    pub count: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not closed.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    task: u64,
    start_ns: u64,
}

impl Open {
    /// The id children should name as their parent ([`ROOT`] when the
    /// recorder is disabled).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Records spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (use [`ROOT`] for none).
    pub fn open(&mut self, name: &'static str, parent: u32, task: u64) -> Open {
        if !self.enabled {
            return Open {
                id: ROOT,
                parent,
                name,
                task,
                start_ns: 0,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            task,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`, crediting it with `count` units of work.
    pub fn close(&mut self, open: Open, count: u64) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                task: open.task,
                start_ns: open.start_ns,
                end_ns,
                count,
            });
        }
    }

    /// Records an already-timed interval (e.g. a task's life measured
    /// from its intended arrival); returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        task: u64,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.next_id;
        self.next_id += 1;
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            task,
            start_ns: at(start),
            end_ns: at(end),
            count,
        };
        self.spans.push(span);
        id
    }

    /// Every recorded span, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// that sticks out of its parent is clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Children that start before or end after their parent: `(child id,
/// parent id)` pairs. A well-nested trace has none; the traced run
/// prints any it finds.
pub fn escaping_children(spans: &[Span]) -> Vec<(u32, u32)> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter_map(|s| {
            let parent = by_id.get(&s.parent)?;
            (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns).then_some((s.id, parent.id))
        })
        .collect()
}

/// The spans of each live task, keyed by task id, in recorded order.
pub fn by_task(spans: &[Span]) -> BTreeMap<u64, Vec<Span>> {
    let mut out: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.task != NO_TASK) {
        out.entry(s.task).or_default().push(*s);
    }
    out
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Writes one JSON object per span: `{"id","parent","name","task",
/// "start_ns","end_ns","count"}` (`task` is `null` for [`NO_TASK`]).
pub fn write_jsonl<W: Write>(spans: &[Span], mut w: W) -> io::Result<()> {
    for s in spans {
        let task = if s.task == NO_TASK {
            "null".to_string()
        } else {
            s.task.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"task\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.name, task, s.start_ns, s.end_ns, s.count
        )?;
    }
    w.flush()
}
