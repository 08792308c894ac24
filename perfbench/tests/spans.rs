//! The span recorder's analysis: self time, escaping children, and
//! grouping by task id.

use brb_perfbench::spans::{
    by_task, escaping_children, self_times, write_jsonl, Recorder, Span, NO_TASK, ROOT,
};

fn span(id: u32, parent: u32, task: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "test",
        task,
        start_ns,
        end_ns,
        count: 1,
    }
}

#[test]
fn self_time_subtracts_nested_children_level_by_level() {
    let spans = [
        span(3, 2, NO_TASK, 20, 30),
        span(2, 1, NO_TASK, 10, 40),
        span(1, ROOT, NO_TASK, 0, 100),
    ];
    let selfs = self_times(&spans);
    assert_eq!(
        selfs[&1], 70,
        "parent loses only its direct child's interval"
    );
    assert_eq!(selfs[&2], 20);
    assert_eq!(selfs[&3], 10);
}

#[test]
fn self_time_with_back_to_back_and_overlapping_children() {
    let back_to_back = [
        span(1, ROOT, NO_TASK, 0, 100),
        span(2, 1, NO_TASK, 10, 40),
        span(3, 1, NO_TASK, 40, 70),
    ];
    assert_eq!(self_times(&back_to_back)[&1], 40);
    // Overlapping children cover their union once.
    let overlapping = [
        span(1, ROOT, NO_TASK, 0, 100),
        span(2, 1, NO_TASK, 10, 50),
        span(3, 1, NO_TASK, 30, 60),
    ];
    assert_eq!(self_times(&overlapping)[&1], 50);
}

#[test]
fn child_outliving_its_parent_is_reported_and_clipped() {
    let spans = [
        span(1, ROOT, NO_TASK, 0, 50),
        span(2, 1, NO_TASK, 40, 80),
        span(3, 1, NO_TASK, 10, 20),
    ];
    assert_eq!(escaping_children(&spans), vec![(2, 1)]);
    // Only the part inside the parent counts against its self time.
    assert_eq!(self_times(&spans)[&1], 50 - 10 - 10);
}

#[test]
fn spans_group_by_task_id() {
    let spans = [
        span(1, ROOT, 7, 0, 10),
        span(2, 1, 7, 1, 2),
        span(3, ROOT, 9, 5, 15),
        span(4, ROOT, NO_TASK, 0, 20),
        span(5, 3, 9, 6, 7),
        span(6, 1, 7, 3, 4),
    ];
    let groups = by_task(&spans);
    assert_eq!(groups.keys().copied().collect::<Vec<_>>(), vec![7, 9]);
    assert_eq!(
        groups[&7].iter().map(|s| s.id).collect::<Vec<_>>(),
        vec![1, 2, 6]
    );
    assert_eq!(
        groups[&9].iter().map(|s| s.id).collect::<Vec<_>>(),
        vec![3, 5]
    );
}

#[test]
fn recorder_nests_open_spans_and_is_inert_when_disabled() {
    let mut rec = Recorder::new(true);
    let outer = rec.open("outer", ROOT, NO_TASK);
    let inner = rec.open("inner", outer.id(), 3);
    rec.close(inner, 2);
    rec.close(outer, 1);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].name, "inner");
    assert_eq!(spans[0].parent, spans[1].id);
    assert_eq!(spans[0].task, 3);
    assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    assert!(escaping_children(spans).is_empty());

    let mut off = Recorder::new(false);
    let s = off.open("ignored", ROOT, NO_TASK);
    assert_eq!(s.id(), ROOT);
    off.close(s, 1);
    assert!(off.spans().is_empty());
}

#[test]
fn trace_file_is_one_json_object_per_span() {
    let spans = [span(1, ROOT, NO_TASK, 5, 9), span(2, 1, 42, 6, 8)];
    let mut buf = Vec::new();
    write_jsonl(&spans, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        vec![
            r#"{"id":1,"parent":0,"name":"test","task":null,"start_ns":5,"end_ns":9,"count":1}"#,
            r#"{"id":2,"parent":1,"name":"test","task":42,"start_ns":6,"end_ns":8,"count":1}"#,
        ]
    );
}
