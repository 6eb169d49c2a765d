//! Spans recorded from outside the library: the benchmark times each call
//! it makes into a layer's public functions. Spans of one op share its
//! `op_id`; a span's parent is the span that was open when it began.
//!
//! Every span is aggregated by name (count, total, self time, flash cost,
//! and its duration for percentiles); only the last [`RING_SPANS`] are kept
//! whole, for the Chrome trace written at exit.

use pdl_flash::FlashStats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept in memory for the Chrome trace (per run, across threads).
pub const RING_SPANS: usize = 200_000;

const NO_PARENT: u64 = u64::MAX;

/// Simulated flash work attributed to one span (a `stats()` delta).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashCost {
    pub total_us: u64,
    pub gc_us: u64,
    pub reads: u64,
}

impl FlashCost {
    pub fn between(before: &FlashStats, after: &FlashStats) -> FlashCost {
        let d = after.delta_since(before);
        let total = d.total();
        FlashCost { total_us: total.total_us(), gc_us: d.gc.total_us(), reads: total.reads }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span, [`NO_PARENT`] for an op's root span.
    pub parent: u64,
    pub op_id: u64,
    pub id: u64,
    pub tid: u32,
}

/// Everything known about the spans of one name.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub flash: FlashCost,
    /// One duration per span, for percentiles (ns, saturating at ~4.29 s).
    pub durations: Vec<u32>,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    id: u64,
    op_id: u64,
}

pub struct Tracer {
    enabled: bool,
    tid: u32,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    ring: Vec<Span>,
    ring_at: usize,
}

impl Tracer {
    /// `epoch` is shared by the tracers of one run so their spans line up.
    /// A disabled tracer records nothing: every call is one branch.
    pub fn new(enabled: bool, tid: u32, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            tid,
            epoch,
            next_id: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            ring: Vec::new(),
            ring_at: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64) {
        if self.enabled {
            let now = self.now_ns();
            self.begin_at(name, op_id, now);
        }
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if self.enabled {
            let now = self.now_ns();
            self.end_at(now);
        }
    }

    /// Attribute simulated flash work to the spans named `name`.
    pub fn charge(&mut self, name: &'static str, cost: FlashCost) {
        if self.enabled {
            let f = &mut self.aggs.entry(name).or_default().flash;
            f.total_us += cost.total_us;
            f.gc_us += cost.gc_us;
            f.reads += cost.reads;
        }
    }

    fn begin_at(&mut self, name: &'static str, op_id: u64, now_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open { name, start_ns: now_ns, child_ns: 0, id, op_id });
    }

    fn end_at(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("end() without a matching begin()");
        let dur = now_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.durations.push(dur.min(u32::MAX as u64) as u32);
        let span = Span {
            name: open.name,
            start_ns: open.start_ns,
            end_ns: now_ns,
            parent,
            op_id: open.op_id,
            id: open.id,
            tid: self.tid,
        };
        if self.ring.len() < RING_SPANS {
            self.ring.push(span);
        } else {
            self.ring[self.ring_at] = span;
        }
        self.ring_at = (self.ring_at + 1) % RING_SPANS;
    }

    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.get(name)
    }

    pub fn agg_mut(&mut self, name: &str) -> Option<&mut Agg> {
        self.aggs.get_mut(name)
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, o) in other.aggs {
            let a = self.aggs.entry(name).or_default();
            a.count += o.count;
            a.total_ns += o.total_ns;
            a.self_ns += o.self_ns;
            a.flash.total_us += o.flash.total_us;
            a.flash.gc_us += o.flash.gc_us;
            a.flash.reads += o.flash.reads;
            a.durations.extend(o.durations);
        }
        self.ring.extend(other.ring);
    }

    /// The retained spans, oldest first, trimmed to the newest
    /// [`RING_SPANS`] of the whole run.
    fn retained(&self) -> Vec<&Span> {
        let mut spans: Vec<&Span> = self.ring.iter().collect();
        spans.sort_by_key(|s| (s.end_ns, s.tid, s.id));
        let skip = spans.len().saturating_sub(RING_SPANS);
        spans.split_off(skip)
    }

    /// Write the retained spans as Chrome trace-event JSON (open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Returns the count.
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> std::io::Result<usize> {
        let spans = self.retained();
        out.write_all(b"{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"op_id\": {}, \"id\": {}, \"parent\": {}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id,
                s.id,
                parent,
            )?;
        }
        out.write_all(b"]}\n")?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn tracer() -> Tracer {
        Tracer::new(true, 3, Instant::now())
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = tracer();
        // op [100, 1000] > read [150, 400] and write [500, 900] > gc [600, 700]
        t.begin_at("op", 7, 100);
        t.begin_at("read", 7, 150);
        t.end_at(400);
        t.begin_at("write", 7, 500);
        t.begin_at("gc", 7, 600);
        t.end_at(700);
        t.end_at(900);
        t.end_at(1000);
        let (op, read, write, gc) = (
            t.agg("op").unwrap(),
            t.agg("read").unwrap(),
            t.agg("write").unwrap(),
            t.agg("gc").unwrap(),
        );
        assert_eq!((op.total_ns, op.self_ns), (900, 900 - 250 - 400));
        assert_eq!((read.total_ns, read.self_ns), (250, 250));
        assert_eq!((write.total_ns, write.self_ns), (400, 300), "gc is write's child, not op's");
        assert_eq!((gc.total_ns, gc.self_ns), (100, 100));
        // Self times partition the root span.
        assert_eq!(op.self_ns + read.self_ns + write.self_ns + gc.self_ns, op.total_ns);
        // Parent links and the shared op id.
        let by_name = |n: &str| t.ring.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("op").parent, NO_PARENT);
        assert_eq!(by_name("read").parent, by_name("op").id);
        assert_eq!(by_name("gc").parent, by_name("write").id);
        assert!(t.ring.iter().all(|s| s.op_id == 7 && s.tid == 3));
    }

    #[test]
    fn aggregates_cover_every_span_but_the_ring_keeps_the_newest() {
        let mut t = tracer();
        let n = RING_SPANS as u64 + 10;
        for i in 0..n {
            t.begin_at("op", i, i * 10);
            t.end_at(i * 10 + 4);
        }
        assert_eq!(t.agg("op").unwrap().count, n);
        assert_eq!(t.agg("op").unwrap().durations.len() as u64, n);
        let kept = t.retained();
        assert_eq!(kept.len(), RING_SPANS);
        assert_eq!(kept.first().unwrap().op_id, 10, "the oldest ten fell out");
        assert_eq!(kept.last().unwrap().op_id, n - 1);
    }

    #[test]
    fn merged_tracers_and_flash_charges_add_up() {
        let mut a = tracer();
        a.begin_at("commit", 0, 0);
        a.end_at(10);
        a.charge("commit", FlashCost { total_us: 1010, gc_us: 0, reads: 1 });
        let mut b = Tracer::new(true, 4, Instant::now());
        b.begin_at("commit", 1, 5);
        b.end_at(25);
        b.charge("commit", FlashCost { total_us: 2500, gc_us: 1500, reads: 2 });
        a.merge(b);
        let c = a.agg("commit").unwrap();
        assert_eq!((c.count, c.total_ns), (2, 30));
        assert_eq!(c.flash, FlashCost { total_us: 3510, gc_us: 1500, reads: 3 });
        assert_eq!(a.retained().len(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        t.begin("op", 0);
        t.charge("op", FlashCost { total_us: 1, gc_us: 0, reads: 0 });
        t.end();
        assert!(t.agg("op").is_none());
        assert!(t.retained().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = tracer();
        t.begin_at("op", 1, 1_000);
        t.begin_at("core.read_page", 1, 1_200);
        t.end_at(1_700);
        t.end_at(2_000);
        let mut buf = Vec::new();
        assert_eq!(t.write_chrome_trace(&mut buf).unwrap(), 2);
        let doc = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[0];
        assert_eq!(child.get("name").and_then(Json::as_str), Some("core.read_page"));
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(child.get("ts").and_then(Json::as_f64), Some(1.2));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(0.5));
        let root = &events[1];
        assert_eq!(root.get("args").and_then(|a| a.get("parent")), Some(&Json::Null));
    }
}
