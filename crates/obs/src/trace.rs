//! Chrome trace-event JSON export.
//!
//! Emits the trace-event format `chrome://tracing` (and Perfetto's
//! legacy loader) understands: one complete event (`"ph": "X"`) per
//! span, timestamps in microseconds — which is exactly the simulated
//! clock's unit, so the rendered timeline *is* the chip's serial
//! schedule. Each track (a shard's chip, or the pool's commit lane)
//! becomes a process and each lane a thread: one lane per chip, where a
//! GC or recovery span stacks above the commands it encloses.

use crate::json::escape;
use crate::span::Span;

/// One process row of the exported trace.
#[derive(Clone, Debug)]
pub struct TraceTrack {
    /// Process name shown in the viewer (e.g. `"shard0"`).
    pub name: String,
    /// Spans, any order (the viewer sorts by timestamp).
    pub spans: Vec<Span>,
    /// Spans the source ring overwrote before export.
    pub dropped_spans: u64,
}

/// Render tracks as Chrome trace-event JSON. Deterministic: output
/// bytes depend only on the input tracks.
pub fn chrome_trace(tracks: &[TraceTrack]) -> String {
    let mut s =
        String::with_capacity(1024 + tracks.iter().map(|t| t.spans.len() * 96).sum::<usize>());
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &mut String, ev: String| {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&ev);
    };
    for (pid, track) in tracks.iter().enumerate() {
        push(
            &mut s,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&track.name)
            ),
        );
        let mut lanes: Vec<u32> = track.spans.iter().map(|sp| sp.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            push(
                &mut s,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{lane},\
                     \"args\":{{\"name\":\"lane {lane}\"}}}}"
                ),
            );
        }
        for sp in &track.spans {
            push(
                &mut s,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{},\"args\":{{\"block\":{},\"id\":{}}}}}",
                    escape(sp.name),
                    escape(sp.ctx),
                    sp.start_us,
                    sp.dur_us,
                    sp.lane,
                    sp.block,
                    sp.id
                ),
            );
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sp(name: &'static str, lane: u32, start: u64, dur: u64) -> Span {
        Span { name, ctx: "user", lane, start_us: start, dur_us: dur, block: 1, id: 2 }
    }

    #[test]
    fn export_is_valid_and_deterministic() {
        let tracks = vec![TraceTrack {
            name: "shard0".into(),
            spans: vec![sp("program", 0, 0, 1010), sp("program", 1, 0, 1010)],
            dropped_spans: 0,
        }];
        let a = chrome_trace(&tracks);
        let b = chrome_trace(&tracks);
        assert_eq!(a, b);
        let v = json::parse(&a).expect("valid JSON");
        json::validate_trace(&v).expect("valid trace shape");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"shard0\""));
    }
}
