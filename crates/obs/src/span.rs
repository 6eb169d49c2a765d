//! Completed spans on the simulated clock, kept in a bounded ring.
//!
//! A span is recorded at *completion* time (the emulator schedules a
//! command's start and end on the simulated clock in one step, so there
//! is no open-span state to carry). The ring keeps the most recent
//! `capacity` spans and counts what it overwrote — a long run degrades
//! to "the tail of the timeline" instead of unbounded memory.

/// One completed span in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operation kind: `"read"`, `"program"`, `"erase"`, `"gc"`,
    /// `"recovery"` (PDL's phases: `"recovery_read"`, `"recovery_replay"`,
    /// `"recovery_finish"`), `"repair"`, `"commit"`.
    pub name: &'static str,
    /// Attribution context: `"user"`, `"gc"`, `"recovery"`, or the
    /// commit discipline (`"solo"` / `"group"`).
    pub ctx: &'static str,
    /// Execution lane; becomes the trace `tid`. A chip's commands and
    /// its maintenance spans (GC, recovery, repair) share lane 0 — the
    /// maintenance span encloses the commands it charged.
    pub lane: u32,
    /// Start on the simulated clock (µs).
    pub start_us: u64,
    /// Duration on the simulated clock (µs).
    pub dur_us: u64,
    /// Physical block (0 when not applicable).
    pub block: u64,
    /// Page number, txn id, or phase index — whatever identifies the
    /// operation within its kind.
    pub id: u64,
}

/// Bounded ring buffer of [`Span`]s (most recent `capacity` retained).
#[derive(Clone, Debug, Default)]
pub struct SpanRing {
    buf: Vec<Span>,
    cap: usize,
    /// Oldest element once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing { buf: Vec::new(), cap: capacity.max(1), head: 0, dropped: 0 }
    }

    pub fn push(&mut self, span: Span) {
        if self.buf.len() < self.cap {
            self.buf.push(span);
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans, oldest first.
    pub fn to_vec(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> Span {
        Span { name: "read", ctx: "user", lane: 0, start_us: id, dur_us: 1, block: 0, id }
    }

    #[test]
    fn ring_keeps_the_most_recent_in_order() {
        let mut r = SpanRing::new(3);
        for id in 0..5 {
            r.push(span(id));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ids: Vec<u64> = r.to_vec().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = SpanRing::new(2);
        r.push(span(1));
        r.push(span(2));
        r.push(span(3));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.push(span(9));
        assert_eq!(r.to_vec()[0].id, 9);
    }
}
