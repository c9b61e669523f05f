//! Subscriber-side delivery buffer.
//!
//! Every TOB server independently notifies every subscriber, which is what
//! makes a server crash transparent ("the protocol proceeds normally with
//! no interruptions as long as at least one replica survives", Sec. III-B)
//! — but it also means a subscriber receives up to `n_servers` copies of
//! each delivery, possibly interleaved across servers. [`InOrderBuffer`]
//! restores the service's contract at the subscriber: each message exactly
//! once, in global sequence order.

use crate::Delivery;
use std::collections::BTreeMap;

/// Deduplicates and reorders deliveries into the gapless global sequence.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct InOrderBuffer {
    next: i64,
    buffered: BTreeMap<i64, Delivery>,
}

impl InOrderBuffer {
    /// Creates an empty buffer expecting sequence number 0 first.
    pub fn new() -> InOrderBuffer {
        InOrderBuffer::default()
    }

    /// Creates a buffer that starts at `seq` (everything below is treated
    /// as already consumed — e.g. covered by a state-transfer snapshot).
    pub fn starting_at(seq: i64) -> InOrderBuffer {
        InOrderBuffer {
            next: seq,
            buffered: BTreeMap::new(),
        }
    }

    /// Consumes the buffer, returning the out-of-order deliveries it was
    /// still holding.
    pub fn into_pending(self) -> Vec<Delivery> {
        self.buffered.into_values().collect()
    }

    /// The next sequence number the buffer will release.
    pub fn next_seq(&self) -> i64 {
        self.next
    }

    /// The lowest sequence number held behind a gap, if any: a delivery
    /// received while an earlier one is still missing.
    pub fn first_held(&self) -> Option<i64> {
        self.buffered.keys().next().copied()
    }

    /// Keeps one received delivery without releasing anything: for a
    /// subscriber that does not know yet where its stream starts (see
    /// [`InOrderBuffer::starting_at`] and [`InOrderBuffer::into_pending`]).
    pub fn hold(&mut self, d: Delivery) {
        self.buffered.entry(d.seq).or_insert(d);
    }

    /// Offers one received delivery; returns the (possibly empty) run of
    /// deliveries now ready, in sequence order, each exactly once.
    pub fn offer(&mut self, d: Delivery) -> Vec<Delivery> {
        if d.seq < self.next || self.buffered.contains_key(&d.seq) {
            return Vec::new(); // duplicate from another server
        }
        self.buffered.insert(d.seq, d);
        let mut ready = Vec::new();
        while let Some(d) = self.buffered.remove(&self.next) {
            ready.push(d);
            self.next += 1;
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_eventml::Value;
    use shadowdb_loe::Loc;

    fn d(seq: i64) -> Delivery {
        Delivery {
            seq,
            client: Loc::new(1),
            msgid: seq,
            payload: Value::Unit,
        }
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut b = InOrderBuffer::new();
        assert_eq!(b.offer(d(0)).len(), 1);
        assert_eq!(b.offer(d(1)).len(), 1);
        assert_eq!(b.next_seq(), 2);
    }

    #[test]
    fn duplicates_suppressed() {
        let mut b = InOrderBuffer::new();
        assert_eq!(b.offer(d(0)).len(), 1);
        assert!(b.offer(d(0)).is_empty());
        // Duplicate of a still-buffered item too.
        assert!(b.offer(d(2)).is_empty());
        assert!(b.offer(d(2)).is_empty());
        let run = b.offer(d(1));
        assert_eq!(run.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn reorders_gaps() {
        let mut b = InOrderBuffer::new();
        assert!(b.offer(d(2)).is_empty());
        assert!(b.offer(d(1)).is_empty());
        let run = b.offer(d(0));
        assert_eq!(run.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
