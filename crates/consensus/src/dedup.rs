//! Sliding-window duplicate detection over one source's ids.
//!
//! The one `(floor, gap-set)` detector of the workspace: the broadcast
//! service keeps one per client (enqueue and delivery), the Synod replica
//! one per command origin.

use shadowdb_eventml::Value;

/// Ids further than this behind a source's newest are assumed seen.
/// A stop-and-wait client never has two msgids in flight, a replica
/// pipelining lease forwards reorders only within the network's jitter —
/// a handful of messages — and a broadcast server has at most its window
/// (8 by default) of batches undecided, so 64 is far beyond any real
/// reorder depth.
pub const DEDUP_WINDOW: usize = 64;

/// The ids seen from one source: every id `<= floor`, plus the listed ones
/// above it (sorted).
///
/// For a source whose ids arrive in order the list stays empty and this
/// degenerates to the classic last-id high-water mark (the paper's
/// "sequence number of the last transaction submitted by each client"). A
/// plain high-water mark is *wrong* for a source with several ids in
/// flight at once — the lease-holder replica funnels every forwarded read
/// through one counter, a broadcast server keeps a window of batches in
/// consensus — because arrivals can reorder, and the mark would then
/// swallow the stragglers as stale with nothing on that path to
/// retransmit them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeenIds {
    floor: i64,
    above: Vec<i64>,
}

impl Default for SeenIds {
    fn default() -> SeenIds {
        SeenIds {
            floor: -1,
            above: Vec::new(),
        }
    }
}

impl SeenIds {
    /// Whether `id` has been noted (or is assumed so, at or below the floor).
    pub fn contains(&self, id: i64) -> bool {
        id <= self.floor || self.above.binary_search(&id).is_ok()
    }

    /// Records `id`; returns false when it is a duplicate.
    pub fn note(&mut self, id: i64) -> bool {
        if id <= self.floor {
            return false;
        }
        let Err(i) = self.above.binary_search(&id) else {
            return false;
        };
        self.above.insert(i, id);
        while self.above.first() == Some(&(self.floor + 1)) {
            self.floor += 1;
            self.above.remove(0);
        }
        // Bound the gap set: sources that jump their counter (a recovered
        // replica restarts far past its pre-crash msgids) must not pin an
        // unclosable gap forever. Sliding the floor up writes off ids
        // more than a window behind the newest — by then they are either
        // lost or stale duplicates from a dead incarnation.
        while self.above.len() > DEDUP_WINDOW {
            self.floor = self.above.remove(0);
        }
        true
    }

    /// The canonical encoding `<floor, sorted ids above floor>`.
    pub fn to_value(&self) -> Value {
        Value::pair(
            Value::Int(self.floor),
            Value::list(self.above.iter().copied().map(Value::Int)),
        )
    }

    /// Decodes [`SeenIds::to_value`]'s encoding.
    pub fn from_value(v: &Value) -> SeenIds {
        let (floor, above) = v.unpair();
        SeenIds {
            floor: floor.int(),
            above: above.elems().iter().map(Value::int).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_ids_keep_the_gap_set_empty() {
        let mut seen = SeenIds::default();
        for id in 0..100 {
            assert!(!seen.contains(id));
            assert!(seen.note(id));
            assert!(!seen.note(id), "repeat of {id}");
        }
        assert_eq!(
            seen.to_value(),
            SeenIds {
                floor: 99,
                above: vec![]
            }
            .to_value()
        );
        assert_eq!(SeenIds::from_value(&seen.to_value()), seen);
    }

    #[test]
    fn reordered_ids_are_each_fresh_once() {
        let mut seen = SeenIds::default();
        let fresh: Vec<bool> = [0i64, 3, 1, 2, 3, 1]
            .iter()
            .map(|id| seen.note(*id))
            .collect();
        assert_eq!(fresh, [true, true, true, true, false, false]);
        assert_eq!(
            seen,
            SeenIds {
                floor: 3,
                above: vec![]
            }
        );
    }

    #[test]
    fn dedup_floor_slides_past_counter_jumps() {
        // A source that restarts its counter far ahead (a recovered
        // replica) must not pin an unclosable gap: the window caps the
        // tracked set, and ids at or below the slid floor stay recognised
        // as stale.
        let mut seen = SeenIds::default();
        for id in 0..3 {
            assert!(seen.note(id));
        }
        for id in 1_000_000..(1_000_000 + DEDUP_WINDOW as i64 + 8) {
            assert!(seen.note(id), "fresh past the jump");
        }
        assert!(seen.floor >= 1_000_000, "floor slid into the new range");
        assert!(seen.above.len() <= DEDUP_WINDOW, "gap set stays bounded");
        assert!(!seen.note(2), "pre-jump stragglers written off as stale");
        assert!(seen.contains(999_999));
    }
}
