//! The hub's one bounded history store: a FIFO ring that keeps the
//! newest entries and counts the ones it evicts.

use std::collections::VecDeque;

/// Keeps at most `capacity` entries, oldest first. Pushing onto a full
/// ring evicts the oldest entry and counts it as dropped.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    /// An unbounded ring.
    fn default() -> Self {
        Ring::new(usize::MAX)
    }
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            items: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Re-bounds the ring, evicting the oldest entries that no longer
    /// fit.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict();
    }

    /// Appends `item`, evicting the oldest entry if the ring is full.
    pub(crate) fn push(&mut self, item: T) {
        self.items.push_back(item);
        self.evict();
    }

    fn evict(&mut self) {
        while self.items.len() > self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
    }

    /// The retained entries, oldest first.
    pub(crate) fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Entries evicted since the ring was created.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}
