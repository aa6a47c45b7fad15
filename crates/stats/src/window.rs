//! Fixed-capacity sliding windows of recent measurements.
//!
//! The client-side gateway records "the most recent `l` measurements of these
//! parameters in separate sliding windows in an information repository"
//! (paper §5.2). The window size is chosen "so as to include a reasonable
//! number of recently measured values, while eliminating obsolete
//! measurements"; the paper's experiments use sizes 10 and 20.

use std::collections::VecDeque;

/// A fixed-capacity window retaining only the most recent measurements.
///
/// Pushing beyond the capacity evicts the oldest entry. The window never
/// allocates beyond its capacity. Beside the arrival-order ring it keeps the
/// same measurements sorted, which is what the response-time model counts
/// over ([`crate::count_pairs_le`]).
///
/// # Example
///
/// ```
/// use aqf_stats::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// for v in 1u64..=5 {
///     w.push(v);
/// }
/// assert_eq!(w.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
/// w.push(1);
/// assert_eq!(w.sorted(), &[1, 4, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindow {
    buf: VecDeque<u64>,
    /// The contents of `buf` in ascending order.
    sorted: Vec<u64>,
    capacity: usize,
}

impl SlidingWindow {
    /// Creates an empty window that retains at most `capacity` measurements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Records a new measurement, evicting the oldest if the window is full.
    /// Keeping the sorted view costs one `O(l)` remove and one `O(l)` insert.
    pub fn push(&mut self, value: u64) {
        if self.buf.len() == self.capacity {
            if let Some(evicted) = self.buf.pop_front() {
                let at = self.sorted.partition_point(|&v| v < evicted);
                self.sorted.remove(at);
            }
        }
        self.buf.push_back(value);
        let at = self.sorted.partition_point(|&v| v <= value);
        self.sorted.insert(at, value);
    }

    /// Number of measurements currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no measurements yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured maximum number of retained measurements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over the retained measurements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf.iter().copied()
    }

    /// The retained measurements in ascending order.
    pub fn sorted(&self) -> &[u64] {
        &self.sorted
    }

    /// The most recently recorded measurement, if any.
    pub fn last(&self) -> Option<u64> {
        self.buf.back().copied()
    }

    /// The oldest retained measurement, if any.
    pub fn first(&self) -> Option<u64> {
        self.buf.front().copied()
    }

    /// Mean of the retained measurements, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.iter().map(|&v| v as f64).sum::<f64>() / self.buf.len() as f64)
        }
    }

    /// Removes all retained measurements.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.sorted.clear();
    }
}

impl Extend<u64> for SlidingWindow {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_window() {
        let w = SlidingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.last(), None);
        assert_eq!(w.first(), None);
        assert_eq!(w.mean(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn eviction_keeps_most_recent() {
        let mut w = SlidingWindow::new(2);
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(w.first(), Some(2));
        assert_eq!(w.last(), Some(3));
    }

    #[test]
    fn mean_is_arithmetic_mean() {
        let mut w = SlidingWindow::new(10);
        w.extend([2, 4, 6]);
        assert_eq!(w.mean(), Some(4.0));
    }

    #[test]
    fn clear_empties_window() {
        let mut w = SlidingWindow::new(3);
        w.extend([1, 2, 3]);
        w.clear();
        assert!(w.is_empty());
        w.push(9);
        assert_eq!(w.last(), Some(9));
    }

    #[test]
    fn extend_beyond_capacity() {
        let mut w = SlidingWindow::new(3);
        w.extend(0..100u64);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![97, 98, 99]);
    }

    proptest! {
        #[test]
        fn never_exceeds_capacity(cap in 1usize..32, values in proptest::collection::vec(0u64..1_000_000, 0..128)) {
            let mut w = SlidingWindow::new(cap);
            for v in &values {
                w.push(*v);
                prop_assert!(w.len() <= cap);
            }
        }

        #[test]
        fn retains_suffix(cap in 1usize..32, values in proptest::collection::vec(0u64..1_000_000, 0..128)) {
            let mut w = SlidingWindow::new(cap);
            w.extend(values.iter().copied());
            let start = values.len().saturating_sub(cap);
            prop_assert_eq!(w.iter().collect::<Vec<_>>(), values[start..].to_vec());
        }

        #[test]
        fn sorted_view_tracks_contents(
            cap in 1usize..32,
            // A narrow range, so duplicates are the rule; 16 clears.
            ops in proptest::collection::vec(0u64..=16, 0..160),
        ) {
            let mut w = SlidingWindow::new(cap);
            for op in ops {
                match op {
                    16 => w.clear(),
                    v => w.push(v),
                }
                let mut expected: Vec<u64> = w.iter().collect();
                expected.sort_unstable();
                prop_assert_eq!(w.sorted(), &expected[..]);
            }
        }
    }
}
