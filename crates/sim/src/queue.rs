//! The world's event queue: a calendar of FIFO slots in front of a heap.
//!
//! Keys are `World`'s packed `(instant << 64) | seq`, and every item pops in
//! key order. Three tiers hold them, by how far ahead of the last popped
//! instant (`base`) they lie:
//!
//! - the **fine ring**: one FIFO list per microsecond, [`FINE_SLOTS`] of
//!   them, covering the unit that holds `base` and the next one;
//! - the **coarse ring**: [`COARSE_UNITS`] units of [`UNIT_US`] µs each
//!   (~1.05 s), every unit an unsorted list in push order;
//! - the **far heap**: everything beyond the coarse horizon.
//!
//! A unit is cascaded into the fine ring when `base` comes within one unit
//! of it, and the far heap refills the coarse ring, in key order, as the
//! horizon advances. The order is exact: within one instant, key order is
//! push order, because `seq` grows with every push. An instant enters the
//! fine ring only by its unit's cascade, and a unit enters the coarse ring
//! only by the refill that first brings it under the horizon, so whatever a
//! cascade or refill appends to a list was pushed before anything pushed to
//! that list directly.
//!
//! The lists are intrusive: their nodes come from one slab, and a slot or
//! unit holds only a head and a tail index, with a bitmap marking the busy
//! ones. The rings are a fixed ~36 KiB per queue; only the slab and the far
//! heap grow, to the queue's peak length, and both are reused.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slots of the fine ring, one microsecond each.
const FINE_SLOTS: usize = 4096;
/// Microseconds per coarse unit (half the fine ring).
const UNIT_US: u64 = 2048;
const UNIT_SHIFT: u32 = UNIT_US.trailing_zeros();
/// Units in the coarse ring: its horizon is `COARSE_UNITS × UNIT_US` µs.
const COARSE_UNITS: usize = 512;
/// Units the fine ring spans: `base`'s and the next one.
const FINE_UNITS: u64 = (FINE_SLOTS as u64) / UNIT_US;
const NIL: u32 = u32::MAX;

// The fine ring holds whole units, and each bitmap fits its summary word.
const _: () = assert!(UNIT_US.is_power_of_two() && FINE_UNITS * UNIT_US == FINE_SLOTS as u64);
const _: () = assert!(FINE_SLOTS.is_multiple_of(64) && FINE_SLOTS / 64 <= 64);
const _: () = assert!(COARSE_UNITS.is_multiple_of(64) && COARSE_UNITS / 64 <= 64);

/// The instant a key carries.
fn instant(key: u128) -> u64 {
    (key >> 64) as u64
}

/// The coarse unit an instant falls in. Units stay below 2^53, so unit
/// arithmetic never overflows, even for instants near `u64::MAX`.
fn unit(time: u64) -> u64 {
    time >> UNIT_SHIFT
}

/// The coarse ring's list for `unit`.
fn coarse_index(unit: u64) -> usize {
    (unit % COARSE_UNITS as u64) as usize
}

struct Node<T> {
    key: u128,
    next: u32,
    item: Option<T>,
}

/// Head and tail node of one intrusive FIFO list; meaningful only while the
/// owning bitmap marks it busy. A plain array, so a ring of them starts as
/// zeroed memory the allocator need not touch.
type List = [u32; 2];
const HEAD: usize = 0;
const TAIL: usize = 1;

/// Occupancy of `64 × W` lists: one bit per list and one summary bit per
/// word, so the first busy list from any position is two word scans away.
struct Bitmap<const W: usize> {
    words: [u64; W],
    summary: u64,
}

impl<const W: usize> Bitmap<W> {
    const EMPTY: Self = Self {
        words: [0; W],
        summary: 0,
    };

    fn is_empty(&self) -> bool {
        self.summary == 0
    }

    fn is_set(&self, i: usize) -> bool {
        self.words[i >> 6] & (1 << (i & 63)) != 0
    }

    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
        self.summary |= 1 << (i >> 6);
    }

    fn clear(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] &= !(1 << (i & 63));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// The first set bit at or after `start`, wrapping around the end.
    fn first_from(&self, start: usize) -> Option<usize> {
        let w = start >> 6;
        let here = self.words[w] & (u64::MAX << (start & 63));
        if here != 0 {
            return Some((w << 6) | here.trailing_zeros() as usize);
        }
        // Words after `w`, then from the start (word `w`'s low bits last,
        // which are all that can be left of it).
        let later = self.summary & !(u64::MAX >> (63 - w));
        let word = if later != 0 {
            later.trailing_zeros()
        } else if self.summary != 0 {
            self.summary.trailing_zeros()
        } else {
            return None;
        } as usize;
        Some((word << 6) | self.words[word].trailing_zeros() as usize)
    }
}

/// A priority queue of `(key, item)` for keys `(instant << 64) | seq` with
/// unique, increasing `seq`, popped in key order.
///
/// Contract: a push's instant is at or after every instant popped so far
/// and every bound of a `pop_until` that returned `None`. `World` keeps it:
/// it pushes at or after `now`, and `now` is the last popped instant or a
/// `run_until` bound that stopped the run.
pub(crate) struct EventQueue<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free node list.
    free: u32,
    fine: Box<[List]>,
    fine_busy: Bitmap<{ FINE_SLOTS / 64 }>,
    coarse: Box<[List]>,
    coarse_busy: Bitmap<{ COARSE_UNITS / 64 }>,
    far: BinaryHeap<Reverse<(u128, u32)>>,
    /// The last popped instant, or the start of the unit a jump went to:
    /// no queued instant is earlier.
    base: u64,
    /// `unit(base) + FINE_UNITS`: units below it live in the fine ring,
    /// units below `fine_end + COARSE_UNITS` in the coarse ring.
    fine_end: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            fine: vec![[0; 2]; FINE_SLOTS].into_boxed_slice(),
            fine_busy: Bitmap::EMPTY,
            coarse: vec![[0; 2]; COARSE_UNITS].into_boxed_slice(),
            coarse_busy: Bitmap::EMPTY,
            far: BinaryHeap::new(),
            base: 0,
            fine_end: FINE_UNITS,
            len: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Number of queued items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `item` under `key`.
    pub(crate) fn push(&mut self, key: u128, item: T) {
        debug_assert!(instant(key) >= self.base, "push before the queue's base");
        let node = Node {
            key,
            next: NIL,
            item: Some(item),
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("event queue node index overflow")
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
            idx
        };
        self.len += 1;
        self.place(key, idx);
    }

    /// Pops the item with the least key if its instant is at or before
    /// `until`.
    pub(crate) fn pop_until(&mut self, until: u64) -> Option<(u128, T)> {
        if self.fine_busy.is_empty() {
            // Jump to the next busy unit, but never to one that starts after
            // `until`: the caller's clock may then stop short of it, and a
            // later push must not land before `base`.
            let next = match self.first_coarse_unit() {
                Some(u) => u,
                None => unit(instant(self.far.peek()?.0 .0)),
            };
            if next > unit(until) {
                return None;
            }
            self.base = next << UNIT_SHIFT;
            self.advance(next + FINE_UNITS);
        }
        let slot = self
            .fine_busy
            .first_from(self.base as usize % FINE_SLOTS)
            .expect("a jump fills the fine ring");
        let idx = self.fine[slot][HEAD];
        let node = &mut self.nodes[idx as usize];
        let key = node.key;
        let time = instant(key);
        if time > until {
            return None;
        }
        let item = node.item.take().expect("queued node holds its item");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        if next == NIL {
            self.fine_busy.clear(slot);
        } else {
            self.fine[slot][HEAD] = next;
        }
        self.len -= 1;
        self.base = time;
        if unit(time) + FINE_UNITS > self.fine_end {
            self.advance(unit(time) + FINE_UNITS);
        }
        Some((key, item))
    }

    /// The earliest busy unit of the coarse ring.
    fn first_coarse_unit(&self) -> Option<u64> {
        let start = coarse_index(self.fine_end);
        let i = self.coarse_busy.first_from(start)?;
        Some(self.fine_end + ((i + COARSE_UNITS - start) % COARSE_UNITS) as u64)
    }

    /// Links node `idx` into the tier its instant belongs to.
    fn place(&mut self, key: u128, idx: u32) {
        let time = instant(key);
        let u = unit(time);
        if u < self.fine_end {
            let slot = time as usize % FINE_SLOTS;
            Self::append(
                &mut self.nodes,
                &mut self.fine,
                &mut self.fine_busy,
                slot,
                idx,
            );
        } else if u < self.fine_end + COARSE_UNITS as u64 {
            let i = coarse_index(u);
            Self::append(
                &mut self.nodes,
                &mut self.coarse,
                &mut self.coarse_busy,
                i,
                idx,
            );
        } else {
            self.far.push(Reverse((key, idx)));
        }
    }

    fn append<const W: usize>(
        nodes: &mut [Node<T>],
        lists: &mut [List],
        busy: &mut Bitmap<W>,
        i: usize,
        idx: u32,
    ) {
        let list = &mut lists[i];
        if busy.is_set(i) {
            nodes[list[TAIL] as usize].next = idx;
            list[TAIL] = idx;
        } else {
            *list = [idx, idx];
            busy.set(i);
        }
    }

    /// Moves the fine ring's end to `new_end`: cascades every busy unit
    /// below it into the fine ring, in push order, then refills the coarse
    /// ring from the far heap up to the new horizon.
    fn advance(&mut self, new_end: u64) {
        while let Some(u) = self.first_coarse_unit().filter(|&u| u < new_end) {
            let i = coarse_index(u);
            self.coarse_busy.clear(i);
            let mut idx = self.coarse[i][HEAD];
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                let next = std::mem::replace(&mut node.next, NIL);
                let slot = instant(node.key) as usize % FINE_SLOTS;
                Self::append(
                    &mut self.nodes,
                    &mut self.fine,
                    &mut self.fine_busy,
                    slot,
                    idx,
                );
                idx = next;
            }
        }
        self.fine_end = new_end;
        let horizon = new_end + COARSE_UNITS as u64;
        while let Some(&Reverse((key, idx))) = self.far.peek() {
            if unit(instant(key)) >= horizon {
                break;
            }
            self.far.pop();
            self.place(key, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn key(time: u64, seq: u64) -> u128 {
        (u128::from(time) << 64) | u128::from(seq)
    }

    /// Offsets that straddle every boundary of the three tiers.
    const EDGES: [u64; 16] = [
        0,
        1,
        UNIT_US - 1,
        UNIT_US,
        UNIT_US + 1,
        FINE_SLOTS as u64 - 1,
        FINE_SLOTS as u64,
        FINE_SLOTS as u64 + 1,
        COARSE_UNITS as u64 * UNIT_US - 1,
        COARSE_UNITS as u64 * UNIT_US,
        COARSE_UNITS as u64 * UNIT_US + 1,
        (COARSE_UNITS as u64 + 1) * UNIT_US,
        (COARSE_UNITS as u64 + 2) * UNIT_US + 1,
        2 * COARSE_UNITS as u64 * UNIT_US,
        40_000_000,
        u64::MAX,
    ];

    /// Interleaves pushes and bounded pops on the queue and on a
    /// `BinaryHeap` reference, checking every result. Pushes keep the
    /// contract: never before the last popped instant or a bound that
    /// stopped a pop.
    fn differential(seed: u64, ops: usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut queue = EventQueue::default();
        let mut reference = BinaryHeap::new();
        let (mut seq, mut floor) = (0u64, 0u64);
        // Some seeds start near the end of time.
        if seed.is_multiple_of(4) {
            floor = u64::MAX - rng.gen_range(0..10 * COARSE_UNITS as u64 * UNIT_US);
        }
        for _ in 0..ops {
            if rng.gen_range(0..100) < 55 {
                let ahead = match rng.gen_range(0..6) {
                    0 => EDGES[rng.gen_range(0..EDGES.len())],
                    1 => EDGES[rng.gen_range(0..EDGES.len())].saturating_sub(rng.gen_range(0..3)),
                    2 => rng.gen_range(0..5_000),
                    3 => rng.gen_range(0..2_000_000),
                    4 => rng.gen_range(0..40_000_000),
                    _ => 250_000 * rng.gen_range(0u64..5),
                };
                let k = key(floor.saturating_add(ahead), seq);
                seq += 1;
                queue.push(k, seq);
                reference.push(Reverse((k, seq)));
            } else {
                let until = match rng.gen_range(0..4) {
                    0 => u64::MAX,
                    1 => floor.saturating_add(EDGES[rng.gen_range(0..EDGES.len())]),
                    2 => floor.saturating_add(rng.gen_range(0..3 * UNIT_US)),
                    _ => floor.saturating_add(rng.gen_range(0..3_000_000)),
                };
                let expected = match reference.peek() {
                    Some(&Reverse((k, _))) if instant(k) <= until => {
                        reference.pop().map(|Reverse(e)| e)
                    }
                    _ => None,
                };
                let got = queue.pop_until(until);
                assert_eq!(got, expected, "seed {seed}, until {until}");
                floor = match got {
                    Some((k, _)) => instant(k),
                    None => floor.max(until),
                };
            }
            assert_eq!(queue.len(), reference.len());
        }
        while let Some(Reverse(e)) = reference.pop() {
            assert_eq!(queue.pop_until(u64::MAX), Some(e), "seed {seed}, draining");
        }
        assert_eq!(queue.pop_until(u64::MAX), None);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn pops_match_a_binary_heap() {
        for seed in 0..40 {
            differential(seed, 2_000);
        }
    }

    /// The deep variant, run in release by CI: `cargo test --release -p
    /// aqf-sim --locked -- --ignored`.
    #[test]
    #[ignore = "deep: 300 seeds x 20 000 operations, run in release"]
    fn pops_match_a_binary_heap_deep() {
        for seed in 0..300 {
            differential(seed, 20_000);
        }
    }

    #[test]
    fn one_instant_pops_in_push_order_across_tiers() {
        let mut q = EventQueue::default();
        let t = 3 * COARSE_UNITS as u64 * UNIT_US + 5;
        // Far heap, then coarse ring, then fine ring, all for instant `t`.
        q.push(key(t, 0), 'a');
        q.push(key(t + 1, 1), 'z');
        q.push(key(1, 2), 'x');
        assert_eq!(q.pop_until(t - 1_000_000), Some((key(1, 2), 'x')));
        assert_eq!(q.pop_until(t - 1_000_000), None);
        q.push(key(t, 3), 'b');
        assert_eq!(q.pop_until(t - 3_000), None);
        q.push(key(t, 4), 'c');
        assert_eq!(q.pop_until(t - 1), None);
        q.push(key(t, 5), 'd');
        let order: Vec<char> =
            std::iter::from_fn(|| q.pop_until(u64::MAX).map(|(_, c)| c)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd', 'z']);
    }

    #[test]
    fn a_jump_stops_at_a_unit_after_the_bound() {
        let mut q = EventQueue::default();
        let t = 10 * UNIT_US;
        q.push(key(t, 0), 0);
        // The bound ends just before `t`'s unit: nothing moves.
        assert_eq!(q.pop_until(t - 1), None);
        assert_eq!(q.base, 0);
        // The caller's clock is now `t - 1`; a push there pops first.
        q.push(key(t - 1, 1), 1);
        assert_eq!(q.pop_until(t), Some((key(t - 1, 1), 1)));
        assert_eq!(q.pop_until(t), Some((key(t, 0), 0)));
    }

    #[test]
    fn instants_at_the_end_of_time() {
        let mut q = EventQueue::default();
        let last = u64::MAX;
        q.push(key(last, 0), 0);
        q.push(key(last - UNIT_US, 1), 1);
        q.push(key(last, 2), 2);
        assert_eq!(q.pop_until(last - UNIT_US - 1), None);
        assert_eq!(q.pop_until(last - 1), Some((key(last - UNIT_US, 1), 1)));
        q.push(key(last, 3), 3);
        q.push(key(last - 1, 4), 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_until(last).map(|(_, n)| n)).collect();
        assert_eq!(order, [4, 0, 2, 3]);
        assert_eq!(q.fine_end, unit(last) + FINE_UNITS);
    }

    #[test]
    fn first_from_wraps_around() {
        let mut b = Bitmap::<8>::EMPTY;
        assert_eq!(b.first_from(0), None);
        b.set(5);
        assert_eq!(b.first_from(5), Some(5));
        assert_eq!(b.first_from(6), Some(5));
        assert_eq!(b.first_from(511), Some(5));
        b.set(300);
        assert_eq!(b.first_from(6), Some(300));
        assert_eq!(b.first_from(301), Some(5));
        b.set(3);
        assert_eq!(b.first_from(301), Some(3));
        b.clear(3);
        b.clear(5);
        assert_eq!(b.first_from(0), Some(300));
        b.clear(300);
        assert!(b.is_empty());
    }
}
