//! A flow's outstanding (sent, not yet acked or declared lost) packets,
//! indexed by sequence number.
//!
//! A sender issues sequence numbers one by one, so its outstanding set is
//! a contiguous seq range with holes where packets were acked or declared
//! lost. [`Window`] stores that range as a ring of slots: slot `i` holds
//! seq `base + i`. Insert, remove and lookup are O(1); leading holes are
//! popped as they appear, so the first slot is always live (or the ring
//! is empty) and a loss scan below the acked seq only walks the packets
//! that are still waiting there.

use crate::link::Packet;
use std::collections::VecDeque;

/// Outstanding packets of one flow, by seq.
#[derive(Debug, Default)]
pub(crate) struct Window {
    /// `slots[i]` holds seq `base + i`; `None` is a hole. Never starts
    /// with a hole.
    slots: VecDeque<Option<Packet>>,
    base: u64,
    /// Number of `Some` slots.
    live: usize,
}

impl Window {
    /// Outstanding packets.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Add the next packet: its seq must follow every seq inserted so far.
    pub(crate) fn insert(&mut self, pkt: Packet) {
        assert_eq!(pkt.seq, self.base + self.slots.len() as u64, "seqs must be inserted in order");
        self.slots.push_back(Some(pkt));
        self.live += 1;
    }

    fn index(&self, seq: u64) -> Option<usize> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut Packet> {
        let i = self.index(seq)?;
        self.slots[i].as_mut()
    }

    /// Take `seq` out; `None` if it is not outstanding (never sent, already
    /// acked or declared lost, or dropped by [`Window::clear`]).
    pub(crate) fn remove(&mut self, seq: u64) -> Option<Packet> {
        let i = self.index(seq)?;
        let pkt = self.slots[i].take()?;
        self.live -= 1;
        self.pop_holes();
        Some(pkt)
    }

    /// Walk the packets with seq below `below` in ascending order and
    /// remove each one `lost` returns true for.
    pub(crate) fn remove_below_if(&mut self, below: u64, mut lost: impl FnMut(&Packet) -> bool) {
        let n = below.saturating_sub(self.base).min(self.slots.len() as u64) as usize;
        for slot in self.slots.range_mut(..n) {
            if slot.as_ref().is_some_and(&mut lost) {
                *slot = None;
                self.live -= 1;
            }
        }
        self.pop_holes();
    }

    /// Drop every outstanding packet. Later inserts continue the seq space.
    pub(crate) fn clear(&mut self) {
        self.base += self.slots.len() as u64;
        self.slots.clear();
        self.live = 0;
    }

    fn pop_holes(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn packet(seq: u64) -> Packet {
        Packet {
            flow: 7,
            seq,
            size_bytes: 1000 + (seq % 500) as usize,
            sent_at: seq * 1_000,
            delivered_at_send: seq * 3,
            ecn: false,
        }
    }

    fn contents(w: &Window) -> Vec<Packet> {
        w.iter().copied().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random operation sequences give the same result, in the same
        /// order, on the window and on a `BTreeMap` keyed by seq.
        #[test]
        fn window_matches_a_btreemap(
            ops in proptest::collection::vec((0_u8..10, 0_u64..1 << 20, any::<u64>()), 1..400),
        ) {
            let mut w = Window::default();
            let mut model: BTreeMap<u64, Packet> = BTreeMap::new();
            let mut next = 0_u64;
            for (step, &(op, arg, mask)) in ops.iter().enumerate() {
                // any seq issued so far, plus a few never issued
                let seq = arg % (next + 4);
                match op {
                    0..=3 => {
                        w.insert(packet(next));
                        model.insert(next, packet(next));
                        next += 1;
                    }
                    4 | 5 => prop_assert_eq!(w.remove(seq), model.remove(&seq), "step {step}: "),
                    6 => {
                        let (a, b) = (w.get_mut(seq), model.get_mut(&seq));
                        prop_assert_eq!(a.as_deref().copied(), b.as_deref().copied(), "step {step}: ");
                        if let (Some(a), Some(b)) = (a, b) {
                            a.ecn = !a.ecn;
                            b.ecn = !b.ecn;
                        }
                    }
                    7 | 8 => {
                        let lost = |p: &Packet| mask >> (p.seq % 64) & 1 == 1;
                        let mut walked = Vec::new();
                        w.remove_below_if(seq, |p| {
                            walked.push((p.seq, lost(p)));
                            lost(p)
                        });
                        let want: Vec<(u64, bool)> =
                            model.range(..seq).map(|(&s, p)| (s, lost(p))).collect();
                        prop_assert_eq!(&walked, &want, "step {step}: ");
                        for (s, l) in want {
                            if l {
                                model.remove(&s);
                            }
                        }
                    }
                    _ => {
                        w.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(w.len(), model.len(), "step {step}: ");
                prop_assert_eq!(w.is_empty(), model.is_empty(), "step {step}: ");
                prop_assert_eq!(
                    contents(&w),
                    model.values().copied().collect::<Vec<_>>(),
                    "step {step}: "
                );
            }
        }
    }

    #[test]
    fn leading_holes_are_popped() {
        let mut w = Window::default();
        for s in 0..4 {
            w.insert(packet(s));
        }
        w.remove(1);
        w.remove(0);
        assert_eq!((w.base, w.slots.len()), (2, 2));
        w.remove_below_if(4, |p| p.seq == 2);
        assert_eq!((w.base, w.slots.len(), w.len()), (3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "seqs must be inserted in order")]
    fn out_of_order_insert_is_rejected() {
        let mut w = Window::default();
        w.insert(packet(0));
        w.insert(packet(2));
    }
}
