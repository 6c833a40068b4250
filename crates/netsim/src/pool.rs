//! Packet arena: slab + freelist storage for in-flight packets.
//!
//! Events carry a 4-byte [`PacketSlot`] handle instead of a ~130-byte inline
//! `Packet`, which shrinks every event (cheaper queue moves) and makes
//! steady-state forwarding allocation-free: a delivered packet's slab cell is
//! recycled for the next send. The slab only ever grows to the high-water
//! mark of concurrently in-flight packets.
//!
//! Lifecycle: `stash` on schedule (send / propagation hop), `unstash` on the
//! event being consumed (delivery / link arrival). Every stashed packet is
//! unstashed exactly once — events are never dropped, only executed — so
//! cells cannot leak within a run.

use crate::packet::Packet;

/// Handle to a packet owned by an event: an index into the [`PacketPool`]
/// slab.
#[derive(Debug)]
pub(crate) struct PacketSlot(u32);

/// Slab of in-flight packets with a freelist of vacated cells.
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slab: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketPool {
    /// Parks a packet and returns the handle to store in an event.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` packets are in flight at once.
    pub fn stash(&mut self, pkt: Packet) -> PacketSlot {
        if let Some(i) = self.free.pop() {
            self.slab[i as usize] = Some(pkt);
            return PacketSlot(i);
        }
        // simlint: allow(P001, documented panic: four billion packets simultaneously in flight is out of scope by construction)
        let i = u32::try_from(self.slab.len()).expect("packet slab index overflow");
        self.slab.push(Some(pkt));
        PacketSlot(i)
    }

    /// Reclaims the packet; the cell returns to the freelist.
    pub fn unstash(&mut self, slot: PacketSlot) -> Packet {
        // simlint: allow(P001, invariant: each handle is created by stash and consumed exactly once)
        let pkt = self.slab[slot.0 as usize].take().expect("pool slot double-freed");
        self.free.push(slot.0);
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Payload, Route};
    use crate::time::SimTime;

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src: 0,
            size_bytes: 1500,
            sent_at: SimTime::ZERO,
            ecn_ce: false,
            hop: 0,
            corrupted: false,
            route: Route::direct(1),
            payload: Payload::Raw,
        }
    }

    #[test]
    fn pooled_cells_are_recycled() {
        let mut pool = PacketPool::default();
        let a = pool.stash(pkt(1));
        let b = pool.stash(pkt(2));
        assert_eq!(pool.slab.len(), 2);
        assert_eq!(pool.unstash(a).id, 1);
        // The vacated cell is reused: slab does not grow.
        let c = pool.stash(pkt(3));
        assert_eq!(pool.slab.len(), 2);
        assert_eq!(pool.unstash(b).id, 2);
        assert_eq!(pool.unstash(c).id, 3);
        assert_eq!(pool.free.len(), 2);
    }
}
