//! Packet arena: slab + freelist storage for in-flight packets.
//!
//! Events and link queues carry a 4-byte [`PacketSlot`] handle instead of a
//! ~130-byte inline `Packet`, so a hop moves a handle, not the packet: the
//! packet is written into its slab cell once and stays there until it leaves
//! the network. Steady-state forwarding is allocation-free — a vacated cell
//! is recycled for the next send — and the slab only ever grows to the
//! high-water mark of concurrently in-flight packets.
//!
//! Lifecycle: `stash` once in `World::send_packet` (and once per copy the
//! duplication impairment makes), `unstash` once where the packet leaves the
//! network — delivery to its agent, or a drop (DropTail overflow, fault loss,
//! an offer to a down link, a link-down queue drain). In between, links and
//! events pass the handle and reach `hop`, `ecn_ce`, `corrupted` and `id`
//! through [`PacketPool::get`] / [`PacketPool::get_mut`]. Every exit from the
//! network must free its cell explicitly; `sim.rs`'s slab conservation test
//! pins that none forgets to.

use crate::packet::Packet;

/// Handle to an in-flight packet: an index into the [`PacketPool`] slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PacketSlot(u32);

/// Slab of in-flight packets with a freelist of vacated cells.
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slab: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketPool {
    /// Parks a packet and returns its handle.
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

    /// The parked packet.
    #[inline]
    pub fn get(&self, slot: PacketSlot) -> &Packet {
        // simlint: allow(P001, invariant: a handle is live from stash until its single unstash)
        self.slab[slot.0 as usize].as_ref().expect("pool slot read after free")
    }

    /// The parked packet, mutably (hop cursor, ECN and corruption marks).
    #[inline]
    pub fn get_mut(&mut self, slot: PacketSlot) -> &mut Packet {
        // simlint: allow(P001, invariant: a handle is live from stash until its single unstash)
        self.slab[slot.0 as usize].as_mut().expect("pool slot written after free")
    }

    /// Reclaims the packet; the cell returns to the freelist.
    pub fn unstash(&mut self, slot: PacketSlot) -> Packet {
        // simlint: allow(P001, invariant: each handle is created by stash and consumed exactly once)
        let pkt = self.slab[slot.0 as usize].take().expect("pool slot double-freed");
        self.free.push(slot.0);
        pkt
    }

    /// Cells ever allocated: the high-water mark of concurrently in-flight
    /// packets.
    pub fn high_water(&self) -> usize {
        self.slab.len()
    }

    /// Cells currently holding a packet.
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.slab.len() - self.free.len()
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
        assert_eq!(pool.high_water(), 2);
        pool.get_mut(a).hop = 3;
        assert_eq!(pool.get(a).hop, 3);
        assert_eq!(pool.unstash(a).id, 1);
        // The vacated cell is reused: slab does not grow.
        let c = pool.stash(pkt(3));
        assert_eq!(pool.high_water(), 2);
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.unstash(b).id, 2);
        assert_eq!(pool.unstash(c).id, 3);
        assert_eq!(pool.live(), 0);
    }
}
