use crate::topology::Direction;

/// Control state of one input virtual channel.
///
/// Table I configures 4 virtual channels per port with 5-flit buffers. The
/// buffered flits themselves live in the router's single flat ring-buffer
/// array ([`crate::Router`] owns one contiguous slab for all 5 × VCs
/// buffers); this struct holds the per-VC pipeline decisions plus the ring
/// cursor into that slab.
#[derive(Debug, Clone)]
pub(crate) struct VcState {
    /// Output port chosen by routing computation for the packet currently
    /// occupying this VC (`None` until RC runs on the head flit).
    pub route: Option<Direction>,
    /// Downstream VC granted by VC allocation (`None` until VA succeeds);
    /// a byte suffices under the router's `vcs <= 12` contract and keeps
    /// the per-VC state at 16 bytes.
    pub out_vc: Option<u8>,
    /// Whether the packet's head flit has been inspected at this router
    /// (the Trojan hook fires once per hop).
    pub inspected: bool,
    /// Set when an inspector ordered the current packet dropped: arriving
    /// and buffered flits are sunk instead of forwarded, until the tail.
    pub dropping: bool,
    /// Ring offset (within this VC's fixed-capacity slice of the router's
    /// flit slab) of the front flit.
    pub head: u32,
    /// Buffered flit count.
    pub len: u32,
}

impl VcState {
    pub(crate) fn new() -> Self {
        VcState {
            route: None,
            out_vc: None,
            inspected: false,
            dropping: false,
            head: 0,
            len: 0,
        }
    }

    /// Clears the per-packet pipeline decisions; called when the packet's
    /// tail flit leaves the buffer so the next resident packet re-runs
    /// inspection, RC and VA. The ring cursor is deliberately left where it
    /// is — the buffer keeps rotating.
    pub(crate) fn clear_packet_state(&mut self) {
        self.route = None;
        self.out_vc = None;
        self.inspected = false;
        self.dropping = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_resets_decisions_but_not_cursor() {
        let mut st = VcState::new();
        st.route = Some(Direction::East);
        st.out_vc = Some(2);
        st.inspected = true;
        st.dropping = true;
        st.head = 3;
        st.len = 1;
        st.clear_packet_state();
        assert_eq!(st.route, None);
        assert_eq!(st.out_vc, None);
        assert!(!st.inspected);
        assert!(!st.dropping);
        assert_eq!(st.head, 3, "ring cursor must survive packet turnover");
        assert_eq!(st.len, 1);
    }

    /// Layout lock: switch traversal reads a slot's state on every probe.
    #[test]
    fn vc_state_stays_compact() {
        assert!(std::mem::size_of::<VcState>() <= 16);
    }
}
