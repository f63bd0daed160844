//! Concrete packet headers and flow identities.
//!
//! The verifier reasons about *symbolic* headers (bit-vector variables);
//! this concrete form is used by configurations, by the discrete-event
//! simulator, and to replay counterexample traces.

use crate::addr::Address;
use std::fmt;

/// The header fields VMN models, plus the two abstract fields the paper
/// uses for data-isolation invariants:
///
/// * `origin` — the address whose data this packet carries (the paper's
///   `origin(p)`, e.g. derived from `x-http-forwarded-for`); and
/// * `tag` — an opaque payload identity, used to model "complex packet
///   modifications" (encryption, compression) as replacement with a fresh
///   random value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Header {
    pub src: Address,
    pub dst: Address,
    pub src_port: u16,
    pub dst_port: u16,
    pub origin: Address,
    pub tag: u64,
}

impl Header {
    /// A header with given endpoints; origin defaults to the source.
    pub fn new(src: Address, src_port: u16, dst: Address, dst_port: u16) -> Header {
        Header { src, dst, src_port, dst_port, origin: src, tag: 0 }
    }

    /// The header of a reply travelling the reverse direction.
    pub fn reverse(&self) -> Header {
        Header {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            origin: self.dst,
            tag: self.tag,
        }
    }

    /// This header under the translation `a ↦ a ^ mask` of the address
    /// space: `src`, `dst` and `origin` move, ports and tag stay.
    pub fn translated(self, mask: u32) -> Header {
        Header {
            src: self.src.translated(mask),
            dst: self.dst.translated(mask),
            origin: self.origin.translated(mask),
            ..self
        }
    }

    /// Direction-insensitive flow identity (both directions of a
    /// connection map to the same [`FlowId`]). This mirrors the paper's
    /// `flow(p)` function used by e.g. the learning firewall: a reply
    /// belongs to the flow its request established.
    pub fn flow(&self) -> FlowId {
        let a = (self.src, self.src_port);
        let b = (self.dst, self.dst_port);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        FlowId { lo_addr: lo.0, lo_port: lo.1, hi_addr: hi.0, hi_port: hi.1 }
    }

    /// Whether `self` travels the same flow as `other` (either direction).
    pub fn same_flow(&self, other: &Header) -> bool {
        self.flow() == other.flow()
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} -> {}:{}", self.src, self.src_port, self.dst, self.dst_port)
    }
}

/// Canonical (direction-normalised) flow identifier: the two
/// `(address, port)` endpoints in order, the four fields the SMT
/// encoder's flow key compares. No protocol is modelled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId {
    lo_addr: Address,
    lo_port: u16,
    hi_addr: Address,
    hi_port: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    #[test]
    fn reverse_swaps_endpoints() {
        let h = Header::new(addr("10.0.0.1"), 4242, addr("10.0.0.2"), 80);
        let r = h.reverse();
        assert_eq!(r.src, addr("10.0.0.2"));
        assert_eq!(r.src_port, 80);
        assert_eq!(r.dst, addr("10.0.0.1"));
        assert_eq!(r.dst_port, 4242);
        assert_eq!(r.reverse(), Header { origin: addr("10.0.0.1"), ..h });
    }

    #[test]
    fn flow_is_direction_insensitive() {
        let h = Header::new(addr("10.0.0.1"), 4242, addr("10.0.0.2"), 80);
        assert_eq!(h.flow(), h.reverse().flow());
        assert!(h.same_flow(&h.reverse()));
    }

    #[test]
    fn different_connections_have_different_flows() {
        let h1 = Header::new(addr("10.0.0.1"), 4242, addr("10.0.0.2"), 80);
        let h2 = Header::new(addr("10.0.0.1"), 4243, addr("10.0.0.2"), 80);
        let h3 = Header::new(addr("10.0.0.3"), 4242, addr("10.0.0.2"), 80);
        assert_ne!(h1.flow(), h2.flow());
        assert_ne!(h1.flow(), h3.flow());
    }

    #[test]
    fn translation_keeps_flow_equality() {
        // `flow` orders the two endpoints, and a translation can swap that
        // order; the flows of two headers stay equal or unequal all the same.
        let h = Header::new(addr("10.0.0.1"), 4242, addr("128.0.0.2"), 80);
        let mask = 0x8000_0000;
        let (t, r) = (h.translated(mask), h.reverse().translated(mask));
        assert!(t.same_flow(&r));
        assert!(!t.same_flow(&Header { src_port: 1, ..r }));
        assert_eq!(t.translated(mask), h);
    }
}
