//! Addresses and prefixes.
//!
//! Addresses are IPv4-style 32-bit values. The verifier treats them as
//! opaque bit-vectors; the dotted-quad notation exists purely for human
//! convenience in configurations and diagnostics.

use std::fmt;
use std::str::FromStr;

/// A 32-bit network address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub u32);

impl Address {
    pub const WIDTH: u32 = 32;

    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    pub fn from_octets(o: [u8; 4]) -> Address {
        Address(u32::from_be_bytes(o))
    }

    /// Whether this address falls inside `prefix`.
    pub fn in_prefix(self, prefix: Prefix) -> bool {
        prefix.contains(self)
    }

    /// This address under the translation `a ↦ a ^ mask` of the address
    /// space. The translation is its own inverse.
    pub fn translated(self, mask: u32) -> Address {
        Address(self.0 ^ mask)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing an address or prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl FromStr for Address {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Address, ParseError> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(ParseError(format!("expected dotted quad, got {s:?}")));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| ParseError(format!("bad octet {p:?} in {s:?}")))?;
        }
        Ok(Address::from_octets(octets))
    }
}

/// An address prefix (CIDR block).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: Address,
    len: u32,
}

impl Prefix {
    /// Creates a prefix, normalising host bits to zero. `len` must be ≤ 32.
    pub fn new(addr: Address, len: u32) -> Prefix {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix { addr: Address(addr.0 & Self::mask(len)), len }
    }

    /// The all-addresses prefix `0.0.0.0/0`.
    pub fn default_route() -> Prefix {
        Prefix { addr: Address(0), len: 0 }
    }

    /// A host route (`/32`).
    pub fn host(addr: Address) -> Prefix {
        Prefix { addr, len: 32 }
    }

    fn mask(len: u32) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    pub fn addr(self) -> Address {
        self.addr
    }

    /// The prefix length in bits — a measure, not a collection size, so
    /// there is no `is_empty` counterpart (`is_default` covers /0).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u32 {
        self.len
    }

    pub fn is_default(self) -> bool {
        self.len == 0
    }

    pub fn contains(self, a: Address) -> bool {
        a.0 & Self::mask(self.len) == self.addr.0
    }

    /// Whether `other` is entirely inside `self`.
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// First address of the block.
    pub fn first(self) -> Address {
        self.addr
    }

    /// Last address of the block.
    pub fn last(self) -> Address {
        Address(self.addr.0 | !Self::mask(self.len))
    }

    /// The image of this block under `a ↦ a ^ mask`: XOR with a constant
    /// maps every aligned block onto an aligned block of the same length,
    /// so the image is the prefix of `addr ^ mask` at the same length.
    pub fn translated(self, mask: u32) -> Prefix {
        Prefix::new(self.addr.translated(mask), self.len)
    }

    /// The set of prefixes covering `self` minus `inner` (which must be
    /// inside `self`): at most `inner.len() - self.len()` prefixes, one per
    /// bit level. Used to express "everyone in this block except that
    /// subnet" as a compact ACL.
    pub fn complement_within(self, inner: Prefix) -> Vec<Prefix> {
        assert!(self.covers(inner), "{inner} is not inside {self}");
        let mut out = Vec::new();
        let mut cur = self;
        while cur.len < inner.len {
            let child_len = cur.len + 1;
            // The half of `cur` that contains `inner` continues the walk;
            // the sibling half is part of the complement.
            let bit = 1u32 << (32 - child_len);
            let inner_in_upper = inner.addr.0 & bit != 0;
            let sibling_addr = if inner_in_upper { cur.addr.0 } else { cur.addr.0 | bit };
            out.push(Prefix::new(Address(sibling_addr), child_len));
            let next_addr = if inner_in_upper { cur.addr.0 | bit } else { cur.addr.0 };
            cur = Prefix::new(Address(next_addr), child_len);
        }
        out
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Prefix, ParseError> {
        match s.split_once('/') {
            Some((a, l)) => {
                let addr: Address = a.parse()?;
                let len: u32 =
                    l.parse().map_err(|_| ParseError(format!("bad prefix length {l:?}")))?;
                if len > 32 {
                    return Err(ParseError(format!("prefix length {len} out of range")));
                }
                Ok(Prefix::new(addr, len))
            }
            None => Ok(Prefix::host(s.parse()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_roundtrip() {
        let a: Address = "192.168.1.77".parse().unwrap();
        assert_eq!(a.to_string(), "192.168.1.77");
        assert_eq!(a.octets(), [192, 168, 1, 77]);
        assert_eq!(Address::from_octets(a.octets()), a);
    }

    #[test]
    fn bad_addresses_rejected() {
        assert!("192.168.1".parse::<Address>().is_err());
        assert!("192.168.1.256".parse::<Address>().is_err());
        assert!("a.b.c.d".parse::<Address>().is_err());
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains("10.1.2.3".parse().unwrap()));
        assert!(!p.contains("10.2.2.3".parse().unwrap()));
        assert_eq!(p.first().to_string(), "10.1.0.0");
        assert_eq!(p.last().to_string(), "10.1.255.255");
    }

    #[test]
    fn prefix_normalises_host_bits() {
        let p = Prefix::new("10.1.2.3".parse().unwrap(), 16);
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn default_route_contains_everything() {
        let d = Prefix::default_route();
        assert!(d.contains(Address(0)));
        assert!(d.contains(Address(u32::MAX)));
        assert!(d.is_default());
    }

    #[test]
    fn covers_is_reflexive_and_ordered() {
        let wide: Prefix = "10.0.0.0/8".parse().unwrap();
        let narrow: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(wide.covers(narrow));
        assert!(!narrow.covers(wide));
        assert!(wide.covers(wide));
    }

    #[test]
    fn host_prefix_from_plain_address() {
        let p: Prefix = "10.0.0.1".parse().unwrap();
        assert_eq!(p.len(), 32);
        assert!(p.contains("10.0.0.1".parse().unwrap()));
        assert!(!p.contains("10.0.0.2".parse().unwrap()));
    }

    #[test]
    fn complement_within_partitions_the_outer_block() {
        let outer: Prefix = "10.0.0.0/8".parse().unwrap();
        let inner: Prefix = "10.5.0.0/16".parse().unwrap();
        let comp = outer.complement_within(inner);
        assert_eq!(comp.len(), 8, "one sibling per bit level");
        // Every address is in exactly one of {inner} ∪ comp.
        for probe in ["10.5.1.2", "10.4.255.255", "10.128.0.1", "10.0.0.0"] {
            let a: Address = probe.parse().unwrap();
            let in_inner = inner.contains(a) as usize;
            let in_comp = comp.iter().filter(|p| p.contains(a)).count();
            assert_eq!(in_inner + in_comp, 1, "{probe}");
        }
        // Nothing outside the outer block is covered.
        let outside: Address = "11.0.0.1".parse().unwrap();
        assert!(comp.iter().all(|p| !p.contains(outside)));
    }

    #[test]
    fn translation_maps_a_block_onto_a_block() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        let mask = Address::from_octets([10, 1, 0, 1]).0;
        assert_eq!(p.translated(mask), "0.0.0.0/16".parse().unwrap());
        assert_eq!(p.translated(mask).translated(mask), p);
        for probe in ["10.1.2.3", "10.2.0.1", "0.0.0.0"] {
            let a: Address = probe.parse().unwrap();
            assert_eq!(p.contains(a), p.translated(mask).contains(a.translated(mask)), "{probe}");
        }
    }

    #[test]
    fn complement_of_self_is_empty() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(p.complement_within(p).is_empty());
    }
}
