//! Boundary contracts for modular verification.
//!
//! A contract at a cut edge is a [`WindowSet`]: an over-approximation
//! of the `(src, dst)` address windows that packets crossing the edge
//! can occupy. The `vmn` crate synthesizes every contract from the
//! network itself, one set per directed edge, so what a module sends
//! over an edge and what its neighbour may receive over it are the same
//! set, and contracts compose by construction.
//!
//! Window sets are deliberately coarse — pairs of CIDR prefixes plus a
//! "anything" top element — so that synthesis (a fixpoint in the `vmn`
//! crate) terminates over a finite vocabulary: intersecting two
//! prefixes yields the longer one or nothing, so every window is built
//! from prefixes already mentioned in the configuration.

use std::collections::BTreeSet;
use vmn_net::Prefix;

/// The intersection of two prefixes: the longer one if nested, nothing
/// if disjoint.
pub fn prefix_intersect(a: Prefix, b: Prefix) -> Option<Prefix> {
    if a.covers(b) {
        Some(b)
    } else if b.covers(a) {
        Some(a)
    } else {
        None
    }
}

/// One `(src ∈ p, dst ∈ q)` window.
pub type Window = (Prefix, Prefix);

/// A set of header windows, with an explicit top element.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowSet {
    /// Top: every header admitted. When set, `windows` is empty.
    pub any: bool,
    pub windows: BTreeSet<Window>,
}

impl WindowSet {
    /// The empty set: no header crosses.
    pub fn empty() -> WindowSet {
        WindowSet::default()
    }

    /// The top element: any header may cross.
    pub fn any() -> WindowSet {
        WindowSet { any: true, windows: BTreeSet::new() }
    }

    /// A single window.
    pub fn window(src: Prefix, dst: Prefix) -> WindowSet {
        let mut ws = WindowSet::empty();
        ws.insert((src, dst));
        ws
    }

    pub fn is_empty(&self) -> bool {
        !self.any && self.windows.is_empty()
    }

    pub fn is_any(&self) -> bool {
        self.any
    }

    /// Inserts a window, dropping it if an existing window subsumes it
    /// and evicting windows it subsumes. Returns whether the set grew.
    pub fn insert(&mut self, w: Window) -> bool {
        if self.any {
            return false;
        }
        if self.windows.iter().any(|(s, d)| s.covers(w.0) && d.covers(w.1)) {
            return false;
        }
        self.windows.retain(|(s, d)| !(w.0.covers(*s) && w.1.covers(*d)));
        self.windows.insert(w);
        true
    }

    /// Unions `other` into `self`; returns whether `self` grew.
    pub fn union_with(&mut self, other: &WindowSet) -> bool {
        if self.any {
            return false;
        }
        if other.any {
            self.any = true;
            self.windows.clear();
            return true;
        }
        let mut grew = false;
        for w in &other.windows {
            grew |= self.insert(*w);
        }
        grew
    }

    /// The pairwise intersection with another set.
    pub fn intersect(&self, other: &WindowSet) -> WindowSet {
        if self.any {
            return other.clone();
        }
        if other.any {
            return self.clone();
        }
        let mut out = WindowSet::empty();
        for (s1, d1) in &self.windows {
            for (s2, d2) in &other.windows {
                if let (Some(s), Some(d)) = (prefix_intersect(*s1, *s2), prefix_intersect(*d1, *d2))
                {
                    out.insert((s, d));
                }
            }
        }
        out
    }

    /// Whether any window intersects `(src ∈ p, dst ∈ q)`.
    pub fn admits_window(&self, src: Prefix, dst: Prefix) -> bool {
        self.any
            || self.windows.iter().any(|(s, d)| {
                prefix_intersect(*s, src).is_some() && prefix_intersect(*d, dst).is_some()
            })
    }

    /// Conservative implication: every window of `self` is covered by
    /// some single window of `other`. Sound (true really means ⊆) but
    /// incomplete — a window covered only by a union of `other`'s
    /// windows is reported as not implied.
    pub fn implies(&self, other: &WindowSet) -> bool {
        if other.any {
            return true;
        }
        if self.any {
            return false;
        }
        self.windows
            .iter()
            .all(|(s, d)| other.windows.iter().any(|(os, od)| os.covers(*s) && od.covers(*d)))
    }

    /// The set mirrored: every `(s, d)` window becomes `(d, s)`. Used to
    /// close state-keyed guards under direction reversal (a learning
    /// firewall forwards replies to flows it admitted forward).
    pub fn reversed(&self) -> WindowSet {
        if self.any {
            return WindowSet::any();
        }
        WindowSet { any: false, windows: self.windows.iter().map(|&(s, d)| (d, s)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Whether the concrete header `src -> dst` falls in some window.
    fn admits(ws: &WindowSet, src: &str, dst: &str) -> bool {
        ws.admits_window(px(src), px(dst))
    }

    #[test]
    fn insert_subsumption() {
        let mut ws = WindowSet::empty();
        assert!(ws.insert((px("10.1.0.0/16"), px("10.2.0.0/16"))));
        // Subsumed by the existing window: no growth.
        assert!(!ws.insert((px("10.1.5.0/24"), px("10.2.0.0/16"))));
        // A wider window evicts the narrower one.
        assert!(ws.insert((px("10.0.0.0/8"), px("10.0.0.0/8"))));
        assert_eq!(ws.windows.len(), 1);
    }

    #[test]
    fn admits_and_any() {
        let ws = WindowSet::window(px("10.1.0.0/16"), px("10.2.0.0/16"));
        assert!(admits(&ws, "10.1.3.4", "10.2.0.1"));
        assert!(!admits(&ws, "10.3.0.1", "10.2.0.1"));
        assert!(admits(&WindowSet::any(), "1.2.3.4", "5.6.7.8"));
        assert!(!admits(&WindowSet::empty(), "1.2.3.4", "5.6.7.8"));
    }

    #[test]
    fn intersect_narrows() {
        let a = WindowSet::window(px("10.0.0.0/8"), px("0.0.0.0/0"));
        let b = WindowSet::window(px("10.1.0.0/16"), px("10.2.0.0/16"));
        let i = a.intersect(&b);
        assert!(admits(&i, "10.1.0.1", "10.2.0.1"));
        assert!(!admits(&i, "10.9.0.1", "10.2.0.1"));
        // Disjoint prefixes intersect to nothing.
        let c = WindowSet::window(px("192.168.0.0/16"), px("0.0.0.0/0"));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn implies_is_cover_based() {
        let narrow = WindowSet::window(px("10.1.0.0/16"), px("10.2.0.0/16"));
        let wide = WindowSet::window(px("10.0.0.0/8"), px("10.0.0.0/8"));
        assert!(narrow.implies(&wide));
        assert!(!wide.implies(&narrow));
        assert!(wide.implies(&WindowSet::any()));
        assert!(!WindowSet::any().implies(&wide));
        assert!(WindowSet::empty().implies(&narrow));
    }

    #[test]
    fn reversed_swaps_sides() {
        let ws = WindowSet::window(px("10.1.0.0/16"), px("10.2.0.0/16"));
        let r = ws.reversed();
        assert!(admits(&r, "10.2.0.1", "10.1.0.1"));
        assert!(!admits(&r, "10.1.0.1", "10.2.0.1"));
    }

    #[test]
    fn prefix_intersection_cases() {
        assert_eq!(prefix_intersect(px("10.0.0.0/8"), px("10.1.0.0/16")), Some(px("10.1.0.0/16")));
        assert_eq!(prefix_intersect(px("10.1.0.0/16"), px("10.0.0.0/8")), Some(px("10.1.0.0/16")));
        assert_eq!(prefix_intersect(px("10.1.0.0/16"), px("10.2.0.0/16")), None);
    }
}
