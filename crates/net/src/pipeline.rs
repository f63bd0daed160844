//! Static pipeline-invariant checking.
//!
//! A *pipeline invariant* (§2.3) says that packets of some class must pass
//! through a given sequence of middlebox **types** before delivery — e.g.
//! "all traffic from the internet traverses a firewall, then an IDPS".
//! The paper notes these are checkable with existing static-datapath
//! tools; this module is that tool. Reachability invariants (the paper's
//! contribution) are handled by the `vmn` crate.

use crate::addr::Address;
use crate::error::NetError;
use crate::topology::NodeId;
use crate::transfer::TransferFunction;

/// A pipeline requirement: the listed middlebox types must be traversed in
/// order (as a subsequence of the actual path — other middleboxes may
/// appear in between).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineSpec {
    pub required: Vec<String>,
}

impl PipelineSpec {
    pub fn new(required: impl IntoIterator<Item = impl Into<String>>) -> PipelineSpec {
        PipelineSpec { required: required.into_iter().map(Into::into).collect() }
    }

    /// Checks the pipeline for a packet from `src` to `dst` under the
    /// given transfer function (assuming middleboxes pass traffic through,
    /// which is the static-datapath view).
    ///
    /// `Ok(Ok(()))` — invariant holds (or the packet never reaches a host,
    /// in which case there is nothing to enforce);
    /// `Ok(Err(violation))` — the packet reaches its destination without
    /// traversing the required chain;
    /// `Err(_)` — the static datapath is broken (forwarding loop).
    pub fn check(
        &self,
        tf: &TransferFunction<'_>,
        src: NodeId,
        dst: Address,
    ) -> Result<Result<(), PipelineViolation>, NetError> {
        let (mboxes, end) = tf.terminal_path(src, dst)?;
        let Some(end) = end else {
            return Ok(Ok(())); // dropped traffic trivially satisfies the pipeline
        };
        let types: Vec<&str> = mboxes.iter().filter_map(|&m| tf.topo.mbox_type(m)).collect();
        let mut want = self.required.iter();
        let mut next = want.next();
        for ty in &types {
            if let Some(w) = next {
                if w == ty {
                    next = want.next();
                }
            }
        }
        if next.is_none() {
            Ok(Ok(()))
        } else {
            Ok(Err(PipelineViolation {
                src,
                dst,
                delivered_to: end,
                traversed: mboxes,
                missing: next.cloned().unwrap_or_default(),
            }))
        }
    }
}

/// Evidence that a pipeline invariant is violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineViolation {
    pub src: NodeId,
    pub dst: Address,
    pub delivered_to: NodeId,
    /// Middleboxes actually traversed, in order.
    pub traversed: Vec<NodeId>,
    /// First required type that was not matched.
    pub missing: String,
}

impl std::fmt::Display for PipelineViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packet from {:?} to {} delivered to {:?} without traversing a {:?} \
             (path traversed {} middleboxes)",
            self.src,
            self.dst,
            self.delivered_to,
            self.missing,
            self.traversed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix;
    use crate::fwd::{ForwardingTables, RoutingConfig, Rule};
    use crate::topology::{FailureScenario, Topology};

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// h1 -> s1 -> fw -> s1 -> ids -> s1 -> s2 -> h2 pipeline.
    fn chain() -> (Topology, ForwardingTables, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", addr("10.0.1.1"));
        let h2 = t.add_host("h2", addr("10.0.2.1"));
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let fw = t.add_middlebox("fw", "firewall", vec![]);
        let ids = t.add_middlebox("ids", "ids", vec![]);
        for n in [h1, fw, ids] {
            t.add_link(n, s1);
        }
        t.add_link(s1, s2);
        t.add_link(h2, s2);

        let mut rc = RoutingConfig::new();
        rc.host_routes(&t);
        let mut ft = rc.build(&t, &FailureScenario::none());
        ft.add_rule(s1, Rule::from_neighbor(px("10.0.2.0/24"), h1, fw).with_priority(10));
        ft.add_rule(s1, Rule::from_neighbor(px("10.0.2.0/24"), fw, ids).with_priority(10));
        (t, ft, h1, h2)
    }

    #[test]
    fn full_chain_satisfies_spec() {
        let (t, ft, h1, _) = chain();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        let spec = PipelineSpec::new(["firewall", "ids"]);
        assert_eq!(spec.check(&tf, h1, addr("10.0.2.1")).unwrap(), Ok(()));
    }

    #[test]
    fn subsequence_matching_allows_extras() {
        let (t, ft, h1, _) = chain();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        // Requiring only the IDS is satisfied by the fuller chain.
        let spec = PipelineSpec::new(["ids"]);
        assert_eq!(spec.check(&tf, h1, addr("10.0.2.1")).unwrap(), Ok(()));
    }

    #[test]
    fn order_matters() {
        let (t, ft, h1, _) = chain();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        let spec = PipelineSpec::new(["ids", "firewall"]);
        let v = spec.check(&tf, h1, addr("10.0.2.1")).unwrap().unwrap_err();
        assert_eq!(v.missing, "firewall");
    }

    #[test]
    fn reverse_path_misses_pipeline() {
        let (t, ft, _, h2) = chain();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        let spec = PipelineSpec::new(["firewall"]);
        let v = spec.check(&tf, h2, addr("10.0.1.1")).unwrap().unwrap_err();
        assert_eq!(v.missing, "firewall");
        assert!(v.traversed.is_empty());
    }

    #[test]
    fn failure_induced_bypass_detected() {
        let (t, ft, h1, _) = chain();
        let fw = t.by_name("fw").unwrap();
        let failed = FailureScenario::nodes([fw]);
        let tf = TransferFunction::new(&t, &ft, &failed);
        let spec = PipelineSpec::new(["firewall", "ids"]);
        // With the firewall dead, the base route bypasses both middleboxes.
        let v = spec.check(&tf, h1, addr("10.0.2.1")).unwrap().unwrap_err();
        assert_eq!(v.missing, "firewall");
    }
}
