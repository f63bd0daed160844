//! The verification subject: a topology, its forwarding configuration,
//! middlebox models, and the failure scenarios to verify under.

use std::collections::HashMap;
use std::sync::Arc;
use vmn_analysis::Parallelism;
use vmn_mbox::MboxModel;
use vmn_net::{Address, FailureScenario, ForwardingTables, NodeId, Topology};

/// Everything VMN needs to verify a network.
///
/// Forwarding tables are shared across failure scenarios: backup rules
/// (lower priorities) plus liveness-aware lookup implement the paper's
/// "mapping from failure conditions to transfer functions".
///
/// Topology and tables sit behind [`Arc`]s, so a clone — a verifier's
/// own copy, the daemon's next epoch — shares them instead of copying a
/// graph of thousands of nodes. Readers see them through auto-deref; a
/// caller that edits a built network goes through [`Arc::make_mut`],
/// which copies only a structure some other holder still shares.
#[derive(Clone)]
pub struct Network {
    pub topo: Arc<Topology>,
    pub tables: Arc<ForwardingTables>,
    /// Model for every middlebox instance.
    pub models: HashMap<NodeId, MboxModel>,
    /// Failure scenarios to verify under. The no-failure scenario is
    /// always checked; scenarios listed here are checked in addition.
    pub scenarios: Vec<FailureScenario>,
}

impl Network {
    pub fn new(topo: Topology, tables: ForwardingTables) -> Network {
        Network::shared(Arc::new(topo), Arc::new(tables))
    }

    /// A network over a topology and tables another network may hold
    /// too, with no models and no scenarios yet.
    pub fn shared(topo: Arc<Topology>, tables: Arc<ForwardingTables>) -> Network {
        Network { topo, tables, models: HashMap::new(), scenarios: Vec::new() }
    }

    /// Attaches a model to a middlebox instance.
    pub fn set_model(&mut self, mbox: NodeId, model: MboxModel) {
        assert!(
            self.topo.node(mbox).kind.is_middlebox(),
            "{:?} is not a middlebox",
            self.topo.node(mbox).name
        );
        model.validate().expect("invalid middlebox model");
        self.models.insert(mbox, model);
    }

    pub fn model(&self, mbox: NodeId) -> &MboxModel {
        self.models
            .get(&mbox)
            .unwrap_or_else(|| panic!("no model attached to {:?}", self.topo.node(mbox).name))
    }

    /// Adds a failure scenario to verify under.
    pub fn add_scenario(&mut self, s: FailureScenario) {
        self.scenarios.push(s);
    }

    /// All scenarios to check: no-failure first, then the configured ones.
    pub fn all_scenarios(&self) -> Vec<FailureScenario> {
        let mut out = vec![FailureScenario::none()];
        out.extend(self.scenarios.iter().cloned());
        out
    }

    /// Every middlebox's parallelism class, derived from its model by
    /// [`vmn_analysis::parallelism`]. The verifier derives them once per
    /// epoch; slicing reads them.
    pub fn parallelism_classes(&self) -> HashMap<NodeId, Parallelism> {
        self.models.iter().map(|(&n, m)| (n, vmn_analysis::parallelism(m))).collect()
    }

    /// Checks that every middlebox has a model.
    pub fn validate(&self) -> Result<(), String> {
        match self.topo.middleboxes().find(|m| !self.models.contains_key(m)) {
            Some(m) => Err(format!("middlebox {:?} has no model", self.topo.node(m).name)),
            None => Ok(()),
        }
    }

    /// The primary address of a host (used in invariant encodings).
    pub fn host_address(&self, h: NodeId) -> Address {
        *self
            .topo
            .node(h)
            .addresses
            .first()
            .unwrap_or_else(|| panic!("host {:?} has no address", self.topo.node(h).name))
    }

    /// Addresses a model's actions reference (rewrite targets); slice
    /// discovery must pull the owners of these addresses into the slice.
    pub fn model_referenced_addresses(&self, mbox: NodeId) -> Vec<Address> {
        let mut out = Vec::new();
        for rule in &self.model(mbox).rules {
            for action in &rule.actions {
                match action {
                    vmn_mbox::Action::RewriteSrc(a) | vmn_mbox::Action::RewriteDst(a) => {
                        out.push(*a)
                    }
                    vmn_mbox::Action::RewriteDstOneOf(addrs) => out.extend(addrs.iter().copied()),
                    _ => {}
                }
            }
        }
        out.extend(self.topo.node(mbox).addresses.iter().copied());
        out.sort();
        out.dedup();
        out
    }
}
