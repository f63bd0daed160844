//! The reference policy-class computation: `PolicyClasses::compute` as it
//! was before its bookkeeping was made near-linear — per-host signatures
//! of freshly built steps (each box's type name and a clone of its model),
//! cloned into hash-map keys, with an all-pairs stability test — given the
//! same static fingerprint (`vmn_analysis::mentioned_addresses`). The refinement rule is the one
//! `compute` uses, so the two must produce the same partition; the tests
//! that include this file assert exactly that.

use std::collections::{BTreeSet, HashMap};
use vmn::{Network, PolicyClasses};
use vmn_mbox::MboxModel;
use vmn_net::{FailureScenario, NodeId, TransferFunction};

/// The partition as a set of sets, for comparison regardless of class
/// numbering.
pub fn as_sets(classes: &[Vec<NodeId>]) -> BTreeSet<BTreeSet<NodeId>> {
    classes.iter().map(|c| c.iter().copied().collect()).collect()
}

/// Asserts that `PolicyClasses::compute` and the reference agree on `net`.
pub fn assert_matches_reference(net: &Network, label: &str) {
    let got = PolicyClasses::compute(net);
    assert_eq!(as_sets(&got.classes), as_sets(&reference_classes(net)), "{label}");
}

/// A pipeline step: a box's type name and model, or how the path ends.
type Step = (String, Option<MboxModel>);

fn pipeline_steps(net: &Network, tf: &TransferFunction<'_>, from: NodeId, to: NodeId) -> Vec<Step> {
    let addr = net.host_address(to);
    let end = |how: &str| (how.to_string(), None);
    match tf.terminal_path(from, addr) {
        Ok((mboxes, reached)) => {
            let mut steps: Vec<Step> = mboxes
                .iter()
                .filter_map(|&m| {
                    Some((net.topo.mbox_type(m)?.to_string(), Some(net.model(m).clone())))
                })
                .collect();
            steps.push(end(if reached.is_some() { "delivered" } else { "dropped" }));
            steps
        }
        Err(_) => vec![end("error")],
    }
}

pub fn reference_classes(net: &Network) -> Vec<Vec<NodeId>> {
    let scenario = FailureScenario::none();
    let tf = TransferFunction::new(&net.topo, &net.tables, &scenario);
    let hosts: Vec<NodeId> = net.topo.hosts().collect();

    let mut fingerprint: HashMap<NodeId, Vec<bool>> = HashMap::new();
    for &h in &hosts {
        let addr = net.host_address(h);
        let mut bits = Vec::new();
        let mut mbox_ids: Vec<NodeId> = net.topo.middleboxes().collect();
        mbox_ids.sort();
        for m in mbox_ids {
            for p in vmn_analysis::mentioned_addresses(net.model(m)) {
                bits.push(p.contains(addr));
            }
        }
        fingerprint.insert(h, bits);
    }

    let mut class_of: HashMap<NodeId, usize> = HashMap::new();
    {
        let mut seen: HashMap<Vec<bool>, usize> = HashMap::new();
        for &h in &hosts {
            let f = fingerprint[&h].clone();
            let next = seen.len();
            let c = *seen.entry(f).or_insert(next);
            class_of.insert(h, c);
        }
    }

    loop {
        let mut members: HashMap<usize, Vec<NodeId>> = HashMap::new();
        for &h in &hosts {
            members.entry(class_of[&h]).or_default().push(h);
        }
        let mut class_list: Vec<usize> = members.keys().copied().collect();
        class_list.sort();

        let mut sigs: HashMap<NodeId, Vec<(usize, Vec<Step>, Vec<Step>)>> = HashMap::new();
        for &h in &hosts {
            let mut sig = Vec::new();
            for &c in &class_list {
                let rep = members[&c].iter().copied().find(|&r| r != h);
                let Some(rep) = rep else {
                    continue;
                };
                let fwd = pipeline_steps(net, &tf, h, rep);
                let back = pipeline_steps(net, &tf, rep, h);
                sig.push((c, fwd, back));
            }
            sigs.insert(h, sig);
        }

        let mut new_class: HashMap<(usize, Vec<(usize, Vec<Step>, Vec<Step>)>), usize> =
            HashMap::new();
        let mut next_of: HashMap<NodeId, usize> = HashMap::new();
        for &h in &hosts {
            let key = (class_of[&h], sigs[&h].clone());
            let n = new_class.len();
            let c = *new_class.entry(key).or_insert(n);
            next_of.insert(h, c);
        }
        let stable = hosts.iter().all(|h| {
            hosts.iter().all(|g| (class_of[h] == class_of[g]) == (next_of[h] == next_of[g]))
        });
        class_of = next_of;
        if stable {
            break;
        }
    }

    let num = class_of.values().copied().max().map_or(0, |m| m + 1);
    let mut classes = vec![Vec::new(); num];
    for &h in &hosts {
        classes[class_of[&h]].push(h);
    }
    classes
}
