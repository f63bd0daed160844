//! The reference pipeline depth: a walk of its own over every host pair of
//! a planned node set, against which the depth the slice closure
//! (`vmn::slice::compute_slice`) measures on its own walks is checked. A
//! plan's bound must be `W·(D+1)+DEFAULT_SLACK` with `D` from here.
//!
//! It names only `vmn_net` types, so the `vmn` crate's unit tests include
//! this file too.

use vmn_net::{
    FailureScenario, ForwardingTables, HeaderClasses, NetError, NodeId, Topology, TransferFunction,
};

/// Longest middlebox pipeline between any two hosts of `nodes` under
/// `scenario`, from every live host to every address of every other host,
/// on the static datapath walked on `classes` (the header classes of
/// `topo` and `tables`). A static forwarding loop on any of those paths
/// is an error.
pub fn max_pipeline_depth(
    topo: &Topology,
    tables: &ForwardingTables,
    classes: &HeaderClasses,
    scenario: &FailureScenario,
    nodes: &[NodeId],
) -> Result<usize, NetError> {
    let tf = TransferFunction::new(topo, tables, scenario).with_classes(classes);
    let hosts: Vec<NodeId> =
        nodes.iter().copied().filter(|&n| topo.node(n).kind.is_host()).collect();
    let mut depth = 0;
    for &src in &hosts {
        if scenario.is_failed(src) {
            continue;
        }
        for &dst in &hosts {
            if src == dst {
                continue;
            }
            for &addr in &topo.node(dst).addresses {
                depth = depth.max(tf.terminal_path(src, addr)?.0.len());
            }
        }
    }
    Ok(depth)
}
