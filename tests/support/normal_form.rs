//! The shape of every witness the verifier returns: the encoder searches
//! only traces in its normal form (`vmn::encoder`, *Trace normal form*),
//! so a witness that breaks one of the three rules means the rule is no
//! longer asserted.

use vmn::{Invariant, StepKind, Trace};

/// Asserts that `trace` — a witness against `inv` — is in normal form:
/// no idle step before an event, the last event is the reception `inv`
/// forbids, and every earlier host send is consumed by a later
/// processing step.
pub fn assert_normal_form(trace: &Trace, inv: &Invariant, label: &str) {
    let steps = &trace.steps;
    let events = steps.iter().take_while(|s| s.kind != StepKind::Idle).count();
    let show = || format!("{label}: {inv}\n{steps:#?}");
    assert!(
        steps[events..].iter().all(|s| s.kind == StepKind::Idle),
        "an idle step precedes an event — {}",
        show()
    );
    let last = events.checked_sub(1).unwrap_or_else(|| panic!("no event — {}", show()));
    let (Invariant::NodeIsolation { dst, .. }
    | Invariant::FlowIsolation { dst, .. }
    | Invariant::DataIsolation { dst, .. }
    | Invariant::Traversal { dst, .. }) = inv;
    assert_eq!(
        steps[last].delivered_to,
        Some(*dst),
        "the last event is not the violating reception — {}",
        show()
    );
    for (i, s) in steps[..last].iter().enumerate() {
        let consumed = steps[i + 1..events]
            .iter()
            .any(|p| p.kind == StepKind::MboxProcess && p.target == Some(i));
        assert!(
            s.kind != StepKind::HostSend || consumed,
            "the packet sent at step {i} is never processed — {}",
            show()
        );
    }
}
