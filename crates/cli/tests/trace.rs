//! `vmn check --trace` prints a witness under every `VIOLATED` line, and
//! each witness is that invariant's own: symmetry shares only `Holds`, so
//! a member of a violated symmetry group is verified on its own and its
//! witness names its own endpoints, not its representative's.

use std::process::Command;

#[test]
fn a_symmetric_violation_prints_its_own_witness() {
    let config = "\
host a1 10.1.0.1
host a2 10.1.0.2
host b1 10.2.0.1
switch sw
link a1 sw
link a2 sw
link b1 sw
autoroute
verify node-isolation a1 -> b1
verify node-isolation a2 -> b1
";
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("inherited_witness.vmn");
    std::fs::write(&path, config).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_vmn"))
        .arg("check")
        .arg(&path)
        .arg("--trace")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "a violation exits 1:\n{stdout}");

    // Each VIOLATED line and the witness lines under it, by invariant.
    let mut blocks: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("VIOLATED") {
            blocks.push((line, Vec::new()));
        } else if let (Some(block), true) = (blocks.last_mut(), line.starts_with("  [")) {
            block.1.push(line);
        }
    }
    assert_eq!(blocks.len(), 2, "{stdout}");
    let (a2_line, a2_witness) = &blocks[1];
    assert!(a2_line.contains("a2 -> b1") && !a2_line.contains("by symmetry"), "{stdout}");
    assert!(!a2_witness.is_empty(), "the symmetric member has a witness:\n{stdout}");
    assert!(a2_witness[0].contains("a2 sends"), "the witness names a2:\n{stdout}");
    assert!(a2_witness.iter().all(|l| !l.contains("a1")), "not a1's witness:\n{stdout}");
    let (a1_line, a1_witness) = &blocks[0];
    assert!(a1_line.contains("a1 -> b1") && a1_witness[0].contains("a1 sends"), "{stdout}");
}
