//! Regenerates every figure of the paper's evaluation as text tables.
//!
//! Usage:
//!   figures [--fig 2|3|4|5|7|8|9b|9c|ablation|all] [--samples N]
//!
//! Default: all figures, 3 samples per point. The output of a full run is
//! recorded in EXPERIMENTS.md (paper-vs-measured).

use vmn_bench::{figures, print_series};

fn main() {
    let mut which = "all".to_string();
    let mut samples = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fig" => which = args.next().expect("--fig needs a value"),
            "--samples" => {
                samples = args.next().expect("--samples needs a value").parse().expect("number")
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let run = |f: &str| which == "all" || which == f;
    if run("2") {
        print_series(
            "Figure 2: per-invariant time, datacenter misconfigurations",
            &figures::fig2(samples),
        );
    }
    if run("3") {
        print_series("Figure 3: all invariants vs policy complexity", &figures::fig3(samples));
    }
    if run("4") {
        print_series(
            "Figure 4: data-isolation per-invariant time vs policy complexity",
            &figures::fig4(samples),
        );
    }
    if run("5") {
        print_series(
            "Figure 5: all data-isolation invariants vs policy complexity",
            &figures::fig5(samples),
        );
    }
    if run("7") {
        print_series("Figure 7: enterprise — slice vs whole network", &figures::fig7(samples));
    }
    if run("8") {
        print_series("Figure 8: multi-tenant — slice vs whole network", &figures::fig8(samples));
    }
    if run("9b") {
        print_series(
            "Figure 9(b): ISP — slice vs whole network (subnets)",
            &figures::fig9b(samples),
        );
    }
    if run("9c") {
        print_series(
            "Figure 9(c): ISP — slice vs whole network (peering points)",
            &figures::fig9c(samples),
        );
    }
    if run("ablation") {
        print_series(
            "Ablation: slices and symmetry toggled independently",
            &figures::ablation(samples),
        );
    }
}
