//! **Figure 12** — Quantifying the benefits of the BoLT designs: the
//! ablation ladder (stock → +LS → +GC → +STL → +FC) over the full YCSB
//! suite, (a) on the LevelDB profile and (b) on the HyperLevelDB profile,
//! plus the total-bytes-written inset.
//!
//! The paper's shape: `+LS` alone roughly matches stock LevelDB (small
//! compactions burn the fsync saving), `+GC` jumps ~2.5× on the loads,
//! `+STL` adds a further write reduction (~9.5 % fewer bytes), `+FC` helps
//! read-heavy phases; on HyperLevelDB `+LS` is the *worst* configuration.
//!
//! Run: `cargo bench -p bolt-bench --bench fig12_ablation`

use bolt_bench::{
    fig12a_profiles, fig12b_profiles, mb, report, run_suite, SuiteConfig, SUITE_HEADERS,
};

fn run_part(part: &str, profiles: Vec<(&'static str, bolt_bench::bolt_core::Options)>) {
    let cfg = SuiteConfig::default();
    let rows: Vec<_> = profiles
        .into_iter()
        .map(|(name, opts)| {
            let result = run_suite(name, opts, &cfg);
            result.kops_row([mb(result.bytes_written)])
        })
        .collect();
    let headers = [&SUITE_HEADERS[..], &["written_MB"]].concat();
    report(
        &format!("Fig 12({part}) — BoLT ablations, throughput in kops/s"),
        &format!("fig12{part}_ablation"),
        &headers,
        &rows,
    );
}

fn main() {
    run_part("a", fig12a_profiles());
    run_part("b", fig12b_profiles());
    println!(
        "\npaper shape: +LS ≈ stock (fsync saving burned by small compactions);\n\
         +GC ≈ 2.5x on LA/LE; +STL trims total bytes written; +FC lifts reads.\n\
         On Hyper (b), +LS is the worst configuration."
    );
}
