//! The §4 secure data store: verify the correct implementation, then
//! seed the paper's access-check bug and watch the verifier find it.
//!
//! ```sh
//! cargo run -p rbs-ifc --example ifc_secure_store
//! ```

use rbs_ifc::alias;
use rbs_ifc::examples::{
    buffer_alias_exploit_source, secure_store_buggy_source, secure_store_source,
    BUFFER_ALIAS_EXPLOIT_SRC,
};
use rbs_ifc::verify::{verify, Report, Verdict};

fn main() {
    println!("== secure data store: correct implementation ==");
    let store = secure_store_source();
    print!("{}", Report::for_program(&store));

    println!("\n== secure data store: seeded access-check bug ==");
    let buggy = secure_store_buggy_source();
    print!("{}", Report::for_program(&buggy));

    println!("\n== the line-17 alias exploit, three ways ==");
    println!("{BUFFER_ALIAS_EXPLOIT_SRC}");
    let exploit = buffer_alias_exploit_source();

    // 1. Rust mode: the ownership discipline rejects line 17 outright.
    match verify(&exploit) {
        Verdict::OwnershipRejected(errors) => {
            println!("rust mode: rejected by the compiler --");
            for e in &errors {
                println!("  {e}");
            }
        }
        other => println!("rust mode: unexpected {other:?}"),
    }

    // 2. C mode with alias analysis: the leak is caught, at a price.
    let (violations, stats) = alias::analyze_alias(&exploit);
    println!(
        "\nc mode, with Andersen points-to ({} cells, {} edges, {} solver iterations):",
        stats.cells, stats.pts_edges, stats.solver_iterations
    );
    for v in &violations {
        println!("  caught: {v}");
    }

    // 3. C mode without alias analysis: silently missed.
    let naive = alias::analyze_naive(&exploit);
    println!(
        "\nc mode, per-variable taint only: {} violations reported — the leak slips through",
        naive.len()
    );
}
