//! A small IFC verifier front-end: verify a program from a file, or the
//! built-in demo featuring declassification.
//!
//! ```sh
//! cargo run -p rbs-ifc --example ifc_verifier                # built-in demo
//! cargo run -p rbs-ifc --example ifc_verifier -- program.ifc # your own program
//! ```

use rbs_ifc::pretty::print_program;
use rbs_ifc::verify::{verify, Report};
use rbs_ifc::{parse, summary};

const DEMO: &str = r#"
channel audit_log {auditor, hr};    # auditors are cleared for HR data
channel public_report public;

# The payroll function may release aggregate salary data.
fn payroll_summary(s1 label {hr}, s2 label {hr}) authority {hr} {
    let total = s1 + s2;
    let released = declassify total;
    return released;
}

fn main() {
    let salary1 = 120 label {hr};
    let salary2 = 95 label {hr};

    # Aggregate release via the trusted function: allowed.
    let avg_basis = call payroll_summary(salary1, salary2);
    output public_report, avg_basis;

    # Raw salary to the audit log (cleared for hr data): allowed.
    output audit_log, salary1;

    # Raw salary straight to the public report: caught.
    output public_report, salary2;
}
"#;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let source = match args.first() {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => DEMO.to_string(),
    };

    let program = match parse::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(2);
        }
    };

    println!("== program (normalized) ==");
    print!("{}", print_program(&program));

    println!("== monolithic verification ==");
    print!("{}", Report::for_program(&program));

    println!("\n== compositional (summary-based) verification ==");
    println!("(summaries cannot strip declassified *parameter* labels at summary");
    println!(" time, so they may add sound-but-conservative reports)");
    match summary::analyze_with_summaries(&program) {
        Ok(violations) if violations.is_empty() => {
            println!("result: SAFE (no violations via summaries)");
        }
        Ok(violations) => {
            println!("result: {} violation(s) via summaries:", violations.len());
            for v in violations {
                println!("  {v}");
            }
        }
        Err(e) => println!("summaries unavailable: {e}"),
    }

    std::process::exit(match verify(&program) {
        rbs_ifc::verify::Verdict::Safe => 0,
        _ => 1,
    });
}
