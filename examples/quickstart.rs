//! Quickstart: isolation and checkpointing in thirty lines each.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The paper's third capability, information flow control, lives in the
//! `rbs-ifc` crate with its own examples:
//! `cargo run -p rbs-ifc --example ifc_secure_store`.

use rust_beyond_safety::checkpoint::{checkpoint, restore, CkRc};
use rust_beyond_safety::sfi::{DomainManager, RRef};

fn main() {
    // ── Isolation: protection domains and remote references ──────────
    println!("== SFI: zero-copy isolation ==");
    let mgr = DomainManager::new();
    let d = mgr.create_domain("key-value-store").expect("no quota");
    // Create an object inside the domain and export it as an rref.
    let store = d
        .execute(|| RRef::new(&d, Vec::<(String, u64)>::new()))
        .expect("fresh domain");
    // Ownership of the key moves across the boundary — zero copies.
    let key = String::from("requests");
    store
        .invoke_mut(move |s| s.push((key, 1)))
        .expect("healthy domain");
    let len = store.invoke(|s| s.len()).expect("healthy domain");
    println!(
        "  store holds {len} entries, exported objects: {}",
        d.exported_objects()
    );
    // Revoke the capability: every clone dies with it.
    store.revoke();
    println!(
        "  after revoke, invoke -> {:?}",
        store.invoke(|s| s.len()).unwrap_err()
    );

    // ── Automation: checkpointing with aliasing ───────────────────────
    println!("\n== Checkpointing: shared rules copied once ==");
    let rule = CkRc::new(String::from("deny tcp:23 from anywhere"));
    let table = vec![rule.clone(), rule.clone(), rule]; // three aliases
    let cp = checkpoint(&table);
    println!(
        "  3 references, {} copy, {} dedup hits",
        cp.stats.shared_copied, cp.stats.shared_hits
    );
    let restored: Vec<CkRc<String>> = restore(&cp).expect("roundtrip");
    println!(
        "  restored sharing intact: {}",
        CkRc::ptr_eq(&restored[0], &restored[2])
    );
}
