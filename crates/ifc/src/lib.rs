//! Static information flow control by abstract interpretation (§4).
//!
//! The paper formulates IFC as "verification of an abstract interpretation
//! of the program": every variable's value is abstracted by its security
//! label, expressions join the labels of their operands, an auxiliary
//! program-counter label tracks implicit flows through branches, and the
//! verifier proves that labels written to output channels never exceed the
//! channel's bound. The punchline is *why this is cheap in Rust*: move
//! semantics rule out aliasing, so the analysis never needs a points-to
//! step — and the use-after-move exploit of the paper's buffer example is
//! rejected by the ownership discipline before labels are even consulted.
//!
//! This crate implements the whole pipeline natively (the paper used Rust
//! macros + the SMACK verifier; see DESIGN.md substitution 3):
//!
//! - [`label`]: the security lattice — a join-semilattice of secrecy
//!   atoms, covering both the two-point public/secret lattice and
//!   per-principal labels for the secure store;
//! - [`ir`]: a small imperative language with *move semantics on heap
//!   values*, mirroring the Rust subset the paper analyses, plus an
//!   aliasing mode that models a conventional C-like language;
//! - [`parse`]: a text frontend for writing example programs;
//! - [`ownership`]: the borrow-checker stand-in — rejects use-after-move
//!   (the paper's line 17);
//! - [`interp`]: the label abstract interpreter with pc-taint and
//!   fixpoint loops;
//! - [`alias`]: the conventional-language baseline — Andersen-style
//!   points-to analysis composed with taint, needed for the same
//!   precision once aliasing exists (E5 measures its cost);
//! - [`summary`]: compositional function summaries, the paper's
//!   "further improvements" paragraph;
//! - [`verify`]: the driver producing verdicts and violation traces;
//! - [`progen`]: synthetic program families for the scaling experiments;
//! - [`examples`]: the paper's buffer example and the secure data store
//!   (with its seeded bug).

#![forbid(unsafe_code)]

pub mod alias;
pub mod declass;
pub mod examples;
pub mod exec;
pub mod interp;
pub mod ir;
pub mod label;
pub mod ownership;
pub mod parse;
pub mod pretty;
pub mod progen;
pub mod summary;
pub mod verify;

pub use interp::LabelState;
pub use ir::{Expr, Function, Program, Stmt};
pub use label::Label;
pub use ownership::OwnershipError;
pub use verify::{Verdict, Violation};
