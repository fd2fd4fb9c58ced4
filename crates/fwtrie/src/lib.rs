//! The firewall rule database of the paper's Figure 3.
//!
//! "Consider, for instance, the task of checkpointing the state of a
//! network firewall that consists of rules indexed via a trie for fast
//! rule lookup based on packet headers. Multiple leaves of the trie can
//! point to the same rule, causing this rule to be encountered multiple
//! times during pointer traversal, potentially leading to redundant
//! copies of the rule." (§5)
//!
//! This crate is that firewall, built for real use *and* as the workload
//! for experiment E6:
//!
//! - [`rule`]: filter rules (prefixes, port range, protocol, action),
//!   checkpointable via the `checkpointable!` macro;
//! - [`trie`]: a binary longest-prefix-match trie over destination
//!   addresses whose leaves hold [`rbs_checkpoint::CkRc`]-shared rules —
//!   the same rule object may sit under many prefixes (Figure 3a), and
//!   checkpointing the trie copies it exactly once;
//! - [`index`]: the flat stride-8 array lookups are answered from,
//!   compiled lazily from the trie and never checkpointed;
//! - [`operator`]: the trie wrapped as a `rbs-netfx` pipeline stage, so
//!   the firewall can run inside the SFI-isolated pipelines of §3.

#![forbid(unsafe_code)]

pub mod index;
pub mod operator;
pub mod parse;
pub mod rule;
pub mod trie;

pub use operator::FirewallOp;
pub use parse::{parse_config, parse_rules, ConfigError};
pub use rule::{Action, Rule};
pub use trie::FwTrie;
