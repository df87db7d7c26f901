//! # acr-cfg
//!
//! The router-configuration substrate of ACR:
//!
//! - [`ast`] — a vendor-neutral (Huawei-flavoured, matching the paper's
//!   Figure 2b) statement AST. A configuration is a flat, ordered list of
//!   statements; block structure (`bgp`, `route-policy`, `acl`,
//!   `traffic-policy`, `interface`) is implied by header statements, so a
//!   statement's **line number is its index + 1** — exactly the granularity
//!   the paper's Spectrum-Based Fault Localization scores.
//! - [`parse`] — a line-oriented parser with precise, line-numbered errors.
//! - [`config`] — [`DeviceConfig`] / [`NetworkConfig`] containers and the
//!   [`LineId`] addressing scheme used by coverage, SBFL and templates.
//! - [`model`] — the *semantic* view ([`DeviceModel`]): peers with
//!   group inheritance resolved, policies, prefix lists, ACLs, PBR, static
//!   routes — every element annotated with the source line that defined it
//!   (the hook provenance needs).
//! - [`patch`] — atomic edits (insert / delete / replace) and patches,
//!   the unit of repair the fix-generation layer produces, and the
//!   [`LineMap`] that numbers a patched configuration in the lines of the
//!   one it was applied to.
//! - [`mod@diff`] — LCS statement diffing of two configurations into a patch
//!   (for reviewing repairs as changesets and comparing against ground
//!   truth).
//!
//! Printing then re-parsing any configuration yields the same statement
//! list (round-trip property, see the proptest suite).

pub mod ast;
pub mod config;
pub mod diff;
pub mod error;
pub mod model;
pub mod parse;
pub mod patch;

pub use ast::{AclRuleCfg, Dir, MatchProto, NextHop, PbrAction, PeerRef, PlAction, Proto, Stmt};
pub use config::{DeviceConfig, LineId, NetworkConfig};
pub use diff::diff;
pub use error::CfgError;
pub use model::{
    AclEntry, DeviceModel, GroupCfg, MatchCond, PeerCfg, PlEntry, PolicyNode, StaticRouteCfg,
};
pub use patch::{Edit, LineMap, Patch};
