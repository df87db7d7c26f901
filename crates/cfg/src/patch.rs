//! Atomic configuration edits and patches.
//!
//! A [`Patch`] is the unit the fix layer produces: a list of [`Edit`]s,
//! each targeting one device. Edits address statements by 0-based index
//! (i.e. `LineId::index()`); [`Patch::apply`] executes a patch against a
//! [`NetworkConfig`] clone-free and returns the set of touched line ids so
//! the incremental verifier knows what to invalidate.
//!
//! Index discipline: edits inside one patch are applied **in the order
//! given**, and each edit's index refers to the document *as it is at that
//! moment* (i.e. after earlier edits of the same patch). Generators that
//! build multi-edit patches therefore either target distinct devices or
//! order edits back-to-front.

use crate::ast::Stmt;
use crate::config::{LineId, NetworkConfig};
use crate::error::CfgError;
use acr_net_types::RouterId;
use std::collections::BTreeMap;
use std::fmt;

/// One atomic edit on one device's statement list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Edit {
    /// Insert `stmt` so that it becomes the statement at `index`
    /// (0-based); `index == len` appends. Inserting after a block's header
    /// (or between two of its sub-statements) places the statement inside
    /// that block.
    Insert {
        router: RouterId,
        index: usize,
        stmt: Stmt,
    },
    /// Delete the statement at `index`.
    Delete { router: RouterId, index: usize },
    /// Replace the statement at `index` with `stmt`.
    Replace {
        router: RouterId,
        index: usize,
        stmt: Stmt,
    },
}

impl Edit {
    /// The device the edit touches.
    pub fn router(&self) -> RouterId {
        match self {
            Edit::Insert { router, .. }
            | Edit::Delete { router, .. }
            | Edit::Replace { router, .. } => *router,
        }
    }

    /// The 0-based statement index the edit addresses; no statement before
    /// it moves.
    pub fn index(&self) -> usize {
        match self {
            Edit::Insert { index, .. }
            | Edit::Delete { index, .. }
            | Edit::Replace { index, .. } => *index,
        }
    }
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::Insert {
                router,
                index,
                stmt,
            } => {
                write!(f, "{router}: insert @{index}: {}", stmt.to_string().trim())
            }
            Edit::Delete { router, index } => write!(f, "{router}: delete @{index}"),
            Edit::Replace {
                router,
                index,
                stmt,
            } => {
                write!(f, "{router}: replace @{index}: {}", stmt.to_string().trim())
            }
        }
    }
}

/// A candidate configuration update: an ordered list of atomic edits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Patch {
    pub edits: Vec<Edit>,
}

impl Patch {
    /// The empty patch.
    pub fn new() -> Self {
        Patch::default()
    }

    /// A patch with a single edit.
    pub fn single(edit: Edit) -> Self {
        Patch { edits: vec![edit] }
    }

    /// Appends an edit.
    pub fn push(&mut self, edit: Edit) {
        self.edits.push(edit);
    }

    /// Concatenates two patches (the evolutionary crossover building block).
    pub fn concat(&self, other: &Patch) -> Patch {
        let mut edits = self.edits.clone();
        edits.extend(other.edits.iter().cloned());
        Patch { edits }
    }

    /// Whether the patch does nothing.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Number of atomic edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Devices touched by the patch, deduplicated, in first-touch order.
    pub fn routers(&self) -> Vec<RouterId> {
        let mut out = Vec::new();
        for e in &self.edits {
            if !out.contains(&e.router()) {
                out.push(e.router());
            }
        }
        out
    }

    /// Applies the patch to `net` in place.
    ///
    /// On success returns the line ids now occupied by inserted/replaced
    /// statements (for provenance invalidation). On failure the network may
    /// be partially edited — callers that need atomicity apply to a clone,
    /// which is what the repair engine does.
    pub fn apply(&self, net: &mut NetworkConfig) -> Result<Vec<LineId>, CfgError> {
        let mut touched = Vec::new();
        for edit in &self.edits {
            let router = edit.router();
            let device = net
                .device_mut(router)
                .ok_or_else(|| CfgError::UnknownDevice(router.to_string()))?;
            let name = device.name().to_string();
            let stmts = device.stmts_mut();
            match edit {
                Edit::Insert { index, stmt, .. } => {
                    if *index > stmts.len() {
                        return Err(CfgError::BadEditTarget {
                            device: name,
                            index: *index,
                            len: stmts.len(),
                        });
                    }
                    stmts.insert(*index, stmt.clone());
                    touched.push(LineId::new(router, *index as u32 + 1));
                }
                Edit::Delete { index, .. } => {
                    if *index >= stmts.len() {
                        return Err(CfgError::BadEditTarget {
                            device: name,
                            index: *index,
                            len: stmts.len(),
                        });
                    }
                    stmts.remove(*index);
                }
                Edit::Replace { index, stmt, .. } => {
                    if *index >= stmts.len() {
                        return Err(CfgError::BadEditTarget {
                            device: name,
                            index: *index,
                            len: stmts.len(),
                        });
                    }
                    stmts[*index] = stmt.clone();
                    touched.push(LineId::new(router, *index as u32 + 1));
                }
            }
        }
        Ok(touched)
    }

    /// Applies the patch to a clone, leaving `net` untouched.
    pub fn apply_cloned(&self, net: &NetworkConfig) -> Result<NetworkConfig, CfgError> {
        let mut clone = net.clone();
        self.apply(&mut clone)?;
        Ok(clone)
    }
}

/// How a patched configuration's statements are numbered in the lines of
/// the configuration the patch was applied to — the committed one.
///
/// A statement the patch kept keeps its committed line; an inserted or
/// replaced statement gets a fresh line above its device's committed
/// length, so a renumbered statement is not a changed one. Lines the patch
/// deleted or replaced are *dead*: nothing the patched configuration
/// compiles to can name them. [`LineMap::render`] turns a line of this
/// numbering into the patched configuration's own line. Routers the patch
/// does not touch are numbered as they are, and the empty map numbers
/// every device by its own lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineMap {
    devices: BTreeMap<RouterId, DeviceLines>,
}

/// One touched device's numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeviceLines {
    /// The committed device's length: lines up to it are committed ones,
    /// lines above it fresh.
    committed: u32,
    /// Per patched statement, by index, its line.
    ids: Vec<u32>,
    /// Per line, the patched statement's own 1-based line; 0 for a dead
    /// line.
    rendered: Vec<u32>,
}

impl LineMap {
    /// The numbering of `cfg`, which must be a configuration `patch`
    /// applies to, with `patch` applied. A touched device's committed
    /// length is its patched length minus the patch's inserts plus its
    /// deletes, so the committed configuration itself is not needed.
    pub fn new(cfg: &NetworkConfig, patch: &Patch) -> LineMap {
        let mut devices = BTreeMap::new();
        for router in patch.routers() {
            let Some(device) = cfg.device(router) else {
                continue;
            };
            let edits = patch.edits.iter().filter(|e| e.router() == router);
            let (inserts, deletes) = edits.clone().fold((0, 0), |(i, d), e| match e {
                Edit::Insert { .. } => (i + 1, d),
                Edit::Delete { .. } => (i, d + 1),
                Edit::Replace { .. } => (i, d),
            });
            let committed = (device.len() + deletes - inserts) as u32;
            let mut ids: Vec<u32> = (1..=committed).collect();
            let mut fresh = committed;
            for edit in edits {
                match edit {
                    Edit::Insert { index, .. } => {
                        fresh += 1;
                        ids.insert(*index, fresh);
                    }
                    Edit::Delete { index, .. } => {
                        ids.remove(*index);
                    }
                    Edit::Replace { index, .. } => {
                        fresh += 1;
                        ids[*index] = fresh;
                    }
                }
            }
            let mut rendered = vec![0; fresh as usize + 1];
            for (i, id) in ids.iter().enumerate() {
                rendered[*id as usize] = i as u32 + 1;
            }
            let lines = DeviceLines {
                committed,
                ids,
                rendered,
            };
            devices.insert(router, lines);
        }
        LineMap { devices }
    }

    /// The line of each of a touched router's statements, by index;
    /// `None` for a router numbered by its own lines.
    pub fn ids(&self, router: RouterId) -> Option<&[u32]> {
        self.devices.get(&router).map(|d| &d.ids[..])
    }

    /// The dead lines — the committed lines the patch deleted or
    /// replaced — in order.
    pub fn dead(&self) -> impl Iterator<Item = LineId> + '_ {
        self.devices.iter().flat_map(|(router, d)| {
            (1..=d.committed)
                .filter(|l| d.rendered[*l as usize] == 0)
                .map(|l| LineId::new(*router, l))
        })
    }

    /// The patched configuration's own line for `l`, a line of this
    /// numbering. A dead line has none; it renders as itself.
    pub fn render(&self, l: LineId) -> LineId {
        match self.devices.get(&l.router) {
            Some(d) => {
                let own = d.rendered.get(l.line as usize).copied().unwrap_or(0);
                debug_assert!(own != 0, "{l} is not a line of the patched configuration");
                LineId::new(l.router, if own == 0 { l.line } else { own })
            }
            None => l,
        }
    }
}

impl fmt::Display for Patch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.edits.is_empty() {
            return f.write_str("(empty patch)");
        }
        for (i, e) in self.edits.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::NextHop;
    use crate::config::DeviceConfig;
    use crate::parse::parse_device;
    use acr_net_types::Prefix;

    fn net() -> NetworkConfig {
        let mut n = NetworkConfig::new();
        n.insert(
            RouterId(0),
            parse_device(
                "A",
                "bgp 1\n router-id 1.1.1.1\nip route-static 10.0.0.0 8 NULL0\n",
            )
            .unwrap(),
        );
        n
    }

    fn static_route(p: &str) -> Stmt {
        Stmt::StaticRoute {
            prefix: p.parse::<Prefix>().unwrap(),
            next_hop: NextHop::Null0,
        }
    }

    #[test]
    fn insert_shifts_lines() {
        let mut n = net();
        let touched = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 2,
            stmt: static_route("20.0.0.0/8"),
        })
        .apply(&mut n)
        .unwrap();
        assert_eq!(touched, vec![LineId::new(RouterId(0), 3)]);
        let d = n.device(RouterId(0)).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.line(3), Some(&static_route("20.0.0.0/8")));
        assert_eq!(
            d.line(4).unwrap().to_string(),
            "ip route-static 10.0.0.0 8 NULL0"
        );
    }

    #[test]
    fn append_at_len_is_allowed() {
        let mut n = net();
        Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 3,
            stmt: static_route("30.0.0.0/8"),
        })
        .apply(&mut n)
        .unwrap();
        assert_eq!(n.device(RouterId(0)).unwrap().len(), 4);
    }

    #[test]
    fn delete_and_replace() {
        let mut n = net();
        let mut p = Patch::new();
        p.push(Edit::Replace {
            router: RouterId(0),
            index: 2,
            stmt: static_route("99.0.0.0/8"),
        });
        p.push(Edit::Delete {
            router: RouterId(0),
            index: 1,
        });
        p.apply(&mut n).unwrap();
        let d = n.device(RouterId(0)).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.line(2), Some(&static_route("99.0.0.0/8")));
    }

    #[test]
    fn out_of_range_errors() {
        let mut n = net();
        let err = Patch::single(Edit::Delete {
            router: RouterId(0),
            index: 3,
        })
        .apply(&mut n)
        .unwrap_err();
        assert!(
            matches!(
                err,
                CfgError::BadEditTarget {
                    index: 3,
                    len: 3,
                    ..
                }
            ),
            "{err}"
        );
        let err = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 4,
            stmt: static_route("1.0.0.0/8"),
        })
        .apply(&mut n)
        .unwrap_err();
        assert!(matches!(err, CfgError::BadEditTarget { .. }), "{err}");
        let err = Patch::single(Edit::Delete {
            router: RouterId(9),
            index: 0,
        })
        .apply(&mut n)
        .unwrap_err();
        assert!(matches!(err, CfgError::UnknownDevice(_)), "{err}");
    }

    #[test]
    fn apply_cloned_leaves_original() {
        let n = net();
        let fp = n.fingerprint();
        let patched = Patch::single(Edit::Delete {
            router: RouterId(0),
            index: 0,
        })
        .apply_cloned(&n)
        .unwrap();
        assert_eq!(n.fingerprint(), fp);
        assert_ne!(patched.fingerprint(), fp);
    }

    #[test]
    fn insert_lands_inside_block_for_reparse() {
        // Inserting a `network` statement right after the bgp header keeps
        // the printed config parseable (it is inside the bgp block).
        let mut n = net();
        Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 1,
            stmt: Stmt::Network("10.0.0.0/8".parse().unwrap()),
        })
        .apply(&mut n)
        .unwrap();
        let text = n.device(RouterId(0)).unwrap().to_text();
        assert!(
            parse_device("A", &text).is_ok(),
            "patched config must reparse:\n{text}"
        );
    }

    #[test]
    fn patch_display_and_helpers() {
        let mut p = Patch::new();
        assert!(p.is_empty());
        p.push(Edit::Delete {
            router: RouterId(1),
            index: 0,
        });
        p.push(Edit::Delete {
            router: RouterId(1),
            index: 1,
        });
        p.push(Edit::Delete {
            router: RouterId(2),
            index: 0,
        });
        assert_eq!(p.len(), 3);
        assert_eq!(p.routers(), vec![RouterId(1), RouterId(2)]);
        assert!(p.to_string().contains("r1: delete @0"));
        let q = p.concat(&Patch::single(Edit::Delete {
            router: RouterId(3),
            index: 0,
        }));
        assert_eq!(q.len(), 4);
    }

    /// A kept statement keeps its committed line, an inserted or replaced
    /// one gets a fresh line, and rendering recovers the patched lines.
    #[test]
    fn line_map_numbers_kept_statements_by_their_committed_lines() {
        let n = net();
        let r = RouterId(0);
        let patch = Patch {
            edits: vec![
                Edit::Insert {
                    router: r,
                    index: 0,
                    stmt: Stmt::Remark("top".into()),
                },
                Edit::Delete {
                    router: r,
                    index: 2,
                },
                Edit::Replace {
                    router: r,
                    index: 2,
                    stmt: static_route("99.0.0.0/8"),
                },
                Edit::Insert {
                    router: r,
                    index: 3,
                    stmt: static_route("98.0.0.0/8"),
                },
            ],
        };
        let patched = patch.apply_cloned(&n).unwrap();
        let map = LineMap::new(&patched, &patch);
        // Committed: 1 bgp, 2 router-id, 3 static. Patched: remark,
        // bgp, the replacement of line 3, the appended route.
        assert_eq!(map.ids(r), Some(&[4, 1, 5, 6][..]));
        assert_eq!(
            map.dead().collect::<Vec<_>>(),
            [LineId::new(r, 2), LineId::new(r, 3)]
        );
        let own: Vec<u32> = [4, 1, 5, 6]
            .map(|l| map.render(LineId::new(r, l)).line)
            .into();
        assert_eq!(own, [1, 2, 3, 4]);
        let other = LineId::new(RouterId(5), 9);
        assert_eq!(
            map.render(other),
            other,
            "an untouched router keeps its lines"
        );
        assert_eq!(map.ids(RouterId(5)), None);
        assert_eq!(LineMap::new(&n, &Patch::new()), LineMap::default());
    }

    #[test]
    fn empty_device_insert() {
        let mut n = NetworkConfig::new();
        n.insert(RouterId(0), DeviceConfig::new("E", vec![]));
        Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 0,
            stmt: static_route("1.0.0.0/8"),
        })
        .apply(&mut n)
        .unwrap();
        assert_eq!(n.device(RouterId(0)).unwrap().len(), 1);
    }
}
