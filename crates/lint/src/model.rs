//! Workspace model: the parsed item skeletons of every file, stitched
//! into name-indexed tables and an intra-workspace call graph.
//!
//! Name resolution is deliberately coarse — the linter has no type
//! information, so a call `foo(…)` resolves to every non-test function
//! named `foo` with a preference order of same file, then same crate,
//! then the whole workspace. That over-approximates the real call graph
//! (a `cycle()` call in `sim.rs` may resolve to several `cycle`
//! methods), which is the safe direction for the reachability lints:
//! P1/T1 may consider a function reachable that is not, but never miss
//! one that is. Functions defined in crates outside
//! [`Policy::call_graph_crates`] are not candidates at all, which keeps
//! host-side tooling (the linter itself, the sweep server) from
//! polluting simulator call chains through common names like `run`.
//!
//! [`Policy::call_graph_crates`]: crate::config::Policy

use std::collections::BTreeMap;

use crate::config::Policy;
use crate::parser::{parse_file, FnDef, ParsedFile, Site, StructDef};
use crate::scanner::FileInfo;

/// Method/function names so common on std containers that a cross-crate
/// edge through them is noise, not signal (a `queue.push(…)` in gpusim
/// must not resolve to `telemetry::Series::push`). Same-file and
/// same-crate candidates still resolve — a local `push` shadows std.
const COMMON_STD_NAMES: &[&str] = &[
    "clear",
    "contains",
    "default",
    "drain",
    "extend",
    "find",
    "from",
    "get",
    "insert",
    "len",
    "new",
    "next",
    "pop",
    "position",
    "push",
    "remove",
    "replace",
    "resize",
    "retain",
    "swap",
    "take",
    "truncate",
    "with_capacity",
];

/// Primitive type names: a `u64::from(…)`-style qualified call never
/// targets workspace code.
const PRIMITIVES: &[&str] = &[
    "bool", "char", "f32", "f64", "i128", "i16", "i32", "i64", "i8", "isize", "str", "u128", "u16", "u32",
    "u64", "u8", "usize",
];

/// Index of a function in [`WorkspaceModel::fns`].
pub type FnId = usize;

/// One tier of callee resolution: which candidate functions it accepts.
type CandidateFilter<'a> = &'a dyn Fn(&FnNode) -> bool;

/// A function plus its defining file.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate the file belongs to.
    pub krate: String,
    /// The parsed definition.
    pub def: FnDef,
}

/// One call site together with its resolved targets.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// The call site (name, position).
    pub site: Site,
    /// Candidate target functions, best-preference tier only.
    pub targets: Vec<FnId>,
}

/// The stitched-together workspace: item tables plus the call graph.
pub struct WorkspaceModel {
    /// Per-file parse results, in input order.
    pub files: Vec<(String, ParsedFile)>,
    /// Non-test functions from call-graph crates, the graph's nodes.
    pub fns: Vec<FnNode>,
    /// Per-function resolved call sites (parallel to `fns`).
    pub calls: Vec<Vec<ResolvedCall>>,
    by_name: BTreeMap<String, Vec<FnId>>,
    structs: BTreeMap<String, Vec<(String, StructDef)>>,
    enums: BTreeMap<String, Vec<String>>,
}

impl WorkspaceModel {
    /// Parses every file and builds the call graph. `files` pairs
    /// repo-relative paths with analyzed file info.
    pub fn build(files: &[(String, FileInfo<'_>)], policy: &Policy) -> Self {
        let entries: Vec<&str> = policy.phase_entry_points.iter().map(|s| s.as_str()).collect();
        let parsed: Vec<(String, ParsedFile)> =
            files.iter().map(|(rel, info)| (rel.clone(), parse_file(info, &entries))).collect();

        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut structs: BTreeMap<String, Vec<(String, StructDef)>> = BTreeMap::new();
        let mut enums: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (rel, pf) in &parsed {
            let krate = Policy::crate_of(rel).to_string();
            for s in &pf.structs {
                if !s.is_test {
                    structs.entry(s.name.clone()).or_default().push((rel.clone(), s.clone()));
                }
            }
            for e in &pf.enums {
                if !e.is_test {
                    enums.entry(e.name.clone()).or_default().push(rel.clone());
                }
            }
            if !policy.call_graph_crates.iter().any(|c| c == &krate) {
                continue;
            }
            for def in &pf.fns {
                if def.is_test {
                    continue;
                }
                let id = fns.len();
                by_name.entry(def.name.clone()).or_default().push(id);
                fns.push(FnNode { file: rel.clone(), krate: krate.clone(), def: def.clone() });
            }
        }

        let mut model = WorkspaceModel { files: parsed, fns, calls: Vec::new(), by_name, structs, enums };
        model.calls = model
            .fns
            .iter()
            .enumerate()
            .map(|(id, node)| {
                node.def
                    .calls
                    .iter()
                    .map(|site| ResolvedCall { site: site.clone(), targets: model.resolve_call(site, id) })
                    .collect()
            })
            .collect();
        model
    }

    /// Resolves one call site from the perspective of the calling
    /// function. Path-qualified calls (`Type::name(…)`) resolve through
    /// the qualifier: a known workspace type restricts candidates to
    /// its associated functions; `Self` uses the caller's impl type; an
    /// unknown capitalized or primitive qualifier is a std type and
    /// produces no edge. Unqualified and module-qualified calls fall
    /// back to name tiers.
    fn resolve_call(&self, site: &Site, caller: FnId) -> Vec<FnId> {
        let node = &self.fns[caller];
        let qual = match site.qual.as_deref() {
            Some("Self") => node.def.self_ty.as_deref(),
            q => q,
        };
        if let Some(q) = qual {
            if PRIMITIVES.contains(&q) {
                return Vec::new();
            }
            if q.starts_with(char::is_uppercase) {
                let cands: Vec<FnId> = self
                    .by_name
                    .get(&site.name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| id != caller && self.fns[id].def.self_ty.as_deref() == Some(q))
                            .collect()
                    })
                    .unwrap_or_default();
                return self.prefer_tiers(cands, &node.file, &node.krate);
            }
        }
        self.resolve(&node.file, &node.krate, &site.name, caller, site.method)
    }

    /// Keeps only the best-preference tier of `cands`: same file, else
    /// same crate, else all.
    fn prefer_tiers(&self, cands: Vec<FnId>, file: &str, krate: &str) -> Vec<FnId> {
        let tiers: [&dyn Fn(&FnNode) -> bool; 3] =
            [&|n: &FnNode| n.file == file, &|n: &FnNode| n.krate == krate, &|_| true];
        for tier in tiers {
            let hit: Vec<FnId> = cands.iter().copied().filter(|&id| tier(&self.fns[id])).collect();
            if !hit.is_empty() {
                return hit;
            }
        }
        Vec::new()
    }

    /// Resolves a callee name from the perspective of `file`/`krate`:
    /// candidates in the same file win, else same crate, else anywhere
    /// in the call-graph crates — except for [`COMMON_STD_NAMES`],
    /// which never cross a crate boundary. Method calls (`require_self`)
    /// only target functions with a receiver. Self-edges are dropped
    /// (recursion adds nothing to reachability).
    fn resolve(&self, file: &str, krate: &str, name: &str, caller: FnId, require_self: bool) -> Vec<FnId> {
        let Some(cands) = self.by_name.get(name) else { return Vec::new() };
        let cross_crate_ok = !COMMON_STD_NAMES.contains(&name);
        let tiers: [(CandidateFilter<'_>, bool); 3] = [
            (&|n: &FnNode| n.file == file, true),
            (&|n: &FnNode| n.krate == krate, true),
            (&|_| true, cross_crate_ok),
        ];
        for (tier, enabled) in tiers {
            if !enabled {
                continue;
            }
            let hit: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    id != caller && (!require_self || self.fns[id].def.has_self) && tier(&self.fns[id])
                })
                .collect();
            if !hit.is_empty() {
                return hit;
            }
        }
        Vec::new()
    }

    /// Function ids matching a bare name, resolved from `file`'s
    /// perspective (used to seed phase roots).
    pub fn resolve_name(&self, file: &str, name: &str) -> Vec<FnId> {
        self.resolve(file, Policy::crate_of(file), name, usize::MAX, false)
    }

    /// The unique non-test struct definition for `name` visible from
    /// `file`: per tier (same file, then same crate, then workspace), an
    /// enum of that name means "definitely not a struct" (`None`), a
    /// single struct wins, and an ambiguous name is skipped (`None`).
    pub fn resolve_struct(&self, file: &str, name: &str) -> Option<&StructDef> {
        let structs: &[(String, StructDef)] = self.structs.get(name).map_or(&[], Vec::as_slice);
        let enums: &[String] = self.enums.get(name).map_or(&[], Vec::as_slice);
        let krate = Policy::crate_of(file);
        type FileFilter<'f> = &'f dyn Fn(&str) -> bool;
        let tiers: [FileFilter<'_>; 3] =
            [&|f: &str| f == file, &|f: &str| Policy::crate_of(f) == krate, &|_| true];
        for tier in tiers {
            if enums.iter().any(|f| tier(f)) {
                return None;
            }
            let hits: Vec<&StructDef> = structs.iter().filter(|(f, _)| tier(f)).map(|(_, s)| s).collect();
            match hits.as_slice() {
                [one] => return Some(one),
                [] => continue,
                _ => return None,
            }
        }
        None
    }

    /// Breadth-first reachability from `roots` over the call graph.
    /// Returns per-function reachability plus, for each reached
    /// function, the id it was first reached from (roots map to
    /// themselves) — enough to reconstruct a witness path.
    pub fn reachable(&self, roots: &[FnId]) -> (Vec<bool>, Vec<FnId>) {
        let mut seen = vec![false; self.fns.len()];
        let mut parent: Vec<FnId> = (0..self.fns.len()).collect();
        let mut queue: Vec<FnId> = Vec::new();
        for &r in roots {
            if r < seen.len() && !seen[r] {
                seen[r] = true;
                queue.push(r);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let f = queue[qi];
            qi += 1;
            for rc in &self.calls[f] {
                for &t in &rc.targets {
                    if !seen[t] {
                        seen[t] = true;
                        parent[t] = f;
                        queue.push(t);
                    }
                }
            }
        }
        (seen, parent)
    }

    /// Reconstructs the witness path `root → … → id` from a parent map
    /// produced by [`WorkspaceModel::reachable`], as function names.
    pub fn witness_path(&self, parent: &[FnId], id: FnId) -> Vec<String> {
        let mut path = vec![self.fns[id].def.name.clone()];
        let mut cur = id;
        // A root is its own parent; bound the walk defensively.
        for _ in 0..64 {
            let p = parent[cur];
            if p == cur {
                break;
            }
            path.push(self.fns[p].def.name.clone());
            cur = p;
        }
        path.reverse();
        path
    }
}
