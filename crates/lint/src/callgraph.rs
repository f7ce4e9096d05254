//! Best-effort workspace call graph over the extracted items.
//!
//! Resolution is by name with two sharpeners — an explicit path qualifier
//! (`Type::method`, `module::helper`) narrows to matching self types or
//! modules, and a `.method(…)` call narrows to methods (`has_self`) — and
//! is otherwise *conservative on ambiguity*: a bare name shared by
//! several items produces an edge to every one of them.
//! Over-approximation is the designed failure mode: the taint and
//! panic-reach passes may report a path that the type checker would rule
//! out, but they cannot miss one through a resolvable call. A qualifier
//! names its type through a turbofish (`Type::<N>::new` names `Type`)
//! and through a workspace type alias (`type Han = MetapathModel<..>`
//! makes `Han::new` name `MetapathModel`); a type parameter of the
//! caller's file (`P::rows`) resolves like a bare name. The one
//! deliberate under-approximation: any other path qualifier that matches
//! no workspace self type or module names a *foreign* type
//! (`Condvar::new`), and the call resolves to nothing rather than to
//! every same-named workspace fn. Calls into `std` and vendored shims
//! likewise resolve to nothing and end the walk; macro bodies and
//! trait-object dispatch are the documented blind spots (DESIGN.md
//! §Static analysis). A crate is named by its directory and by its
//! package (`core` and `catehgn`), so `catehgn::train(…)` resolves as a
//! module path. A `Q::default` call on a struct that derives `Default`
//! reaches each named field's `<Type>::default`. The dead-pub pass's
//! graph also adds an edge for every function named as a value
//! (`map(Tensor::rows)`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{self, FnItem};
use crate::lexer::SigView;
use crate::scanner::Kind;

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Qual {
    /// Bare `name(…)`.
    None,
    /// Method syntax `recv.name(…)`.
    Method,
    /// Path syntax `Q::name(…)` with `Q` the last path segment before
    /// the callee name.
    Path(String),
    /// A bare name used as a value, `(name)` or `, name,`: a free
    /// function or a local, never a method or associated function.
    Value,
}

/// One resolved edge out of a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index of the callee in [`CallGraph::fns`].
    pub callee: usize,
    /// Line of the call site in the caller's file.
    pub line: u32,
}

pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// Outgoing edges per function (deduped by `(callee, line)`).
    pub calls: Vec<Vec<CallSite>>,
    /// Reverse edges: for each function, `(caller, call line)` pairs.
    pub callers: Vec<Vec<(usize, u32)>>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// Workspace type aliases: alias name to every type it names.
    aliases: BTreeMap<String, BTreeSet<String>>,
    /// Structs that derive `Default`: name to their field types.
    derived_defaults: BTreeMap<String, BTreeSet<String>>,
    /// Per file (indexed like `views`), the type parameter names it
    /// declares.
    type_params: Vec<BTreeSet<String>>,
}

impl CallGraph {
    /// Build the graph. `views[fns[i].file_idx]` must be the view of the
    /// file that defines `fns[i]`; `refs` adds the value-reference edges
    /// of the dead-pub graph (see [`for_each_call_site`]).
    pub fn build(fns: Vec<FnItem>, views: &[&SigView], refs: bool) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut aliases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (alias, target) in views.iter().flat_map(|v| items::type_aliases(v)) {
            aliases.entry(alias).or_default().insert(target);
        }
        let mut derived_defaults: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (ty, fields) in views.iter().flat_map(|v| items::derived_defaults(v)) {
            derived_defaults.entry(ty).or_default().extend(fields);
        }
        let mut graph = CallGraph {
            calls: vec![Vec::new(); fns.len()],
            callers: vec![Vec::new(); fns.len()],
            fns,
            by_name,
            aliases,
            derived_defaults,
            type_params: views.iter().map(|v| items::type_params(v)).collect(),
        };
        for caller in 0..graph.fns.len() {
            let Some((open, close)) = graph.fns[caller].body else {
                continue;
            };
            let view = views[graph.fns[caller].file_idx];
            let mut edges: BTreeSet<(usize, u32)> = BTreeSet::new();
            for_each_call_site(view, open + 1, close, refs, &mut |s, name, qual| {
                for callee in graph.resolve(name, &qual, Some(caller)) {
                    edges.insert((callee, view.line(s)));
                }
            });
            graph.calls[caller] = edges
                .iter()
                .map(|&(callee, line)| CallSite { callee, line })
                .collect();
            for &(callee, line) in &edges {
                graph.callers[callee].push((caller, line));
            }
        }
        graph
    }

    /// Resolve a callee name to candidate functions. A bare `name(…)`
    /// call resolves to every workspace item of that name (ambiguity is
    /// over-approximated). A `Q::name(…)` call resolves against self
    /// types first (the types `Q` aliases, when it is a workspace type
    /// alias), then module paths. A qualifier matching *neither* that is
    /// a type parameter declared in the caller's file (`P::rows(…)` under
    /// `impl<P: PathRows>`) resolves like a bare call; any other resolves
    /// to nothing — `Q` names a foreign type (`Condvar::new`), so keeping
    /// all same-named workspace fns would only produce false edges.
    /// `recv.name(…)` narrows to methods (`has_self`), again with no
    /// fallback: a bare fn cannot be a method callee. A bare value
    /// (`zip(name)`) resolves to free functions only: Rust cannot name a
    /// method or associated function without a path, so a local called
    /// `l2` must not keep `Graph::l2` alive. Test-only items never
    /// resolve for non-test callers.
    pub fn resolve(&self, name: &str, qual: &Qual, caller: Option<usize>) -> Vec<usize> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        let caller_in_test = caller.is_some_and(|c| self.fns[c].in_test);
        let visible = || {
            all.iter()
                .copied()
                .filter(|&i| caller_in_test || !self.fns[i].in_test)
        };
        match qual {
            Qual::None => visible().collect(),
            Qual::Value => visible()
                .filter(|&i| self.fns[i].self_ty.is_none())
                .collect(),
            Qual::Method => visible().filter(|&i| self.fns[i].has_self).collect(),
            // `crate::`/`super::`/`self::` carry position, not identity —
            // treat them as bare calls.
            Qual::Path(q) if matches!(q.as_str(), "crate" | "super" | "self") => {
                visible().collect()
            }
            Qual::Path(q) => {
                let q = if q == "Self" {
                    match caller.and_then(|c| self.fns[c].self_ty.clone()) {
                        Some(ty) => ty,
                        None => q.clone(),
                    }
                } else {
                    q.clone()
                };
                let aliased = self.aliases.get(&q);
                let mut by_ty: Vec<usize> = visible()
                    .filter(|&i| {
                        self.fns[i].self_ty.as_ref().is_some_and(|ty| {
                            *ty == q || aliased.is_some_and(|targets| targets.contains(ty))
                        })
                    })
                    .collect();
                if name == "default" {
                    by_ty.extend(self.derived_default(&q));
                }
                if !by_ty.is_empty() {
                    return by_ty;
                }
                let by_module: Vec<usize> = visible()
                    .filter(|&i| self.fns[i].self_ty.is_none() && self.fns[i].module.contains(&q))
                    .collect();
                // `P::name(…)` through a type parameter `P` of the
                // caller's file can reach any implementor's `name`.
                let type_param = caller.is_some_and(|c| {
                    self.type_params
                        .get(self.fns[c].file_idx)
                        .is_some_and(|params| params.contains(&q))
                });
                if by_module.is_empty() && type_param {
                    return visible().collect();
                }
                by_module
            }
        }
    }

    /// The non-test `default` fns that a derived `Default` on `ty` calls:
    /// each named field's `<Type>::default`, and theirs in turn where a
    /// field's own `Default` is derived.
    fn derived_default(&self, ty: &str) -> Vec<usize> {
        let defaults = self.by_name.get("default").map_or(&[][..], Vec::as_slice);
        let (mut out, mut seen, mut todo) = (Vec::new(), BTreeSet::new(), vec![ty]);
        while let Some(ty) = todo.pop() {
            let Some(fields) = self.derived_defaults.get(ty) else {
                continue;
            };
            if !seen.insert(ty) {
                continue;
            }
            for field in fields {
                out.extend(defaults.iter().copied().filter(|&i| {
                    !self.fns[i].in_test && self.fns[i].self_ty.as_deref() == Some(field.as_str())
                }));
                todo.push(field.as_str());
            }
        }
        out
    }

    /// Upward closure: propagate a fact from `seeds` to every transitive
    /// caller. The result maps each member to how it acquired the fact:
    /// `None` for seeds, `Some((callee, line))` for a call that reaches a
    /// tainted callee.
    pub fn propagate_up(&self, seeds: &BTreeSet<usize>) -> BTreeMap<usize, Option<(usize, u32)>> {
        let mut closure: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            closure.insert(s, None);
            queue.push_back(s);
        }
        while let Some(f) = queue.pop_front() {
            for &(caller, line) in &self.callers[f] {
                if let std::collections::btree_map::Entry::Vacant(e) = closure.entry(caller) {
                    e.insert(Some((f, line)));
                    queue.push_back(caller);
                }
            }
        }
        closure
    }

    /// Witness chain from `from` down to a seed, as
    /// `[(fn, Some(call line)), …, (seed, None)]`. `from` must be in the
    /// closure.
    pub fn path_to_seed(
        &self,
        closure: &BTreeMap<usize, Option<(usize, u32)>>,
        from: usize,
    ) -> Vec<(usize, Option<u32>)> {
        let mut path = Vec::new();
        let mut cur = from;
        loop {
            match closure.get(&cur).copied().flatten() {
                Some((next, line)) => {
                    path.push((cur, Some(line)));
                    cur = next;
                }
                None => {
                    path.push((cur, None));
                    break;
                }
            }
            if path.len() > self.fns.len() {
                break; // cycle guard; cannot happen with BFS parents
            }
        }
        path
    }
}

/// Keywords and operators that look like `name(` call heads but are not.
fn non_callee(name: &str) -> bool {
    matches!(
        name,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "mut"
            | "let"
            | "fn"
            | "impl"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "dyn"
            | "enum"
            | "struct"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "unsafe"
            | "box"
            | "await"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

/// The path segment that ends at `t`, just before a `::`: the identifier
/// at `t`, or for a turbofish `Type::<…>` ending at `t` the identifier
/// before it. `None` when the segment starts before `start` or is not a
/// name.
fn path_qualifier(view: &SigView, start: usize, t: usize) -> Option<String> {
    if view.kind(t) == Some(Kind::Ident) {
        return Some(view.text(t).to_string());
    }
    if view.text(t) != ">" {
        return None;
    }
    // Walk back to the matching `<`, skipping `->` arrows.
    let mut depth = 0usize;
    let mut k = t;
    loop {
        match view.text(k) {
            ">" if k > start && view.text(k - 1) == "-" => k -= 1,
            ">" => depth += 1,
            "<" if depth <= 1 => break,
            "<" => depth -= 1,
            ";" | "{" | "}" => return None,
            _ => {}
        }
        if k <= start {
            return None;
        }
        k -= 1;
    }
    (k >= start + 2 && view.text(k - 1) == "::" && view.kind(k - 2) == Some(Kind::Ident))
        .then(|| view.text(k - 2).to_string())
}

/// Invoke `f(sig_pos_of_name, name, qual)` for every syntactic call site
/// in `view[start..end)`: `name(…)`, `recv.name(…)`, `Q::name(…)`, and
/// the turbofish form `name::<…>(…)`. With `refs`, also for every name
/// used as a value: a path `Q::name` or a bare argument `(name)`/`, name,`.
/// Macro invocations (`name!…`) and `fn` definitions are skipped.
pub fn for_each_call_site(
    view: &SigView,
    start: usize,
    end: usize,
    refs: bool,
    f: &mut impl FnMut(usize, &str, Qual),
) {
    let mut s = start;
    while s < end {
        if view.kind(s) != Some(Kind::Ident) || non_callee(view.text(s)) {
            s += 1;
            continue;
        }
        let prev = if s > start { view.text(s - 1) } else { "" };
        if prev == "fn" || view.text(s + 1) == "!" {
            s += 1;
            continue;
        }
        let mut call_paren = None;
        if view.text(s + 1) == "(" {
            call_paren = Some(s + 1);
        } else if view.text(s + 1) == "::" && view.text(s + 2) == "<" {
            // Turbofish: match the angle group by counting, skipping `->`
            // and balanced bracket groups.
            let mut depth = 0usize;
            let mut t = s + 2;
            while t < end {
                match view.text(t) {
                    "<" => depth += 1,
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    "-" if view.text(t + 1) == ">" => t += 1,
                    "(" | "[" | "{" => t = view.skip_group(t) - 1,
                    "" | ";" => break,
                    _ => {}
                }
                t += 1;
            }
            if view.text(t) == ">" && view.text(t + 1) == "(" {
                call_paren = Some(t + 1);
            }
        }
        let is_ref = refs
            && (prev == "::" || matches!(prev, "(" | ",") && matches!(view.text(s + 1), ")" | ","));
        if call_paren.is_none() && !is_ref {
            s += 1;
            continue;
        }
        let qual = if call_paren.is_none() && prev != "::" {
            Qual::Value
        } else if prev == "." {
            Qual::Method
        } else if let Some(q) = (prev == "::" && s >= start + 2)
            .then(|| path_qualifier(view, start, s - 2))
            .flatten()
        {
            Qual::Path(q)
        } else {
            Qual::None
        };
        f(s, view.text(s), qual);
        s += 1;
    }
}
