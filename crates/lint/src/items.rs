//! Item extraction: every `fn` in a file, with its enclosing `mod` path
//! and `impl`/`trait` self type.
//!
//! This is deliberately *not* a parser. It walks the significant-token
//! stream with a scope stack, consuming `mod`/`impl`/`trait`/`fn`
//! constructs as balanced brace groups and stepping through everything
//! else token by token. Known blind spots (documented in DESIGN.md):
//! macro-generated items are invisible, and a `{` inside a const-generic
//! position of a function signature would be mistaken for the body.

use crate::lexer::SigView;
use crate::scanner::Kind;

/// One function (or method) item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, if any. For
    /// `impl Trait for Type` this is `Type`.
    pub self_ty: Option<String>,
    /// Enclosing `mod` names within the file, outermost first.
    pub module: Vec<String>,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Index of the defining file in the workspace file list.
    pub file_idx: usize,
    pub line: u32,
    pub is_pub: bool,
    /// Declared inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// First parameter is (some form of) `self`.
    pub has_self: bool,
    /// Sig range of the body braces (open ..= close), `None` for bodyless
    /// declarations (trait methods, extern blocks).
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// Display name: `Type::name` for methods, plain `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Extract every `fn` item in `view`. The module path is seeded from the
/// file's location (`crates/hetgraph/src/sampling.rs` → `hetgraph`,
/// `sampling`) and from `package`, the name in the crate's `Cargo.toml`
/// when it differs from the directory (`crates/core` → `catehgn`), so
/// `module::helper(…)` and `package::item(…)` call sites resolve against
/// file-level modules; inline `mod` blocks extend it.
pub fn extract(file: &str, file_idx: usize, view: &SigView, package: Option<&str>) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut mods = file_modules(file, package);
    walk(
        file,
        file_idx,
        view,
        0,
        view.len(),
        &mut mods,
        None,
        &mut out,
    );
    out
}

/// Module-path segments implied by a workspace-relative file path and
/// its crate's package name.
fn file_modules(file: &str, package: Option<&str>) -> Vec<String> {
    let mut mods = Vec::new();
    let parts: Vec<&str> = file.split('/').collect();
    let after_src = match parts.iter().position(|&p| p == "src") {
        Some(i) => {
            if parts.first() == Some(&"crates") {
                if let Some(krate) = i.checked_sub(1).and_then(|k| parts.get(k)) {
                    // Crate names use dashes; module paths use underscores.
                    let dir = krate.replace('-', "_");
                    let package = package.map(|p| p.replace('-', "_")).filter(|p| *p != dir);
                    mods.push(dir);
                    mods.extend(package);
                }
            }
            parts.get(i + 1..).unwrap_or(&[])
        }
        None => parts.as_slice(),
    };
    for (k, seg) in after_src.iter().enumerate() {
        let is_last = k + 1 == after_src.len();
        let name = if is_last {
            seg.strip_suffix(".rs").unwrap_or(seg)
        } else {
            seg
        };
        if !matches!(name, "lib" | "main" | "mod") && !name.is_empty() {
            mods.push(name.replace('-', "_"));
        }
    }
    mods
}

#[allow(clippy::too_many_arguments)] // recursive context threading; internal
fn walk(
    file: &str,
    file_idx: usize,
    view: &SigView,
    start: usize,
    end: usize,
    mods: &mut Vec<String>,
    self_ty: Option<&str>,
    out: &mut Vec<FnItem>,
) {
    let mut s = start;
    while s < end {
        match view.text(s) {
            "mod"
                if view.kind(s + 1) == Some(Kind::Ident)
                    && view.text(s + 2) == "{"
                    && !keywordish(view.text(s + 1)) =>
            {
                let name = view.text(s + 1).to_string();
                let open = s + 2;
                let close = view.mate(open).unwrap_or(end.saturating_sub(1));
                mods.push(name);
                walk(file, file_idx, view, open + 1, close, mods, None, out);
                mods.pop();
                s = close + 1;
            }
            "impl" | "trait" => {
                let kw = view.text(s);
                match find_block_open(view, s + 1, end) {
                    Some(open) => {
                        let ty = if kw == "trait" {
                            first_type_ident(view, s + 1, open)
                        } else {
                            impl_self_type(view, s + 1, open)
                        };
                        let close = view.mate(open).unwrap_or(end.saturating_sub(1));
                        walk(
                            file,
                            file_idx,
                            view,
                            open + 1,
                            close,
                            mods,
                            ty.as_deref(),
                            out,
                        );
                        s = close + 1;
                    }
                    // `impl Trait` in type position, or a bodyless item.
                    None => s += 1,
                }
            }
            "fn" if view.kind(s + 1) == Some(Kind::Ident)
                && matches!(view.text(s + 2), "(" | "<") =>
            {
                let name = view.text(s + 1).to_string();
                let (body, params_open, next) = fn_extent(view, s + 2, end);
                let has_self = params_open.is_some_and(|p| params_start_with_self(view, p));
                out.push(FnItem {
                    name,
                    self_ty: self_ty.map(str::to_string),
                    module: mods.clone(),
                    file: file.to_string(),
                    file_idx,
                    line: view.line(s),
                    is_pub: preceded_by_pub(view, s),
                    in_test: view.in_test(s),
                    has_self,
                    body,
                });
                // Recurse for nested fns; they are free fns of the same
                // module, not methods of the enclosing impl.
                if let Some((open, close)) = body {
                    walk(file, file_idx, view, open + 1, close, mods, None, out);
                }
                s = next;
            }
            _ => s += 1,
        }
    }
}

/// Locate a function's parameter list and body starting at the token
/// after its name. Returns `(body, params_open, next)`: the body brace
/// range (or `None` for a declaration), the sig position of the parameter
/// `(`, and the position to resume walking at.
fn fn_extent(
    view: &SigView,
    from: usize,
    end: usize,
) -> (Option<(usize, usize)>, Option<usize>, usize) {
    let mut s = from;
    let mut params_open = None;
    while s < end {
        match view.text(s) {
            "(" | "[" => {
                if params_open.is_none() && view.text(s) == "(" {
                    params_open = Some(s);
                }
                s = view.skip_group(s);
            }
            "{" => {
                let close = view.mate(s).unwrap_or(end.saturating_sub(1));
                return (Some((s, close)), params_open, close + 1);
            }
            ";" => return (None, params_open, s + 1),
            "" => break,
            _ => s += 1,
        }
    }
    (None, params_open, end)
}

/// Whether the parameter group opening at `open` starts with a `self`
/// receiver (`self`, `&self`, `&mut self`, `&'a self`, `mut self`).
fn params_start_with_self(view: &SigView, open: usize) -> bool {
    let mut s = open + 1;
    for _ in 0..4 {
        match view.kind(s) {
            Some(Kind::Punct) if view.text(s) == "&" => s += 1,
            Some(Kind::Lifetime) => s += 1,
            Some(Kind::Ident) if view.text(s) == "mut" => s += 1,
            Some(Kind::Ident) => return view.text(s) == "self",
            _ => return false,
        }
    }
    view.is_ident(s, "self")
}

/// Scan back over the visibility/qualifier prefix of a `fn` keyword at
/// `s` looking for `pub`. Tolerates `pub(crate)`, `pub(in path)`,
/// `const`, `async`, `unsafe`, and `extern "C"`.
fn preceded_by_pub(view: &SigView, s: usize) -> bool {
    let mut k = s;
    let mut steps = 0;
    while k > 0 && steps < 8 {
        k -= 1;
        steps += 1;
        match view.text(k) {
            "pub" => return true,
            "const" | "async" | "unsafe" | "extern" | "crate" | "super" | "in" | "self" | "("
            | ")" => continue,
            _ if view.kind(k) == Some(Kind::Str) => continue, // extern "C"
            _ => return false,
        }
    }
    false
}

/// Find the `{` opening an `impl`/`trait` body, skipping balanced
/// `(`/`[` groups in the header. Stops (returns `None`) at a `;` — the
/// construct turned out to be bodyless (e.g. a type-position `impl`).
fn find_block_open(view: &SigView, from: usize, to: usize) -> Option<usize> {
    let mut s = from;
    while s < to {
        match view.text(s) {
            "{" => return Some(s),
            ";" => return None,
            "(" | "[" => s = view.skip_group(s),
            "" => return None,
            _ => s += 1,
        }
    }
    None
}

/// First plain type identifier in `range` — the trait name in
/// `trait Name … {`.
fn first_type_ident(view: &SigView, from: usize, to: usize) -> Option<String> {
    (from..to)
        .find(|&s| view.kind(s) == Some(Kind::Ident) && !keywordish(view.text(s)))
        .map(|s| view.text(s).to_string())
}

/// The self type of an `impl` header: the last identifier at
/// angle-depth 0 before the body `{` (and before a `where` clause).
/// `impl Foo` → `Foo`; `impl<T> Tr<T> for Bar<T>` → `Bar`;
/// `impl Tr for Bar where …` → `Bar`.
fn impl_self_type(view: &SigView, from: usize, to: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut last: Option<String> = None;
    let mut s = from;
    while s < to {
        let t = view.text(s);
        match t {
            "where" if depth == 0 => break,
            "<" => depth += 1,
            ">" => depth = depth.saturating_sub(1),
            // `->` would decrement the angle depth spuriously; skip it.
            "-" if view.text(s + 1) == ">" => s += 1,
            "(" | "[" => {
                s = view.skip_group(s);
                continue;
            }
            _ if depth == 0 && view.kind(s) == Some(Kind::Ident) && !keywordish(t) => {
                last = Some(t.to_string());
            }
            _ => {}
        }
        s += 1;
    }
    last
}

/// Keywords that can appear where a type name is expected but never name
/// a type the call-graph should resolve against.
fn keywordish(t: &str) -> bool {
    matches!(
        t,
        "for"
            | "where"
            | "unsafe"
            | "dyn"
            | "impl"
            | "const"
            | "async"
            | "mut"
            | "ref"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "as"
            | "in"
            | "fn"
            | "mod"
            | "use"
            | "static"
    )
}
