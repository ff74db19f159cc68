//! The syntax layer: just enough structure on top of the flat token stream
//! from [`crate::lexer`] for *semantic* rules to reason about scopes.
//!
//! This is deliberately not a Rust parser. It recovers four things the
//! [`crate::semantic`] rules need and nothing more:
//!
//! 1. **Delimiter tree** — every `()`/`[]`/`{}` group as a [`Group`] node
//!    with its token span and parent, plus an `enclosing` map from token
//!    index to innermost group. Malformed input never fails: stray closers
//!    stay plain tokens and unclosed groups close at end-of-file, so the
//!    tree always [reconstructs](FileSyntax::reconstruct) the exact token
//!    order (a property the proptest suite pins down).
//! 2. **Import resolution** — `use` items (groups, `as` renames, `self`)
//!    mapped to full paths, so `Map` after `use std::collections::HashMap
//!    as Map` is known to be a `HashMap`.
//! 3. **Item recognition** — `fn` signatures (name, parameter bindings,
//!    body span) and `struct` fields (name → type head).
//! 4. **Per-scope binding table** — `let` bindings and `fn` parameters
//!    mapped to a *type head* (the final path segment before any generics:
//!    `&mut std::collections::HashMap<K, V>` → `HashMap`), inferred from
//!    annotations, constructor paths (`HashMap::new()`), `collect::<T>()`
//!    turbofish, or cloning a typed field/binding.
//!
//! Everything is resolved best-effort: an unknown type is the empty string
//! and simply matches no rule, which is the right failure mode for a
//! linter — silence, not a false positive.

use std::collections::HashMap;

use crate::lexer::{Tok, Token};

/// Delimiter kind of a [`Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

impl Delim {
    /// Classify an operator token: `Some((delim, is_open))` for the six
    /// delimiter characters, `None` otherwise.
    fn classify(op: &str) -> Option<(Delim, bool)> {
        match op {
            "(" => Some((Delim::Paren, true)),
            ")" => Some((Delim::Paren, false)),
            "[" => Some((Delim::Bracket, true)),
            "]" => Some((Delim::Bracket, false)),
            "{" => Some((Delim::Brace, true)),
            "}" => Some((Delim::Brace, false)),
            _ => None,
        }
    }
}

/// One balanced (or EOF-recovered) delimiter group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Delimiter kind.
    pub delim: Delim,
    /// Token index of the opening delimiter.
    pub open: usize,
    /// Token index of the closing delimiter; `tokens.len()` when the group
    /// was never closed (recovered at end of file).
    pub close: usize,
    /// Index of the enclosing group in [`FileSyntax::groups`], if any.
    pub parent: Option<usize>,
    /// Child groups, in source order.
    pub children: Vec<usize>,
}

impl Group {
    /// Do the *interior* tokens of this group include `tok`?
    pub fn contains(&self, tok: usize) -> bool {
        self.open < tok && tok < self.close
    }
}

/// One recognised `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Token index of the name identifier.
    pub name_tok: usize,
    /// Parameter bindings: `(name, resolved type head)`.
    pub params: Vec<(String, String)>,
    /// Body span as `(open, close)` token indices of the `{ … }` group;
    /// `None` for bodyless trait-method signatures.
    pub body: Option<(usize, usize)>,
}

impl FnInfo {
    /// Is `tok` inside this function's body?
    pub fn body_contains(&self, tok: usize) -> bool {
        self.body.is_some_and(|(open, close)| open < tok && tok < close)
    }
}

/// One `let` binding (or desugared parameter) in the binding table.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound name.
    pub name: String,
    /// Resolved type head (`""` when unknown).
    pub ty: String,
    /// Token index where the binding becomes visible.
    pub tok: usize,
    /// Innermost group id the binding is scoped to; `None` = file scope.
    pub scope: Option<usize>,
}

/// The full syntax-layer analysis of one file.
#[derive(Debug, Default)]
pub struct FileSyntax {
    /// All delimiter groups, in open order.
    pub groups: Vec<Group>,
    /// Innermost group id per token index (`None` = file scope).
    pub enclosing: Vec<Option<usize>>,
    /// `use`-import map: local name → full path segments.
    pub imports: HashMap<String, Vec<String>>,
    /// Recognised functions, in source order.
    pub fns: Vec<FnInfo>,
    /// Struct fields seen anywhere in the file: field name → type head.
    /// (File-wide by design: rules use it only to type method receivers
    /// like `self.counts`, where a rare cross-struct name collision costs
    /// at most one allow-escape.)
    pub fields: HashMap<String, String>,
    /// `let`/parameter bindings, in source order.
    pub bindings: Vec<Binding>,
    n_tokens: usize,
}

impl FileSyntax {
    /// Analyze a token stream (from [`crate::lexer::lex`]).
    pub fn analyze(tokens: &[Token]) -> FileSyntax {
        let mut syn = FileSyntax {
            enclosing: Vec::with_capacity(tokens.len()),
            n_tokens: tokens.len(),
            ..FileSyntax::default()
        };
        syn.build_tree(tokens);
        syn.collect_imports(tokens);
        syn.collect_structs(tokens);
        syn.collect_fns(tokens);
        syn.collect_lets(tokens);
        syn
    }

    // ----- delimiter tree ---------------------------------------------

    fn build_tree(&mut self, tokens: &[Token]) {
        let mut stack: Vec<usize> = Vec::new();
        for (i, tok) in tokens.iter().enumerate() {
            let current = stack.last().copied();
            match &tok.kind {
                Tok::Op(op) => match Delim::classify(op) {
                    Some((delim, true)) => {
                        // The opener token itself belongs to the parent scope.
                        self.enclosing.push(current);
                        let id = self.groups.len();
                        self.groups.push(Group {
                            delim,
                            open: i,
                            close: tokens.len(),
                            parent: current,
                            children: Vec::new(),
                        });
                        if let Some(parent) = current.and_then(|p| self.groups.get_mut(p)) {
                            parent.children.push(id);
                        }
                        stack.push(id);
                    }
                    Some((delim, false)) => {
                        // A closer matching the innermost open group closes
                        // it; anything else (stray or mismatched) stays a
                        // plain token so the tree never desyncs.
                        match current.and_then(|id| self.groups.get_mut(id)) {
                            Some(group) if group.delim == delim => {
                                group.close = i;
                                stack.pop();
                                self.enclosing.push(stack.last().copied());
                            }
                            _ => self.enclosing.push(current),
                        }
                    }
                    None => self.enclosing.push(current),
                },
                _ => self.enclosing.push(current),
            }
        }
        // Unclosed groups keep close == tokens.len() (EOF recovery).
    }

    /// Emit every token index by walking the tree (plain tokens in place,
    /// child groups recursively). Equal to `0..n` for any input — the
    /// round-trip invariant the proptest suite checks.
    pub fn reconstruct(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n_tokens);
        let roots: Vec<usize> = self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.parent.is_none())
            .map(|(id, _)| id)
            .collect();
        self.emit_span(0, self.n_tokens, &roots, &mut out);
        out
    }

    fn emit_span(&self, from: usize, to: usize, groups: &[usize], out: &mut Vec<usize>) {
        let mut cursor = from;
        for group in groups.iter().filter_map(|&g| self.groups.get(g)) {
            // Plain tokens before this child group.
            out.extend(cursor..group.open);
            out.push(group.open);
            let interior_end = group.close.min(self.n_tokens);
            self.emit_span(group.open + 1, interior_end, &group.children, out);
            if group.close < self.n_tokens {
                out.push(group.close);
                cursor = group.close + 1;
            } else {
                cursor = self.n_tokens;
            }
        }
        out.extend(cursor..to);
    }

    /// Innermost group containing token `i` (the group whose span strictly
    /// encloses it), if any.
    pub fn group_of(&self, i: usize) -> Option<&Group> {
        self.enclosing.get(i).copied().flatten().and_then(|id| self.groups.get(id))
    }

    /// Id of the group whose opening delimiter is token `open`. (Every open
    /// delimiter creates a group, so this is total over openers; `None`
    /// means `open` is not an opener. Unlike `enclosing[open + 1]` this is
    /// correct for empty groups, where the next token is already the
    /// closer and belongs to the parent scope.)
    pub(crate) fn group_at_opener(&self, open: usize) -> Option<usize> {
        // `groups` is in opener order — binary search keeps this O(log n).
        self.groups.binary_search_by_key(&open, |g| g.open).ok()
    }

    /// Closing token of the group opened at token `open`.
    fn group_close(&self, open: usize) -> Option<usize> {
        self.group_at_opener(open).and_then(|id| self.groups.get(id)).map(|g| g.close)
    }

    // ----- imports -----------------------------------------------------

    fn collect_imports(&mut self, tokens: &[Token]) {
        let mut i = 0;
        while i < tokens.len() {
            if matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Ident(name)) if name == "use") {
                i = self.parse_use_tree(tokens, i + 1, &[]);
            } else {
                i += 1;
            }
        }
    }

    /// Parse one use-tree starting at `i` with `prefix` segments already
    /// consumed; returns the index just past the tree.
    fn parse_use_tree(&mut self, tokens: &[Token], mut i: usize, prefix: &[String]) -> usize {
        let mut path: Vec<String> = prefix.to_vec();
        loop {
            match tokens.get(i).map(|t| &t.kind) {
                Some(Tok::Ident(seg)) if seg == "as" => {
                    // `path as Alias`
                    if let Some(Tok::Ident(alias)) = tokens.get(i + 1).map(|t| &t.kind) {
                        self.record_import(alias.clone(), path.clone());
                        return i + 2;
                    }
                    return i + 1;
                }
                Some(Tok::Ident(seg)) => {
                    if seg == "self" {
                        // `{self, …}`: binds the prefix's own last segment.
                        if let Some(last) = path.last().cloned() {
                            self.record_import(last, path.clone());
                        }
                    } else {
                        path.push(seg.clone());
                    }
                    i += 1;
                }
                Some(Tok::Op("::")) => {
                    i += 1;
                }
                Some(Tok::Op("{")) => {
                    // Group: parse each comma-separated subtree.
                    let close = self.group_close(i).unwrap_or(tokens.len());
                    let mut j = i + 1;
                    while j < close {
                        let next = self.parse_use_tree(tokens, j, &path);
                        // A subtree starting with a terminator (`;`, a stray
                        // op, …) parses to nothing and returns `j` unchanged;
                        // force progress so malformed input cannot loop.
                        j = next.max(j + 1);
                        while j < close
                            && matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Op(",")))
                        {
                            j += 1;
                        }
                    }
                    return close.saturating_add(1);
                }
                Some(Tok::Op("*")) => return i + 1, // glob: nothing to bind
                _ => {
                    // End of tree (`;`, `,`, `}` or EOF): bind the leaf.
                    if let Some(last) = path.last().cloned() {
                        if path.len() > prefix.len() {
                            self.record_import(last, path.clone());
                        }
                    }
                    return i;
                }
            }
        }
    }

    fn record_import(&mut self, name: String, path: Vec<String>) {
        if !path.is_empty() {
            self.imports.insert(name, path);
        }
    }

    /// Resolve a bare identifier through the import map: the final path
    /// segment it refers to (`Map` → `HashMap` after an aliased import),
    /// or the identifier itself when unimported.
    pub fn resolve<'n>(&'n self, name: &'n str) -> &'n str {
        match self.imports.get(name).and_then(|path| path.last()) {
            Some(last) => last.as_str(),
            None => name,
        }
    }

    /// Does `name` resolve into the given module path? E.g.
    /// `resolves_into("write", &["std", "fs"])` is true after
    /// `use std::fs::write;`.
    pub fn resolves_into(&self, name: &str, module: &[&str]) -> bool {
        self.imports.get(name).is_some_and(|path| {
            path.len() == module.len() + 1
                && path.iter().zip(module).all(|(a, b)| a == b)
                && path.last().map(String::as_str) == Some(name)
        })
    }

    // ----- structs ------------------------------------------------------

    fn collect_structs(&mut self, tokens: &[Token]) {
        for (i, tok) in tokens.iter().enumerate() {
            if !matches!(&tok.kind, Tok::Ident(k) if k == "struct") {
                continue;
            }
            let Some(Tok::Ident(_name)) = tokens.get(i + 1).map(|t| &t.kind) else { continue };
            // Skip generics, find the field brace group (tuple structs and
            // unit structs have none worth indexing).
            let mut j = i + 2;
            let mut angle = 0_i32;
            while let Some(tok) = tokens.get(j) {
                match &tok.kind {
                    Tok::Op("<") => angle += 1,
                    Tok::Op(">") => angle -= 1,
                    Tok::Op("<<") => angle += 2,
                    Tok::Op(">>") => angle -= 2,
                    Tok::Op(";") | Tok::Op("(") if angle <= 0 => break,
                    Tok::Op("{") if angle <= 0 => {
                        self.collect_fields_in(tokens, j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }

    /// Parse `field: Type` pairs at the top level of the brace group
    /// opening at token `open`.
    fn collect_fields_in(&mut self, tokens: &[Token], open: usize) {
        let (Some(group_id), Some(close)) = (self.group_at_opener(open), self.group_close(open))
        else {
            return;
        };
        let mut i = open + 1;
        while i < close {
            // Only consider `name :` pairs directly inside the group.
            let at_top = self.enclosing.get(i).copied().flatten() == Some(group_id);
            if at_top {
                if let (Some(Tok::Ident(name)), Some(Tok::Op(":"))) =
                    (tokens.get(i).map(|t| &t.kind), tokens.get(i + 1).map(|t| &t.kind))
                {
                    if name != "pub" {
                        let ty = self.type_head(tokens, i + 2, close);
                        if !ty.is_empty() {
                            self.fields.insert(name.clone(), ty);
                        }
                        // Skip to the next top-level comma.
                        i = self.skip_to_comma(tokens, i + 2, close, group_id);
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    fn skip_to_comma(&self, tokens: &[Token], mut i: usize, end: usize, group: usize) -> usize {
        while i < end {
            if matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Op(",")))
                && self.enclosing.get(i).copied().flatten() == Some(group)
            {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    // ----- type heads ---------------------------------------------------

    /// Extract the *type head* of the type starting at token `from`: skip
    /// references, lifetimes, `mut`/`dyn`/`impl`, walk the path, and return
    /// the import-resolved final segment before any generics. Empty string
    /// when nothing path-like is found (tuples, slices, fn pointers, …).
    pub fn type_head(&self, tokens: &[Token], from: usize, end: usize) -> String {
        let mut i = from;
        while i < end {
            match tokens.get(i).map(|t| &t.kind) {
                Some(Tok::Op("&")) | Some(Tok::Op("&&")) | Some(Tok::Lifetime) => i += 1,
                Some(Tok::Ident(k)) if k == "mut" || k == "dyn" || k == "impl" => i += 1,
                _ => break,
            }
        }
        let mut segments: Vec<&str> = Vec::new();
        while i < end {
            match tokens.get(i).map(|t| &t.kind) {
                Some(Tok::Ident(seg)) => {
                    segments.push(seg.as_str());
                    match tokens.get(i + 1).map(|t| &t.kind) {
                        Some(Tok::Op("::")) => i += 2,
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        match segments.as_slice() {
            [] => String::new(),
            [only] => self.resolve(only).to_string(),
            [.., last] => last.to_string(),
        }
    }

    // ----- fns ----------------------------------------------------------

    fn collect_fns(&mut self, tokens: &[Token]) {
        for (i, tok) in tokens.iter().enumerate() {
            if !matches!(&tok.kind, Tok::Ident(k) if k == "fn") {
                continue;
            }
            let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) else { continue };
            let fn_scope = self.enclosing.get(i).copied().flatten();
            // Find the parameter parens (skipping generics).
            let mut j = i + 2;
            let mut angle = 0_i32;
            let params_open = loop {
                match tokens.get(j).map(|t| &t.kind) {
                    Some(Tok::Op("<")) => angle += 1,
                    Some(Tok::Op(">")) => angle -= 1,
                    Some(Tok::Op("<<")) => angle += 2,
                    Some(Tok::Op(">>")) => angle -= 2,
                    Some(Tok::Op("(")) if angle <= 0 => break Some(j),
                    Some(Tok::Op("{")) | Some(Tok::Op(";")) | None => break None,
                    _ => {}
                }
                j += 1;
            };
            let Some(params_open) = params_open else { continue };
            let Some(params_id) = self.group_at_opener(params_open) else { continue };
            self.push_fn(tokens, name.clone(), i + 1, params_id, fn_scope);
        }
    }

    fn push_fn(
        &mut self,
        tokens: &[Token],
        name: String,
        name_tok: usize,
        params_id: usize,
        fn_scope: Option<usize>,
    ) {
        let Some(params_close) = self.groups.get(params_id).map(|g| g.close) else { return };
        let params = self.parse_params(tokens, params_id);
        // Body: the first brace group that is a *sibling* of the fn item
        // (same enclosing scope) after the parameter list, unless a `;`
        // at that scope ends the item first.
        let mut body = None;
        let mut k = params_close.saturating_add(1);
        while let Some(tok) = tokens.get(k) {
            let at_scope = self.enclosing.get(k).copied().flatten() == fn_scope;
            match &tok.kind {
                Tok::Op(";") if at_scope => break,
                Tok::Op("{") if at_scope => {
                    body = Some((k, self.group_close(k).unwrap_or(tokens.len())));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let info = FnInfo { name, name_tok, params: params.clone(), body };
        // Parameters are bindings scoped to the body.
        if let Some((open, _)) = body {
            let scope = self.group_at_opener(open);
            for (pname, pty) in params {
                self.bindings.push(Binding { name: pname, ty: pty, tok: open, scope });
            }
        }
        self.fns.push(info);
    }

    /// Parse `name: Type` parameters at the top level of the params group.
    fn parse_params(&self, tokens: &[Token], params_id: usize) -> Vec<(String, String)> {
        let mut params = Vec::new();
        let Some(&Group { open, close, .. }) = self.groups.get(params_id) else { return params };
        let mut i = open + 1;
        while i < close {
            let at_top = self.enclosing.get(i).copied().flatten() == Some(params_id);
            if at_top {
                // Skip leading `mut` in `mut name: Type`.
                let name_at = match tokens.get(i).map(|t| &t.kind) {
                    Some(Tok::Ident(k)) if k == "mut" => i + 1,
                    _ => i,
                };
                if let (Some(Tok::Ident(name)), Some(Tok::Op(":"))) =
                    (tokens.get(name_at).map(|t| &t.kind), tokens.get(name_at + 1).map(|t| &t.kind))
                {
                    if name != "self" {
                        let ty = self.type_head(tokens, name_at + 2, close);
                        params.push((name.clone(), ty));
                    }
                    i = self.skip_to_comma(tokens, name_at + 2, close, params_id);
                    continue;
                }
            }
            i += 1;
        }
        params
    }

    // ----- let bindings -------------------------------------------------

    fn collect_lets(&mut self, tokens: &[Token]) {
        for (i, tok) in tokens.iter().enumerate() {
            if !matches!(&tok.kind, Tok::Ident(k) if k == "let") {
                continue;
            }
            let mut j = i + 1;
            if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Ident(k)) if k == "mut") {
                j += 1;
            }
            let Some(Tok::Ident(name)) = tokens.get(j).map(|t| &t.kind) else { continue };
            let scope = self.enclosing.get(i).copied().flatten();
            let stmt_end = self.statement_end(tokens, j + 1, scope);
            // Explicit annotation?
            let mut ty = String::new();
            if matches!(tokens.get(j + 1).map(|t| &t.kind), Some(Tok::Op(":"))) {
                ty = self.type_head(tokens, j + 2, stmt_end);
            }
            if ty.is_empty() {
                // Infer from the right-hand side.
                if let Some(eq) = self.find_at_scope(tokens, j + 1, stmt_end, scope, "=") {
                    ty = self.infer_expr_head(tokens, eq + 1, stmt_end);
                }
            }
            self.bindings.push(Binding { name: name.clone(), ty, tok: i, scope });
        }
    }

    /// Index of the `;` ending the statement containing `from` (searching
    /// at `scope` level only), or the end of the scope.
    pub fn statement_end(&self, tokens: &[Token], from: usize, scope: Option<usize>) -> usize {
        let scope_close =
            scope.and_then(|id| self.groups.get(id)).map_or(tokens.len(), |g| g.close);
        self.find_at_scope(tokens, from, scope_close, scope, ";").unwrap_or(scope_close)
    }

    fn find_at_scope(
        &self,
        tokens: &[Token],
        from: usize,
        end: usize,
        scope: Option<usize>,
        op: &str,
    ) -> Option<usize> {
        (from..end.min(tokens.len())).find(|&k| {
            matches!(tokens.get(k).map(|t| &t.kind), Some(Tok::Op(o)) if *o == op)
                && self.enclosing.get(k).copied().flatten() == scope
        })
    }

    /// Best-effort type head of an expression: constructor paths
    /// (`HashMap::new()`, `HashMap::from(…)`), `collect::<T>()` turbofish,
    /// or `x.clone()` of a typed binding/field.
    fn infer_expr_head(&self, tokens: &[Token], from: usize, end: usize) -> String {
        // Constructor path: Ident (:: Ident)* :: ctor (
        let mut segments: Vec<&str> = Vec::new();
        let mut i = from;
        while i < end {
            match tokens.get(i).map(|t| &t.kind) {
                Some(Tok::Ident(seg)) => {
                    segments.push(seg.as_str());
                    match tokens.get(i + 1).map(|t| &t.kind) {
                        Some(Tok::Op("::")) => {
                            i += 2;
                            // Skip turbofish generics in the path.
                            if matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Op("<"))) {
                                break;
                            }
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        const CTORS: &[&str] = &["new", "with_capacity", "default", "from", "from_iter"];
        if let [.., head, ctor] = segments.as_slice() {
            if CTORS.contains(ctor) {
                return if segments.len() == 2 {
                    self.resolve(head).to_string()
                } else {
                    head.to_string()
                };
            }
        }
        // collect::<Type<…>>() anywhere in the expression.
        for k in from..end.min(tokens.len()) {
            if matches!(tokens.get(k).map(|t| &t.kind), Some(Tok::Ident(id)) if id == "collect")
                && matches!(tokens.get(k + 1).map(|t| &t.kind), Some(Tok::Op("::")))
                && matches!(tokens.get(k + 2).map(|t| &t.kind), Some(Tok::Op("<")))
            {
                return self.type_head(tokens, k + 3, end);
            }
        }
        // `x.clone()` / `self.field.clone()`: the receiver's type.
        if matches!(tokens.get(from).map(|t| &t.kind), Some(Tok::Ident(_))) {
            let mut k = from;
            while k + 2 < end
                && matches!(tokens.get(k + 1).map(|t| &t.kind), Some(Tok::Op(".")))
                && matches!(tokens.get(k + 2).map(|t| &t.kind), Some(Tok::Ident(_)))
            {
                if matches!(tokens.get(k + 2).map(|t| &t.kind), Some(Tok::Ident(m)) if m == "clone")
                {
                    return self.receiver_type(tokens, k).unwrap_or_default().to_string();
                }
                k += 2;
            }
        }
        String::new()
    }

    // ----- lookups ------------------------------------------------------

    /// Type head of the binding named `name` visible at token `at`
    /// (innermost, latest declaration wins). `None` when unknown.
    pub fn binding_type(&self, name: &str, at: usize) -> Option<&str> {
        self.bindings
            .iter()
            .filter(|b| {
                b.name == name
                    && b.tok <= at
                    && match b.scope {
                        None => true,
                        Some(id) => {
                            self.groups.get(id).is_some_and(|g| g.contains(at) || g.open == b.tok)
                        }
                    }
            })
            .max_by_key(|b| b.tok)
            .map(|b| b.ty.as_str())
            .filter(|ty| !ty.is_empty())
    }

    /// Type head of the *receiver* identifier at token `i` — a local
    /// binding if one is visible, else a struct field of this file (for
    /// `self.field` / `other.field` receivers).
    pub fn receiver_type(&self, tokens: &[Token], i: usize) -> Option<&str> {
        let Tok::Ident(name) = &tokens.get(i)?.kind else { return None };
        // `self` / `Self` never name a container directly.
        if name == "self" || name == "Self" {
            return None;
        }
        // Field access (`x.field`) if the previous token is a dot —
        // otherwise prefer a visible local binding.
        let after_dot = i
            .checked_sub(1)
            .is_some_and(|p| matches!(tokens.get(p).map(|t| &t.kind), Some(Tok::Op("."))));
        if after_dot {
            return self.fields.get(name.as_str()).map(String::as_str);
        }
        self.binding_type(name, i).or_else(|| self.fields.get(name.as_str()).map(String::as_str))
    }

    /// The innermost recognised function whose body contains `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body_contains(tok))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(open, close)| close - open))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn syntax(src: &str) -> (Vec<Token>, FileSyntax) {
        let tokens = lex(src).tokens;
        let syn = FileSyntax::analyze(&tokens);
        (tokens, syn)
    }

    #[test]
    fn tree_reconstructs_balanced_input() {
        let (tokens, syn) = syntax("fn f(a: u8) { g([1, 2], (3, 4)); }");
        assert_eq!(syn.reconstruct(), (0..tokens.len()).collect::<Vec<_>>());
        assert!(syn.groups.len() >= 4);
    }

    #[test]
    fn tree_recovers_from_malformed_input() {
        for src in ["} stray close {", "open { never closed", "a ) b ] c }", "((("] {
            let (tokens, syn) = syntax(src);
            assert_eq!(syn.reconstruct(), (0..tokens.len()).collect::<Vec<_>>(), "{src}");
        }
    }

    #[test]
    fn malformed_use_groups_terminate() {
        // Regression (found by the syntax_props fuzz suite): a use-group
        // whose subtree starts with a terminator used to return the same
        // index from `parse_use_tree` and spin forever.
        for src in ["use { ; }", "use a::{;, b};", "use {{}, ::, x}; use ok::Fine;"] {
            let (_, syn) = syntax(src);
            let _ = syn; // completing analyze() at all is the assertion
        }
        let (_, syn) = syntax("use {;}; use std::fs::File;");
        assert!(syn.resolves_into("File", &["std", "fs"]));
    }

    #[test]
    fn imports_resolve_groups_aliases_and_self() {
        let (_, syn) = syntax(
            "use std::collections::{HashMap, HashSet};\n\
             use std::collections::BTreeMap as Sorted;\n\
             use std::fs::{self, File};\n\
             use std::panic::set_hook;\n",
        );
        assert_eq!(syn.resolve("HashMap"), "HashMap");
        assert_eq!(syn.resolve("Sorted"), "BTreeMap");
        assert_eq!(syn.imports.get("fs"), Some(&vec!["std".into(), "fs".into()]));
        assert_eq!(syn.imports.get("File"), Some(&vec!["std".into(), "fs".into(), "File".into()]));
        assert!(syn.resolves_into("set_hook", &["std", "panic"]));
        assert!(!syn.resolves_into("set_hook", &["std", "fs"]));
    }

    #[test]
    fn fn_signatures_bind_typed_params() {
        let (_, syn) = syntax(
            "use std::collections::HashMap;\n\
             fn f(map: &HashMap<String, u8>, mut n: usize, budget: &ArmedBudget) -> u8 { n }",
        );
        let f = &syn.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(
            f.params,
            vec![
                ("map".to_string(), "HashMap".to_string()),
                ("n".to_string(), "usize".to_string()),
                ("budget".to_string(), "ArmedBudget".to_string()),
            ]
        );
        assert!(f.body.is_some());
    }

    #[test]
    fn generic_fn_and_nested_fn_are_recognised() {
        let (tokens, syn) =
            syntax("fn outer<T: Ord>(v: Vec<T>) { fn inner(x: u8) -> u8 { x } let _ = inner(1); }");
        assert_eq!(syn.fns.len(), 2);
        let inner = syn.fns.iter().find(|f| f.name == "inner").unwrap();
        // inner's body must be the small brace group, not outer's.
        let (open, close) = inner.body.unwrap();
        assert!(close - open < tokens.len() / 2);
    }

    #[test]
    fn struct_fields_are_indexed() {
        let (_, syn) = syntax(
            "use std::collections::HashMap;\n\
             pub struct Baseline { counts: HashMap<(String, String), usize>, pub n: usize }",
        );
        assert_eq!(syn.fields.get("counts").map(String::as_str), Some("HashMap"));
        assert_eq!(syn.fields.get("n").map(String::as_str), Some("usize"));
    }

    #[test]
    fn let_bindings_infer_types() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   fn f() {\n\
                       let m = HashMap::new();\n\
                       let annotated: HashSet<u8> = Default::default();\n\
                       let collected = iter.collect::<HashMap<u8, u8>>();\n\
                       let unknown = helper();\n\
                   }";
        let (tokens, syn) = syntax(src);
        let end = tokens.len();
        assert_eq!(syn.binding_type("m", end - 2), Some("HashMap"));
        assert_eq!(syn.binding_type("annotated", end - 2), Some("HashSet"));
        assert_eq!(syn.binding_type("collected", end - 2), Some("HashMap"));
        assert_eq!(syn.binding_type("unknown", end - 2), None);
    }

    #[test]
    fn clone_of_typed_field_infers_type() {
        let src = "use std::collections::HashMap;\n\
                   struct S { counts: HashMap<String, usize> }\n\
                   fn f(s: &S) { let mut remaining = s.counts.clone(); let x = remaining; }";
        let (tokens, syn) = syntax(src);
        assert_eq!(syn.binding_type("remaining", tokens.len() - 2), Some("HashMap"));
    }

    #[test]
    fn binding_scope_and_shadowing() {
        let src = "fn f() { let x = HashMap::new(); { let x = 1; let _ = x; } let _ = x; }";
        let (tokens, syn) = syntax(src);
        // Inside the inner block the integer shadows the map…
        let inner_use = tokens.len() - 8;
        assert_eq!(syn.binding_type("x", inner_use), None); // `1` has no head
                                                            // …after it, the map is visible again.
        assert_eq!(syn.binding_type("x", tokens.len() - 2), Some("HashMap"));
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "fn outer() { fn inner() { let here = 1; } }";
        let (tokens, syn) = syntax(src);
        let here =
            tokens.iter().position(|t| matches!(&t.kind, Tok::Ident(n) if n == "here")).unwrap();
        assert_eq!(syn.enclosing_fn(here).map(|f| f.name.as_str()), Some("inner"));
        let _ = tokens;
    }

    #[test]
    fn receiver_type_prefers_field_after_dot() {
        let src = "use std::collections::HashMap;\n\
                   struct S { items: HashMap<u8, u8> }\n\
                   fn f(s: &S, items: Vec<u8>) { s.items.len(); items.len(); }";
        let (tokens, syn) = syntax(src);
        let uses: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.kind, Tok::Ident(n) if n == "items"))
            .map(|(i, _)| i)
            .collect();
        // Declaration, then `s.items` (field), then bare `items` (binding).
        let field_use = uses[uses.len() - 2];
        let binding_use = uses[uses.len() - 1];
        assert_eq!(syn.receiver_type(&tokens, field_use), Some("HashMap"));
        assert_eq!(syn.receiver_type(&tokens, binding_use), Some("Vec"));
    }
}
