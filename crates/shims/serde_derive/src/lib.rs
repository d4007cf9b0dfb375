//! Derive macro for the in-tree `serde` shim.
//!
//! With no network access there is no `syn`/`quote`, so the derive parses the
//! item declaration directly from the [`proc_macro::TokenStream`]. It supports
//! exactly the shape this workspace serializes: non-generic structs with
//! named fields. Anything else produces a `compile_error!` naming the
//! limitation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's `serde::Serialize`: a named-field struct lowers to a
/// `serde::Value::Map` of its fields, in declaration order.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_struct(input) {
        Ok((name, fields)) => gen_serialize(&name, &fields)
            .parse()
            .expect("serde shim derive generated invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

fn is_ident(tok: Option<&TokenTree>, text: &str) -> bool {
    matches!(tok, Some(TokenTree::Ident(id)) if id.to_string() == text)
}

fn is_punct(tok: Option<&TokenTree>, ch: char) -> bool {
    matches!(tok, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Advances `i` past any leading `#[...]` attributes (including doc comments)
/// and a `pub` / `pub(...)` visibility qualifier.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        if is_punct(toks.get(*i), '#') {
            *i += 2;
        } else if is_ident(toks.get(*i), "pub") {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        } else {
            return;
        }
    }
}

/// The name and field names of a non-generic named-field struct.
fn parse_struct(input: TokenStream) -> Result<(String, Vec<String>), String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);

    if !is_ident(toks.get(i), "struct") {
        return Err("serde shim derive: only structs with named fields are supported".into());
    }
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: expected struct name".into()),
    };
    i += 1;
    match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok((name, parse_named_fields(g.stream())?))
        }
        _ => Err(format!(
            "serde shim derive: `{name}` must be a non-generic struct with named fields"
        )),
    }
}

/// Skips tokens until a comma at angle-bracket depth zero, consuming the comma.
fn skip_until_comma(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        match &toks[i] {
            TokenTree::Ident(id) => names.push(id.to_string()),
            other => {
                return Err(format!(
                    "serde shim derive: expected field name, found `{other}`"
                ))
            }
        }
        i += 1;
        if !is_punct(toks.get(i), ':') {
            return Err("serde shim derive: expected `:` after field name".into());
        }
        i += 1;
        skip_until_comma(&toks, &mut i);
    }
    Ok(names)
}

fn gen_serialize(name: &str, fields: &[String]) -> String {
    let entries: String = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f})),"
            )
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{ \
             fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Map(::std::vec![{entries}]) }} \
         }}"
    )
}
