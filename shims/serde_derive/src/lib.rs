//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` for the workspace `serde` shim without
//! `syn`/`quote` (unreachable registry): the derive input is parsed directly
//! from the raw `TokenStream`, which is sufficient for non-generic structs
//! (named, tuple, unit) and enums whose variants are unit, newtype, tuple,
//! or struct-like.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field layout of a struct or enum variant.
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Parsed {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize` (the workspace shim's JSON-tree flavor).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse(input);
    let code = match &parsed {
        Parsed::Struct { name, fields } => {
            let body = serialize_fields_expr(fields, "self.");
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Parsed::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| serialize_variant_arm(name, v))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("derive(Serialize): generated code must parse")
}

/// Serialize expression for struct fields, where `access` is `self.` etc.
fn serialize_fields_expr(fields: &Fields, access: &str) -> String {
    match fields {
        Fields::Named(names) => {
            let pairs: Vec<String> = names
                .iter()
                .map(|n| {
                    format!(
                        "(::std::string::String::from(\"{n}\"), \
                         ::serde::Serialize::to_value(&{access}{n}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Fields::Tuple(1) => format!("::serde::Serialize::to_value(&{access}0)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&{access}{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Fields::Unit => "::serde::Value::Null".to_string(),
    }
}

/// One match arm serializing an enum variant (externally tagged).
fn serialize_variant_arm(enum_name: &str, variant: &Variant) -> String {
    let v = &variant.name;
    match &variant.fields {
        Fields::Unit => format!(
            "{enum_name}::{v} => ::serde::Value::String(::std::string::String::from(\"{v}\")),\n"
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            let payload = if *n == 1 {
                "::serde::Serialize::to_value(__f0)".to_string()
            } else {
                let items: Vec<String> = binds
                    .iter()
                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                    .collect();
                format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
            };
            format!(
                "{enum_name}::{v}({binds}) => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from(\"{v}\"), {payload})]),\n",
                binds = binds.join(", ")
            )
        }
        Fields::Named(names) => {
            let binds = names.join(", ");
            let pairs: Vec<String> = names
                .iter()
                .map(|n| {
                    format!(
                        "(::std::string::String::from(\"{n}\"), ::serde::Serialize::to_value({n}))"
                    )
                })
                .collect();
            format!(
                "{enum_name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from(\"{v}\"), \
                      ::serde::Value::Object(::std::vec![{pairs}]))]),\n",
                pairs = pairs.join(", ")
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Token-level parsing
// ---------------------------------------------------------------------------

fn parse(input: TokenStream) -> Parsed {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Skip outer attributes and visibility ahead of `struct`/`enum`.
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2, // `#` + bracket group
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1; // `pub(crate)` etc.
                }
            }
            TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => break,
            _ => i += 1,
        }
    }
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("derive: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive shim: generic types are not supported (type `{name}`)");
    }
    if kind == "struct" {
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
            other => panic!("derive: unexpected struct body for `{name}`: {other:?}"),
        };
        Parsed::Struct { name, fields }
    } else {
        let body = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => panic!("derive: expected enum body for `{name}`, found {other:?}"),
        };
        Parsed::Enum {
            name,
            variants: parse_variants(body),
        }
    }
}

/// Splits a token stream on top-level commas, tracking `<...>` depth so
/// commas inside generic arguments do not split (delimited groups are
/// already atomic tokens).
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for token in stream {
        match &token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                chunks.push(Vec::new());
                continue;
            }
            _ => {}
        }
        chunks
            .last_mut()
            .expect("chunks is never empty")
            .push(token);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Strips leading attributes (`#[...]`) and visibility from a field/variant
/// chunk, returning the remaining tokens.
fn strip_attrs_and_vis(chunk: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    loop {
        match chunk.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if matches!(chunk.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => return &chunk[i..],
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    split_top_level_commas(stream)
        .iter()
        .map(|chunk| {
            let rest = strip_attrs_and_vis(chunk);
            match rest.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("derive: expected field name, found {other:?}"),
            }
        })
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level_commas(stream).len()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level_commas(stream)
        .iter()
        .map(|chunk| {
            let rest = strip_attrs_and_vis(chunk);
            let name = match rest.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("derive: expected variant name, found {other:?}"),
            };
            let fields = match rest.get(1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                None => Fields::Unit,
                Some(other) => panic!("derive: unexpected token after variant `{name}`: {other}"),
            };
            Variant { name, fields }
        })
        .collect()
}
