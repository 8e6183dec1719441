//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` emit an impl with no items, so the stand-in
//! `serde` traits' provided (panicking) methods apply. Written against
//! `proc_macro` alone — no `syn`, no `quote`.

use proc_macro::{TokenStream, TokenTree};

/// The item's name, its generic parameter list as declared (`const D:
/// usize`), and the same list as arguments (`D`).
fn parse(input: TokenStream) -> (String, String, String) {
    let mut tokens = input.into_iter().peekable();
    // Skip attributes, visibility and everything else before the keyword.
    for tt in tokens.by_ref() {
        if let TokenTree::Ident(id) = &tt {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" {
                break;
            }
        }
    }
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    let mut decl: Vec<TokenTree> = Vec::new();
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        tokens.next();
        let mut depth = 1usize;
        for tt in tokens {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
            }
            decl.push(tt);
        }
    }
    // Arguments: per comma-separated parameter, its name without `const`,
    // bounds or defaults. A lifetime is the tick plus the next token.
    let mut args: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut at_start = true;
    let mut tick = false;
    for tt in &decl {
        let t = tt.to_string();
        match t.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "," if depth == 0 => at_start = true,
            "const" if at_start => {}
            "'" if at_start => tick = true,
            _ if at_start => {
                args.push(if tick { format!("'{t}") } else { t });
                (at_start, tick) = (false, false);
            }
            _ => {}
        }
    }
    let decl: TokenStream = decl.into_iter().collect();
    (name, decl.to_string(), args.join(", "))
}

fn empty_impl(input: TokenStream, extra_lifetime: &str, trait_path: &str) -> TokenStream {
    let (name, decl, args) = parse(input);
    let sep = if extra_lifetime.is_empty() || decl.is_empty() { "" } else { ", " };
    format!("impl<{extra_lifetime}{sep}{decl}> {trait_path} for {name}<{args}> {{}}")
        .parse()
        .expect("serde stand-in: generated impl parses")
}

/// Emits `impl serde::Serialize for T {}`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    empty_impl(input, "", "::serde::Serialize")
}

/// Emits `impl<'de> serde::Deserialize<'de> for T {}`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    empty_impl(input, "'de", "::serde::Deserialize<'de>")
}
