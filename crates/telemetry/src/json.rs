//! Minimal JSON utilities: string escaping for the exporters, a
//! write-only [`ToJson`] for the result rows the binaries emit (declared
//! per struct with [`json_struct!`](crate::json_struct)), and a strict
//! well-formedness checker used by tests.

/// Appends `raw` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, raw: &str) {
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` in a JSON-legal form (`NaN`/`Inf` become `null`, as
/// JSON has no representation for them).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` never prints a bare exponent sign or trailing dot, and
        // round-trips; integral values gain ".0" to stay unambiguous.
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{v:.1}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        out.push_str("null");
    }
}

/// A value that writes itself as compact JSON. Write-only on purpose:
/// nothing in the workspace reads its own results back.
pub trait ToJson {
    /// Appends this value to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! json_integers {
    ($($int:ty),*) => {$(
        impl ToJson for $int {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
json_integers!(u32, u64, usize, i64);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

/// Implements [`ToJson`](crate::json::ToJson) for a struct as an object
/// of the fields named, in the order named, keyed by field name.
///
/// ```
/// use cip_telemetry::json::ToJson;
/// struct Row { k: usize, label: String, cut: f64 }
/// cip_telemetry::json_struct!(Row { k, label, cut });
/// let row = Row { k: 4, label: "a\"b".into(), cut: 2.0 };
/// assert_eq!(row.to_json(), r#"{"k":4,"label":"a\"b","cut":2.0}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $first:ident $(, $f:ident)* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::json::ToJson::write_json(&self.$first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($f), "\":"));
                    $crate::json::ToJson::write_json(&self.$f, out);
                )*
                out.push('}');
            }
        }
    };
}

/// Validates that `s` is one well-formed JSON value. Strict on structure
/// (balanced braces, comma placement, string escapes, number syntax);
/// returns a byte offset + message on the first error.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let start = p.pos;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            if p.pos == start {
                Err(p.err("expected digit"))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_validation() {
        let mut s = String::new();
        write_str(&mut s, "a \"quoted\"\nline\t\\ \u{1} end");
        validate(&s).unwrap();
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("\\u0001"));
    }

    #[test]
    fn floats_are_json_legal() {
        for (v, want) in [(1.0, "1.0"), (0.5, "0.5"), (-3.0, "-3.0")] {
            let mut s = String::new();
            write_f64(&mut s, v);
            assert_eq!(s, want);
            validate(&s).unwrap();
        }
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        let mut tiny = String::new();
        write_f64(&mut tiny, 1e-7);
        validate(&tiny).unwrap();
    }

    #[test]
    fn rows_nest_in_sequences_and_pairs() {
        struct Inner {
            x: f64,
        }
        crate::json_struct!(Inner { x });
        struct Row {
            name: String,
            ids: Vec<u32>,
            inner: Inner,
        }
        crate::json_struct!(Row { name, ids, inner });
        let row = Row { name: "q\"".into(), ids: vec![1, 2], inner: Inner { x: f64::INFINITY } };
        let doc = vec![("first".to_string(), row)].to_json();
        assert_eq!(doc, r#"[["first",{"name":"q\"","ids":[1,2],"inner":{"x":null}}]]"#);
        validate(&doc).unwrap();
        assert_eq!(Vec::<i64>::new().to_json(), "[]");
    }

    #[test]
    fn validator_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":null,"e":true}"#,
            " { \"x\" : [ 1 , 2 ] } ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "1.2.3",
            "{} {}",
            "{\"a\":1,}",
            "[1 2]",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }
}
