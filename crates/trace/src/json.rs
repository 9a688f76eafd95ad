//! JSON for the workspace: the one writer every report goes through, and a
//! reader that checks what it writes.
//!
//! The build environment is offline (no serde), so both are hand-written.
//!
//! The **writer** ([`document`], [`Obj`], [`Arr`], [`Val`]) writes members in
//! call order and escapes every string through one escaper. A float is
//! written at the number of decimals its caller names, or in shortest form;
//! a float that is not finite is written as `null`. Nested objects and
//! arrays are written in place. It has no options: output is compact
//! (except [`Val::lines`], the one-item-per-line array the Chrome trace
//! format uses), keys are never sorted, and a seeded run renders
//! byte-identically everywhere.
//!
//! The **reader** ([`parse`]) is a recursive-descent parser for RFC 8259
//! JSON: objects, arrays, strings with escapes (including `\uXXXX`
//! and surrogate pairs), numbers in the RFC grammar, booleans, and null. It
//! favors clear error messages over speed, which is fine for validating
//! reports and trace artifacts of a few megabytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (sorted by key).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = s
            .iter()
            .try_fold(0u16, |v, &b| {
                Some(v << 4 | (b as char).to_digit(16)? as u16)
            })
            .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                        }
                        other => return Err(self.err(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is safe
                    // to do bytewise until the next ASCII boundary byte).
                    let start = self.pos;
                    self.pos += 1;
                    while let Some(b) = self.peek() {
                        if b & 0xC0 == 0x80 {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Consumes the next byte if it is one of `any_of`.
    fn eat(&mut self, any_of: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| any_of.contains(&c));
        self.pos += usize::from(hit);
        hit
    }

    /// Skips ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.eat(b"0123456789") {}
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b"-");
        // A leading zero stands alone: `01` leaves `1` as trailing input.
        if !self.eat(b"0") && self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b".") && self.digits() == 0 {
            return Err(self.err("expected a digit after '.'"));
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

/// Writes `s` as a JSON string: the workspace's one escaper.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one JSON document: an object whose members `f` writes, and a
/// newline.
pub fn document(f: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    Val(&mut out).obj(f);
    out.push('\n');
    out
}

/// The members of an object being written (see [`Val::obj`]).
pub struct Obj<'a>(List<'a>);

/// The items of an array being written (see [`Val::arr`]).
pub struct Arr<'a>(List<'a>);

struct List<'a> {
    out: &'a mut String,
    sep: &'static str,
    first: bool,
}

impl List<'_> {
    fn next(&mut self) -> Val<'_> {
        if !std::mem::take(&mut self.first) {
            self.out.push_str(self.sep);
        }
        Val(self.out)
    }
}

impl Obj<'_> {
    /// Starts the member `key`; the returned [`Val`] writes its value.
    pub fn key(&mut self, key: &str) -> Val<'_> {
        let slot = self.0.next();
        write_str(slot.0, key);
        slot.0.push(':');
        slot
    }
}

impl Arr<'_> {
    /// Starts the next item; the returned [`Val`] writes it.
    pub fn item(&mut self) -> Val<'_> {
        self.0.next()
    }
}

/// An integer type [`Val::int`] writes.
pub trait Int: std::fmt::Display {}

macro_rules! ints {
    ($($t:ty),*) => {$(impl Int for $t {})*};
}
ints!(u8, u32, u64, usize, i32, i64);

/// The slot for exactly one value: an object member's or an array item's.
pub struct Val<'a>(&'a mut String);

impl<'a> Val<'a> {
    /// A string.
    pub fn str(self, s: &str) {
        write_str(self.0, s);
    }

    /// An integer.
    pub fn int(self, n: impl Int) {
        let _ = write!(self.0, "{n}");
    }

    /// `true` or `false`.
    pub fn bool(self, b: bool) {
        let _ = write!(self.0, "{b}");
    }

    /// `null`.
    pub fn null(self) {
        self.0.push_str("null");
    }

    /// A float at `decimals` decimals; `null` when it is not finite.
    pub fn float(self, x: f64, decimals: usize) {
        if !x.is_finite() {
            return self.null();
        }
        let _ = write!(self.0, "{x:.decimals$}");
    }

    /// A float in shortest round-trip form; `null` when it is not finite.
    pub fn shortest(self, x: f64) {
        if !x.is_finite() {
            return self.null();
        }
        let _ = write!(self.0, "{x}");
    }

    /// `units / 10^decimals`, exactly: nanoseconds as fractional
    /// microseconds with `decimals = 3`. A whole value has no fraction.
    pub fn fixed(self, units: u64, decimals: u32) {
        let scale = 10u64.pow(decimals);
        let (whole, frac) = (units / scale, units % scale);
        let _ = match frac {
            0 => write!(self.0, "{whole}"),
            _ => write!(self.0, "{whole}.{frac:0w$}", w = decimals as usize),
        };
    }

    /// `v` through `write`, or `null` when it is `None`.
    pub fn opt<T>(self, v: Option<T>, write: impl FnOnce(Val<'a>, T)) {
        match v {
            Some(v) => write(self, v),
            None => self.null(),
        }
    }

    /// An object whose members `f` writes.
    pub fn obj(self, f: impl FnOnce(&mut Obj)) {
        self.list(["{", ",", "}"], |l| f(&mut Obj(l)));
    }

    /// An array whose items `f` writes.
    pub fn arr(self, f: impl FnOnce(&mut Arr)) {
        self.list(["[", ",", "]"], |l| f(&mut Arr(l)));
    }

    /// An array with one item per line, as Chrome trace files are laid out.
    pub fn lines(self, f: impl FnOnce(&mut Arr)) {
        self.list(["[\n", ",\n", "\n]"], |l| f(&mut Arr(l)));
    }

    /// An array of one object per item, its members written by `f`.
    pub fn objs<T>(self, items: impl IntoIterator<Item = T>, mut f: impl FnMut(&mut Obj, T)) {
        self.arr(|a| {
            for item in items {
                a.item().obj(|o| f(o, item));
            }
        });
    }

    fn list(self, [open, sep, close]: [&'static str; 3], f: impl FnOnce(List)) {
        self.0.push_str(open);
        f(List {
            out: &mut *self.0,
            sep,
            first: true,
        });
        self.0.push_str(close);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},[]],"d":{}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let arr = obj["a"].as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_obj().unwrap()["b"].as_str(), Some("c"));
        assert_eq!(arr[2].as_arr().unwrap().len(), 0);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\n\t\"\\\u0041""#).unwrap(),
            Value::Str("a\n\t\"\\A".into())
        );
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse("\"é→\"").unwrap(), Value::Str("é→".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"\\x\"",
            "1 2",
            "\"\u{1}\"",
            "01x",
            r#""\ud83d""#,
            r#""\u+041""#,
            r#""\u04""#,
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            "-",
            "1e",
            "1e+",
            ".5",
            "+1",
            "[-]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_bounded() {
        let s = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&s).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line\nquote\" back\\slash\ttab\u{1}end";
        let doc = document(|o| o.key("s").str(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_obj().unwrap()["s"], Value::Str(original.into()));
    }

    #[test]
    fn writer_output_is_pinned() {
        let doc = document(|o| {
            o.key("s").str("a\nb\"c\\d\u{1}\u{1f}é😀");
            o.key("n").int(-3i64);
            o.key("f").float(2.0 / 3.0, 3);
            o.key("whole").float(2.5, 0);
            o.key("inf").float(f64::INFINITY, 6);
            o.key("short").shortest(0.1);
            o.key("nan").shortest(f64::NAN);
            o.key("us").fixed(1_500, 3);
            o.key("us_whole").fixed(9_000, 3);
            o.key("none").opt(None::<u64>, Val::int);
            o.key("some").opt(Some(0.25), |v, x| v.float(x, 1));
            o.key("b").bool(true);
            o.key("nested").obj(|n| {
                n.key("a").arr(|a| {
                    a.item().int(1u8);
                    a.item().null();
                    a.item().arr(|_| {});
                });
                n.key("empty").obj(|_| {});
            });
            o.key("rows").objs([1usize, 2], |r, i| r.key("i").int(i));
        });
        assert_eq!(
            doc,
            concat!(
                r#"{"s":"a\nb\"c\\d\u0001\u001fé😀","n":-3,"f":0.667,"whole":2,"inf":null,"#,
                r#""short":0.1,"nan":null,"us":1.500,"us_whole":9,"none":null,"some":0.2,"#,
                r#""b":true,"nested":{"a":[1,null,[]],"empty":{}},"rows":[{"i":1},{"i":2}]}"#,
                "\n"
            )
        );
        parse(&doc).expect("the writer writes JSON");
    }

    #[test]
    fn lines_put_one_item_per_line() {
        let two = document(|o| {
            o.key("e").lines(|a| {
                a.item().int(1u32);
                a.item().obj(|o| o.key("k").str("v"));
            })
        });
        assert_eq!(two, "{\"e\":[\n1,\n{\"k\":\"v\"}\n]}\n");
        assert_eq!(document(|o| o.key("e").lines(|_| {})), "{\"e\":[\n\n]}\n");
    }

    /// A char drawn to stress the escaper: JSON-significant ASCII, control
    /// characters, any other BMP scalar, or a non-BMP scalar.
    fn stress_char(n: u32) -> char {
        const SPECIAL: &[u8] = b"\"\\/{}[],:-+.eE0123456789tfnul \n\r\t";
        let pick = n >> 2;
        let c = match n % 4 {
            0 => SPECIAL[pick as usize % SPECIAL.len()] as u32,
            1 => pick % 0x20,
            2 => pick % 0x1_0000,
            _ => 0x1_0000 + pick % 0x10_0000,
        };
        char::from_u32(c).unwrap_or('\u{fffd}')
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the writer writes, the reader reads back: strings with
        /// quotes, backslashes, control and non-BMP characters (as keys and
        /// values), integers, and floats at a fixed number of decimals.
        #[test]
        fn writer_round_trips_through_the_reader(
            key in prop::collection::vec(any::<u32>(), 0..12),
            text in prop::collection::vec(any::<u32>(), 0..40),
            unsigned in any::<u64>(),
            signed in any::<i64>(),
            x in -1e12f64..1e12,
            decimals in 0usize..9,
        ) {
            let key: String = key.into_iter().map(stress_char).collect();
            let text: String = text.into_iter().map(stress_char).collect();
            let doc = document(|o| {
                o.key("key").str(&key);
                o.key("text").arr(|a| a.item().str(&text));
                o.key("unsigned").int(unsigned);
                o.key("signed").int(signed);
                o.key("x").float(x, decimals);
                o.key(&key).bool(true);
            });
            let v = parse(&doc).unwrap_or_else(|e| panic!("{e} in {doc:?}"));
            let obj = v.as_obj().expect("an object");
            prop_assert_eq!(obj["key"].as_str(), Some(key.as_str()));
            prop_assert_eq!(obj["text"].as_arr().unwrap()[0].as_str(), Some(text.as_str()));
            prop_assert_eq!(obj["unsigned"].as_num(), Some(unsigned as f64));
            prop_assert_eq!(obj["signed"].as_num(), Some(signed as f64));
            let fixed: f64 = format!("{x:.decimals$}").parse().unwrap();
            prop_assert_eq!(obj["x"].as_num(), Some(fixed));
            prop_assert_eq!(&obj[&key], &Value::Bool(true));
        }

        /// Arbitrary text never makes the reader panic: it returns a value
        /// or a typed error with an in-bounds offset.
        #[test]
        fn reader_never_panics_on_arbitrary_text(
            chars in prop::collection::vec(any::<u32>(), 0..64),
        ) {
            let text: String = chars.into_iter().map(stress_char).collect();
            if let Err(e) = parse(&text) {
                prop_assert!(e.at <= text.len(), "{e} in {text:?}");
            }
        }
    }
}
