//! A minimal JSON writer for the bench reports: build a [`Json`] tree with
//! [`obj!`](crate::obj), each key next to its value, then
//! [`render`](Json::render) it as indented text. No parsing and no
//! external dependency: the reports are write-only here and read back by
//! tooling in other languages.

use std::fmt::Write;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A float rendered with a fixed number of decimals.
    Fixed(f64, usize),
    /// An array, rendered on one line.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

/// A [`Json::Obj`] from `key => value` pairs, in order; each value goes
/// through `Json::from`, so counts, flags, options and nested objects
/// need no wrapping.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::Json::from($value))),*
        ])
    };
}

impl Json {
    /// `x` with `decimals` digits after the point; `null` if `x` is not
    /// finite (JSON has no NaN or infinity).
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Fixed(x, decimals)
        } else {
            Json::Null
        }
    }

    /// The value as indented JSON text (two spaces per level), ending in a
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("writing to a String"),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            Json::Fixed(x, d) => write!(out, "{x:.d$}").expect("writing to a String"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    out.extend(std::iter::repeat_n("  ", depth));
}

/// Writes `s` as a JSON string literal: quotes and backslashes escaped,
/// control characters as `\uXXXX`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as u64)
            }
        }
    )*};
}
int_from!(u64, usize);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let doc = crate::obj! { "a \"q\" \\ b\n\t\u{1}é" => true };
        assert_eq!(
            doc.render(),
            "{\n  \"a \\\"q\\\" \\\\ b\\u000a\\u0009\\u0001é\": true\n}\n"
        );
    }

    #[test]
    fn renders_null_and_missing_values() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::from(None::<u64>).render(), "null\n");
        assert_eq!(Json::from(Some(7u64)).render(), "7\n");
        assert_eq!(Json::fixed(f64::NAN, 2).render(), "null\n");
        assert_eq!(Json::fixed(f64::INFINITY, 2).render(), "null\n");
    }

    #[test]
    fn fixed_floats_keep_their_precision() {
        assert_eq!(Json::fixed(1.0 / 3.0, 3).render(), "0.333\n");
        assert_eq!(Json::fixed(2.4, 0).render(), "2\n");
        assert_eq!(Json::fixed(1234.5678, 1).render(), "1234.6\n");
        assert_eq!(Json::fixed(-0.25, 4).render(), "-0.2500\n");
    }

    #[test]
    fn renders_arrays_on_one_line() {
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
        let doc = crate::obj! {
            "xs" => Json::Arr(vec![Json::fixed(0.5, 2), Json::Int(3), Json::Null]),
        };
        assert_eq!(doc.render(), "{\n  \"xs\": [0.50, 3, null]\n}\n");
    }

    #[test]
    fn nests_objects_in_key_order() {
        let doc = crate::obj! {
            "b" => 1u64,
            "a" => crate::obj! { "ok" => true, "none" => None::<u64> },
            "empty" => crate::obj! {},
            "n" => 3usize,
            "half" => Json::fixed(0.5, 2),
        };
        assert_eq!(
            doc.render(),
            "{\n  \"b\": 1,\n  \"a\": {\n    \"ok\": true,\n    \"none\": null\n  },\n  \
             \"empty\": {},\n  \"n\": 3,\n  \"half\": 0.50\n}\n"
        );
    }
}
