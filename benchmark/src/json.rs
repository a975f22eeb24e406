//! A minimal JSON writer. Reading goes through `seaice_obs::json::parse`;
//! numbers are rendered by `seaice_obs::json::fmt_f64` (shortest
//! round-trip form), so a value is printed with every digit it was
//! measured with.

use seaice_obs::json::{escape, fmt_f64};

#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Num(v) => out.push_str(&fmt_f64(*v)),
            J::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_round_trips_through_the_obs_parser() {
        let doc = J::obj([
            ("correct", J::Bool(true)),
            ("attempted", J::Num(1000.0)),
            ("name", J::str("a \"quoted\" name")),
            ("values", J::nums(&[1.25, 0.1 + 0.2])),
        ]);
        let text = doc.render();
        assert!(text.starts_with("{\"correct\": true, \"attempted\": 1000, "));
        assert!(!text.contains('\n'));
        let back = seaice_obs::json::parse(&text).unwrap();
        assert_eq!(back.get("attempted").and_then(|v| v.as_f64()), Some(1000.0));
        assert_eq!(
            back.get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\" name")
        );
        let vals = back.get("values").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(vals[1].as_f64(), Some(0.1 + 0.2));
    }
}
