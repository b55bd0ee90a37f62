//! The ledger's workloads, and the metric declarations it reads from
//! `BENCHMARK.json`. The file is the only place a metric's unit, bound
//! or direction is written down: the binary knows just the names it
//! computes, and every run checks them against the file.

/// A named workload: one market shape, every phase run on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MineRoundsK16,
    ServeK1026,
}

pub const WORKLOADS: [Workload; 2] = [Workload::MineRoundsK16, Workload::ServeK1026];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MineRoundsK16 => "mine_rounds_k16",
            Workload::ServeK1026 => "serve_k1026",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// The string value of the first `"key": "value"` pair in `s`, and the
/// text after it. Names and units hold no quotes or escapes.
fn string_value<'a>(s: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let at = s.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = s[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((&rest[..end], &rest[end + 1..]))
}

/// `(name, unit)` of every metric `manifest` declares in its `section`
/// array (`end_to_end` or `per_layer`), in order. A scan for the
/// `"name"` and `"unit"` strings of each entry, not a JSON parser.
pub fn declared(manifest: &str, section: &str) -> Vec<(String, String)> {
    let Some(start) = manifest.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &manifest[start..];
    let mut rest = &body[..body.find(']').unwrap_or(body.len())];
    let mut out = Vec::new();
    while let Some((name, after)) = string_value(rest, "name") {
        let Some((unit, after)) = string_value(after, "unit") else {
            break;
        };
        out.push((name.to_string(), unit.to_string()));
        rest = after;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_each_sections_names_and_units() {
        let manifest = r#"{
  "workloads": [{"name": "w", "why": "x"}],
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name" : "rate",
     "unit":"candidates/s", "better": "higher", "bound": 0.1}
  ],
  "per_layer": [{"name": "a.b", "unit": "ns", "better": "lower"}]
}"#;
        assert_eq!(
            declared(manifest, "end_to_end"),
            vec![
                ("setup_s".to_string(), "s".to_string()),
                ("rate".to_string(), "candidates/s".to_string())
            ]
        );
        assert_eq!(
            declared(manifest, "per_layer"),
            vec![("a.b".to_string(), "ns".to_string())]
        );
        assert!(declared(manifest, "missing").is_empty());
    }
}
