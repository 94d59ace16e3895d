//! Output checks. Every cell the benchmark runs is charged here: a cell
//! fails when it panicked or returned a fault (quarantined), or when its
//! output differs from its reference. `cell_fail_frac` is failed ÷ attempted.

use serde::Value;

/// Cells attempted and cells failed, with one line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells the workload ran.
    pub attempted: u64,
    /// Cells that failed, were quarantined, or did not match their reference.
    pub failed: u64,
    /// Why each failed cell failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Charge one cell: `Ok(())` passes, `Err(why)` fails it.
    pub fn cell(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures.push(format!("{label}: {why}"));
        }
    }

    /// A check that belongs to no single cell (an assembled artefact, an
    /// audit): it fails the run without being a cell of its own.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every cell and every check passed.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Byte-for-byte comparison; the error names the first differing offset.
pub fn same_bytes(produced: &[u8], reference: &[u8]) -> Result<(), String> {
    if produced == reference {
        return Ok(());
    }
    let at = produced.iter().zip(reference).position(|(a, b)| a != b);
    Err(match at {
        Some(i) => format!("differs from the reference at byte {i}"),
        None => format!("length {} against reference length {}", produced.len(), reference.len()),
    })
}

/// Charge the cells of one artefact against its reference bytes: each cell
/// passes only if it completed (its flag in `labels`) and the whole
/// artefact matches.
/// `produced` is `None` when the artefact could not be assembled.
pub fn artefact_cells(
    tally: &mut Tally,
    labels: &[(String, bool)],
    produced: Option<&str>,
    reference: Option<&[u8]>,
) {
    let artefact = match (produced, reference) {
        (Some(p), Some(r)) => same_bytes(p.as_bytes(), r),
        (Some(_), None) => Ok(()),
        (None, _) => Err("artefact not produced".to_string()),
    };
    for (label, ok) in labels {
        let verdict = match (ok, &artefact) {
            (false, _) => Err("failed or quarantined".to_string()),
            (true, Err(why)) => Err(format!("artefact {why}")),
            (true, Ok(())) => Ok(()),
        };
        tally.cell(label, verdict);
    }
}

/// One step of a path into a JSON tree.
pub enum Step<'a> {
    /// An object field.
    Key(&'a str),
    /// An array element.
    Index(usize),
}

/// The subtree of `v` at `path`, if present.
pub fn value_at<'v>(v: &'v Value, path: &[Step]) -> Option<&'v Value> {
    path.iter().try_fold(v, |v, step| match (v, step) {
        (Value::Object(pairs), Step::Key(k)) => pairs.iter().find(|(n, _)| n == k).map(|(_, v)| v),
        (Value::Array(items), Step::Index(i)) => items.get(*i),
        _ => None,
    })
}

/// Compare a produced subtree with the reference subtree at `path` through
/// their compact JSON renderings — the bytes an artefact would hold.
pub fn same_json(produced: &Value, reference: &Value, path: &[Step]) -> Result<(), String> {
    let render = |v: &Value| serde_json::to_string(v).expect("value renders");
    let Some(want) = value_at(reference, path).map(render) else {
        return Err("no reference entry".to_string());
    };
    let got = render(produced);
    if got == want {
        return Ok(());
    }
    // Show a short window around the first difference.
    let at = got.bytes().zip(want.bytes()).position(|(a, b)| a != b).unwrap_or(0);
    let window = |s: &str| {
        let from = s.floor_char_boundary(at.saturating_sub(20));
        let to = s.floor_char_boundary((at + 40).min(s.len()));
        s[from..to].to_string()
    };
    Err(format!("got …{}… want …{}…", window(&got), window(&want)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<(String, bool)> {
        (0..n).map(|i| (format!("cell{i}"), true)).collect()
    }

    #[test]
    fn matching_artefact_passes_every_cell() {
        let mut t = Tally::default();
        artefact_cells(&mut t, &labels(3), Some("{\"a\": 1}"), Some(b"{\"a\": 1}"));
        assert_eq!((t.attempted, t.failed), (3, 0));
        assert_eq!(t.fail_frac(), 0.0);
        assert!(t.clean());
    }

    #[test]
    fn perturbed_artefact_byte_raises_cell_fail_frac() {
        // A real committed artefact with one byte flipped.
        let golden = std::fs::read(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/fig1.json"),
        )
        .expect("tests/goldens/fig1.json is readable");
        let mut perturbed = golden.clone();
        let mid = perturbed.len() / 2;
        perturbed[mid] ^= 0x01;
        let produced = String::from_utf8(perturbed).expect("still utf-8");

        let mut clean = Tally::default();
        artefact_cells(&mut clean, &labels(1), std::str::from_utf8(&golden).ok(), Some(&golden));
        artefact_cells(&mut clean, &labels(2), Some("x"), Some(b"x"));
        assert_eq!(clean.fail_frac(), 0.0);

        let mut dirty = Tally::default();
        artefact_cells(&mut dirty, &labels(1), Some(&produced), Some(&golden));
        artefact_cells(&mut dirty, &labels(2), Some("x"), Some(b"x"));
        assert_eq!((dirty.attempted, dirty.failed), (3, 1));
        assert!(dirty.fail_frac() > clean.fail_frac());
        assert!(dirty.failures[0].contains(&format!("byte {mid}")), "{:?}", dirty.failures);
    }

    #[test]
    fn quarantined_cell_fails_even_when_bytes_match() {
        let mut t = Tally::default();
        let cells = vec![("a".to_string(), true), ("b".to_string(), false)];
        artefact_cells(&mut t, &cells, None, Some(b"x"));
        assert_eq!((t.attempted, t.failed), (2, 2));
    }

    #[test]
    fn json_paths_compare_rendered_subtrees() {
        let reference = serde_json::from_str(r#"{"series":[{"points":[{"s":1.5},{"s":2.25}]}]}"#)
            .expect("valid json");
        let path = [Step::Key("series"), Step::Index(0), Step::Key("points"), Step::Index(1)];
        let good = serde_json::from_str(r#"{"s":2.25}"#).expect("valid json");
        let bad = serde_json::from_str(r#"{"s":2.2500001}"#).expect("valid json");
        assert!(same_json(&good, &reference, &path).is_ok());
        assert!(same_json(&bad, &reference, &path).is_err());
        assert!(same_json(&good, &reference, &[Step::Key("missing")]).is_err());
    }
}
