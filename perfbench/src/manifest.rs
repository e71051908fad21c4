//! The digest manifest: expected output digests recorded from the
//! simulator at a known-good commit (`manifest.tsv`, one
//! `group<TAB>seed<TAB>name<TAB>digest` line each; `-` for seedless
//! groups). Regenerate it with `--record-manifest` only when an output is
//! meant to change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The committed manifest.
const TEXT: &str = include_str!("../manifest.tsv");

/// Group of the quick-scale reproduction's artefacts and job outputs.
pub const QUICK: &str = "repro-quick";
/// Group of the tiny-scale reproduction run during `repro-quick` set-up.
pub const TINY: &str = "repro-tiny";
/// Group of the paper-scale campaign's report digests.
pub const CAMPAIGN: &str = "campaign-paper";
/// Group of the replayed network's statistics fingerprints.
pub const REPLAY: &str = "noc-replay";
/// Name of the digest over every job output of a plan.
pub const JOB_OUTPUTS: &str = "job-outputs";
/// Seed column of seedless groups.
pub const NO_SEED: &str = "-";

/// Expected digests keyed by `(group, seed, name)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    entries: BTreeMap<(String, String, String), u64>,
}

impl Manifest {
    /// The manifest committed with the benchmark.
    ///
    /// # Panics
    /// Panics if the committed file is malformed.
    #[must_use]
    pub fn committed() -> Manifest {
        Manifest::parse(TEXT).expect("manifest.tsv is well-formed")
    }

    /// Parses manifest text; `#` lines and blank lines are ignored.
    ///
    /// # Errors
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        for line in text.lines() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let [group, seed, name, digest] = cols[..] else {
                return Err(format!("expected 4 tab-separated columns: {line}"));
            };
            let digest = u64::from_str_radix(digest, 16).map_err(|e| format!("{e}: {line}"))?;
            m.insert(group, seed, name, digest);
        }
        Ok(m)
    }

    /// Adds or replaces an entry.
    pub fn insert(&mut self, group: &str, seed: &str, name: &str, digest: u64) {
        self.entries
            .insert((group.into(), seed.into(), name.into()), digest);
    }

    /// The expected digest, if recorded.
    #[must_use]
    pub fn get(&self, group: &str, seed: &str, name: &str) -> Option<u64> {
        self.entries
            .get(&(group.into(), seed.into(), name.into()))
            .copied()
    }

    /// Every `(name, digest)` of a seedless group whose name is a file,
    /// i.e. the artefact set of a reproduction.
    #[must_use]
    pub fn artefacts(&self, group: &str) -> BTreeMap<String, u64> {
        self.entries
            .iter()
            .filter(|((g, s, n), _)| g == group && s == NO_SEED && n.contains('.'))
            .map(|((_, _, n), d)| (n.clone(), *d))
            .collect()
    }

    /// The manifest as text, in key order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("# group\tseed\tname\tfnv1a64\n");
        for ((g, s, n), d) in &self.entries {
            let _ = writeln!(out, "{g}\t{s}\t{n}\t{d:016x}");
        }
        out
    }
}

/// Entries of `expected` missing from or different in `actual`, plus
/// names `actual` has that `expected` lacks.
#[must_use]
pub fn mismatches(expected: &BTreeMap<String, u64>, actual: &BTreeMap<String, u64>) -> Vec<String> {
    let mut out: Vec<String> = expected
        .iter()
        .filter(|(name, digest)| actual.get(*name) != Some(digest))
        .map(|(name, _)| name.clone())
        .collect();
    out.extend(
        actual
            .keys()
            .filter(|name| !expected.contains_key(*name))
            .cloned(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parses_back() {
        let mut m = Manifest::default();
        m.insert(QUICK, NO_SEED, "SUMMARY.txt", 0xdead_beef);
        m.insert(CAMPAIGN, "7", "reports", 1);
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
        assert_eq!(m.artefacts(QUICK).len(), 1);
        assert!(Manifest::parse("a\tb\tc").is_err());
    }

    #[test]
    fn committed_manifest_covers_every_group() {
        let m = Manifest::committed();
        assert!(m.artefacts(QUICK).contains_key("SUMMARY.txt"));
        assert!(m.artefacts(TINY).contains_key("SUMMARY.txt"));
        assert!(m.get(QUICK, NO_SEED, JOB_OUTPUTS).is_some());
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            let seed = seed.to_string();
            assert!(m.get(CAMPAIGN, &seed, "reports").is_some());
            assert!(m.get(REPLAY, &seed, "fingerprint").is_some());
        }
    }

    #[test]
    fn mismatches_report_both_directions() {
        let a: BTreeMap<String, u64> = [("x".to_string(), 1), ("y".to_string(), 2)].into();
        let b: BTreeMap<String, u64> = [("x".to_string(), 1), ("z".to_string(), 3)].into();
        assert_eq!(mismatches(&a, &b), vec!["y".to_string(), "z".to_string()]);
    }
}
