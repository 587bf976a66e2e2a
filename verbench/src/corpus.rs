//! The benchmark's inputs: the WDC-250 corpus with its discovery index,
//! and the seeded QBE spec streams the workloads send.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ver_common::error::{Result, VerError};
use ver_common::fxhash::FxHashSet;
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{attach_noise_columns, generate_workload, wdc_ground_truths};
use ver_index::persist::{index_from_bytes, index_to_bytes};
use ver_index::{build_index, DiscoveryIndex, IndexConfig};
use ver_qbe::groundtruth::GroundTruth;
use ver_qbe::noise::NoiseLevel;
use ver_qbe::{ExampleQuery, ViewSpec};
use ver_store::catalog::TableCatalog;

/// WDC generator size: the full corpus the perf trajectory uses.
pub const TABLES: usize = 250;
/// Example rows per generated QBE spec (the paper's §VI-B workload).
pub const EXAMPLE_ROWS: usize = 3;
/// Share of a ground-truth column a noise column must contain (§VI-B).
const NOISE_CONTAINMENT: f64 = 0.75;

/// The corpus, its index as a serving process loads it, and the ground
/// truths the spec streams draw from.
pub struct Fixture {
    pub catalog: Arc<TableCatalog>,
    pub index: Arc<DiscoveryIndex>,
    pub gts: Vec<GroundTruth>,
    pub build: Duration,
    pub persist_bytes: usize,
    pub load: Duration,
}

impl Fixture {
    /// Generate the corpus, build the index, and round-trip it through the
    /// persisted `VERIDX` encoding, so the servers run on a loaded index
    /// exactly as a warm-started `verd` does. The round trip stays in
    /// memory: disk speed is not what this benchmark measures.
    pub fn build() -> Result<Fixture> {
        let catalog = generate_wdc(&WdcConfig {
            n_tables: TABLES,
            ..Default::default()
        })?;
        let started = Instant::now();
        let built = build_index(
            &catalog,
            IndexConfig {
                threads: 0,
                verify_exact: ver_bench::verify_exact_for(&catalog),
                ..Default::default()
            },
        )?;
        let build = started.elapsed();
        let bytes = index_to_bytes(&built);
        drop(built);
        let started = Instant::now();
        let index = index_from_bytes(&bytes)?;
        let load = started.elapsed();
        let gts = wdc_ground_truths(&catalog)?
            .into_iter()
            .map(|gt| attach_noise_columns(&catalog, &index, gt, NOISE_CONTAINMENT))
            .collect();
        Ok(Fixture {
            catalog: Arc::new(catalog),
            index: Arc::new(index),
            gts,
            build,
            persist_bytes: bytes.len(),
            load,
        })
    }

    /// Number of (ground truth, noise level) classes a mix cycles over.
    pub fn classes(&self) -> usize {
        self.gts.len() * NoiseLevel::all().len()
    }

    /// `len` distinct QBE specs from `seed`, interleaved round-robin over
    /// ground truth × noise level so that every window of
    /// [`Fixture::classes`] consecutive specs carries the same query mix.
    ///
    /// Specs are deduplicated by their canonical form (the key the
    /// serving engine's result cache uses), so no spec repeats and a
    /// stream of fresh specs can never hit the result cache.
    pub fn spec_stream(&self, seed: u64, len: usize) -> Result<Vec<Spec>> {
        let classes = self.classes();
        let rounds = len.div_ceil(classes);
        // Twice the rounds needed leaves room for the duplicates the
        // dedup drops; a shortfall is an error, never a skewed mix.
        let generated =
            generate_workload(&self.catalog, &self.gts, rounds * 2, EXAMPLE_ROWS, seed)?;
        let mut seen = FxHashSet::default();
        let mut by_class: Vec<Vec<Spec>> = vec![Vec::new(); classes];
        // `generate_workload` emits ground truth → level → rep in order.
        for (i, w) in generated.into_iter().enumerate() {
            if seen.insert(canonical_key(&w.query)) {
                let class = i / (rounds * 2);
                by_class[class].push(Spec {
                    class,
                    name: w.name,
                    spec: ViewSpec::Qbe(w.query),
                });
            }
        }
        if let Some(short) = by_class.iter().position(|c| c.len() < rounds) {
            return Err(VerError::InvalidData(format!(
                "spec class {short} has only {} distinct specs, {rounds} needed",
                by_class[short].len()
            )));
        }
        let mut stream = Vec::with_capacity(rounds * classes);
        for round in 0..rounds {
            for class in &by_class {
                stream.push(class[round].clone());
            }
        }
        stream.truncate(len);
        Ok(stream)
    }
}

/// One spec of a stream, labelled with its (ground truth, noise level)
/// class and the generator's name for it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub class: usize,
    pub name: String,
    pub spec: ViewSpec,
}

/// Canonical form of a QBE spec: name hints plus each example's type and
/// normalized text, length-prefixed so that no two specs collide. Two
/// specs with equal keys get the same answer from the result cache.
pub fn canonical_key(query: &ExampleQuery) -> String {
    let mut key = String::new();
    for col in &query.columns {
        key.push('|');
        if let Some(hint) = &col.name_hint {
            let _ = write!(key, "~{}:{hint}", hint.len());
        }
        for v in &col.examples {
            if v.is_null() {
                key.push('0');
            } else {
                let text = v.normalized();
                let _ = write!(key, "{}{}:{text}", v.data_type(), text.len());
            }
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| Fixture::build().expect("fixture"))
    }

    fn keys(stream: &[Spec]) -> Vec<String> {
        stream
            .iter()
            .map(|s| match &s.spec {
                ViewSpec::Qbe(q) => canonical_key(q),
                other => panic!("stream holds a non-QBE spec: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn stream_is_deterministic_in_the_seed() {
        let fx = fixture();
        let a = keys(&fx.spec_stream(7, 60).unwrap());
        let b = keys(&fx.spec_stream(7, 60).unwrap());
        let c = keys(&fx.spec_stream(8, 60).unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_specs_are_unique() {
        let fx = fixture();
        let k = keys(&fx.spec_stream(3, 300).unwrap());
        assert_eq!(k.len(), 300);
        let distinct: FxHashSet<&String> = k.iter().collect();
        assert_eq!(distinct.len(), k.len(), "a spec repeats");
    }

    #[test]
    fn stream_cycles_over_every_class() {
        let fx = fixture();
        let classes = fx.classes();
        assert_eq!(classes, 15, "5 ground truths x 3 noise levels");
        let stream = fx.spec_stream(11, classes * 3 + 4).unwrap();
        assert_eq!(stream.len(), classes * 3 + 4);
        for (i, s) in stream.iter().enumerate() {
            assert_eq!(s.class, i % classes, "position {i} breaks the mix");
        }
        // The class label matches the generator's name for the spec.
        let prefix = |s: &Spec| s.name.rsplit_once('/').unwrap().0.to_string();
        assert_eq!(prefix(&stream[2]), prefix(&stream[2 + classes]));
        assert_ne!(prefix(&stream[2]), prefix(&stream[3]));
    }

    #[test]
    fn canonical_key_separates_values_and_columns() {
        let a = ExampleQuery::from_rows(&[vec!["a", "b"]]).unwrap();
        let b = ExampleQuery::from_rows(&[vec!["ab"]]).unwrap();
        let c = ExampleQuery::from_rows(&[vec!["a", "b"]]).unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&b));
        assert_eq!(canonical_key(&a), canonical_key(&c));
    }
}
