//! A model registry with parameters, metrics, and lineage, persisted as
//! JSON lines.
//!
//! Records are written and read with [`dm_obs::json`]: one JSON object per
//! line with sorted map keys, floats in the scoring wire's f64 dialect
//! (shortest round-trip decimal; NaN and ±∞ as sentinel strings), so every
//! value round-trips bit-exactly. `load` rejects malformed lines.

use dm_obs::json::{json_f64, json_usize, parse, write_escaped, write_f64, Json};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// The largest id a saved record can hold (the bound of [`json_usize`]).
const MAX_ID: u64 = 1 << 53;

/// Registry persistence failures.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A persisted line failed to parse as a record.
    Malformed {
        /// 1-based line number in the file.
        line: usize,
        /// Parser diagnostic.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry io error: {e}"),
            RegistryError::Malformed { line, message } => {
                write!(f, "bad record at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// One registered model/experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Registry-assigned id (position in insertion order).
    pub id: u64,
    /// Model/experiment name.
    pub name: String,
    /// Hyperparameters.
    pub params: HashMap<String, f64>,
    /// Evaluation metrics (e.g. "accuracy", "r2").
    pub metrics: HashMap<String, f64>,
    /// Id of the record this one was derived from (warm start, refinement).
    pub parent: Option<u64>,
    /// Free-form tags (dataset version, feature set, git-ish revision...).
    pub tags: Vec<String>,
}

/// In-memory registry with JSON-lines persistence.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    records: Vec<ModelRecord>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a model, returning its id.
    ///
    /// # Panics
    ///
    /// If `parent` is above 2^53: saved ids are JSON numbers, and `load`
    /// reads only integers an f64 holds exactly.
    pub fn register(
        &mut self,
        name: &str,
        params: HashMap<String, f64>,
        metrics: HashMap<String, f64>,
        parent: Option<u64>,
        tags: Vec<String>,
    ) -> u64 {
        assert!(parent.is_none_or(|p| p <= MAX_ID), "parent id {parent:?} is above 2^53");
        let id = self.records.len() as u64;
        self.records.push(ModelRecord { id, name: name.to_owned(), params, metrics, parent, tags });
        id
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fetch by id.
    pub fn get(&self, id: u64) -> Option<&ModelRecord> {
        self.records.get(id as usize)
    }

    /// All records.
    pub fn records(&self) -> &[ModelRecord] {
        &self.records
    }

    /// The record with the highest value of `metric`, if any record has it.
    pub fn best_by(&self, metric: &str) -> Option<&ModelRecord> {
        self.records.iter().filter(|r| r.metrics.contains_key(metric)).max_by(|a, b| {
            a.metrics[metric].partial_cmp(&b.metrics[metric]).expect("metrics must not be NaN")
        })
    }

    /// Lineage chain from a record back to its root ancestor (inclusive,
    /// newest first).
    pub fn lineage(&self, id: u64) -> Vec<&ModelRecord> {
        let mut out = Vec::new();
        let mut cur = self.get(id);
        while let Some(r) = cur {
            out.push(r);
            cur = r.parent.and_then(|p| self.get(p));
            // Cycle guard: parents must strictly decrease.
            if let (Some(next), Some(last)) = (cur, out.last()) {
                if next.id >= last.id {
                    break;
                }
            }
        }
        out
    }

    /// Records carrying a tag.
    pub fn by_tag(&self, tag: &str) -> Vec<&ModelRecord> {
        self.records.iter().filter(|r| r.tags.iter().any(|t| t == tag)).collect()
    }

    /// Persist as JSON lines.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), RegistryError> {
        let mut f = std::fs::File::create(path)?;
        for r in &self.records {
            writeln!(f, "{}", record_to_line(r))?;
        }
        Ok(())
    }

    /// Load from JSON lines; malformed lines produce
    /// [`RegistryError::Malformed`] naming the offending line.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RegistryError> {
        let f = std::fs::File::open(path)?;
        let mut records = Vec::new();
        for (i, line) in BufReader::new(f).lines().enumerate() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let rec = record_from_line(&line)
                .map_err(|message| RegistryError::Malformed { line: i + 1, message })?;
            records.push(rec);
        }
        Ok(ModelRegistry { records })
    }
}

/// One record as one JSON line.
fn record_to_line(r: &ModelRecord) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":{},\"name\":\"", r.id);
    write_escaped(&mut out, &r.name);
    out.push_str("\",\"params\":");
    write_map(&mut out, &r.params);
    out.push_str(",\"metrics\":");
    write_map(&mut out, &r.metrics);
    match r.parent {
        Some(p) => {
            let _ = write!(out, ",\"parent\":{p}");
        }
        None => out.push_str(",\"parent\":null"),
    }
    out.push_str(",\"tags\":[");
    for (i, t) in r.tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        write_escaped(&mut out, t);
        out.push('"');
    }
    out.push_str("]}");
    out
}

fn write_map(out: &mut String, m: &HashMap<String, f64>) {
    // Sorted keys: HashMap iteration order is nondeterministic, and stable
    // output makes saved files diffable.
    let mut entries: Vec<(&String, &f64)> = m.iter().collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        write_escaped(out, k);
        out.push_str("\":");
        write_f64(out, *v);
    }
    out.push('}');
}

fn record_from_line(line: &str) -> Result<ModelRecord, String> {
    let j = parse(line)?;
    let field = |name: &str| j.get(name).ok_or_else(|| format!("missing field {name:?}"));
    let id = json_usize(field("id")?, "field \"id\"")? as u64;
    let name = field("name")?.as_str().ok_or("field \"name\" must be a string")?.to_owned();
    let params = read_map(field("params")?)?;
    let metrics = read_map(field("metrics")?)?;
    let parent = match field("parent")? {
        Json::Null => None,
        p => Some(json_usize(p, "field \"parent\"")? as u64),
    };
    let tags = field("tags")?
        .as_arr()
        .ok_or("field \"tags\" must be an array")?
        .iter()
        .map(|t| t.as_str().map(str::to_owned).ok_or_else(|| "tags must be strings".to_owned()))
        .collect::<Result<_, _>>()?;
    Ok(ModelRecord { id, name, params, metrics, parent, tags })
}

fn read_map(j: &Json) -> Result<HashMap<String, f64>, String> {
    let entries = j.as_obj().ok_or("expected a JSON object of numbers")?;
    entries
        .iter()
        .map(|(k, v)| Ok((k.clone(), json_f64(v).map_err(|e| format!("value for {k:?}: {e}"))?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(lr: f64) -> HashMap<String, f64> {
        let mut m = HashMap::new();
        m.insert("lr".into(), lr);
        m
    }

    fn metrics(acc: f64) -> HashMap<String, f64> {
        let mut m = HashMap::new();
        m.insert("accuracy".into(), acc);
        m
    }

    #[test]
    fn register_and_query() {
        let mut reg = ModelRegistry::new();
        let a = reg.register("logreg", params(0.1), metrics(0.8), None, vec!["v1".into()]);
        let b = reg.register("logreg", params(0.5), metrics(0.9), Some(a), vec!["v1".into()]);
        let c = reg.register("tree", HashMap::new(), metrics(0.85), None, vec!["v2".into()]);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.best_by("accuracy").unwrap().id, b);
        assert_eq!(reg.by_tag("v1").len(), 2);
        assert_eq!(reg.by_tag("v2")[0].id, c);
        assert!(reg.best_by("missing_metric").is_none());
    }

    #[test]
    fn lineage_walks_parents() {
        let mut reg = ModelRegistry::new();
        let a = reg.register("m", params(0.1), metrics(0.5), None, vec![]);
        let b = reg.register("m", params(0.2), metrics(0.6), Some(a), vec![]);
        let c = reg.register("m", params(0.3), metrics(0.7), Some(b), vec![]);
        let chain = reg.lineage(c);
        let ids: Vec<u64> = chain.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![c, b, a]);
        assert_eq!(reg.lineage(a).len(), 1);
    }

    #[test]
    fn save_load_round_trip() {
        let mut reg = ModelRegistry::new();
        reg.register("a", params(0.1), metrics(0.9), None, vec!["exp1".into()]);
        reg.register("b", params(0.2), metrics(0.7), Some(0), vec![]);
        reg.register("orphan", params(0.3), metrics(0.5), Some(MAX_ID), vec![]); // largest id
        let path = std::env::temp_dir().join("dmml_registry_test.jsonl");
        reg.save(&path).unwrap();
        let back = ModelRegistry::load(&path).unwrap();
        assert_eq!(back.records(), reg.records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "above 2^53")]
    fn parent_ids_load_cannot_read_are_refused() {
        ModelRegistry::new().register("m", params(0.1), metrics(0.9), Some(MAX_ID + 1), vec![]);
    }

    #[test]
    fn round_trip_preserves_awkward_values() {
        let mut reg = ModelRegistry::new();
        let mut p = HashMap::new();
        p.insert("tiny".into(), 1e-308);
        p.insert("neg".into(), -0.1 - 0.2);
        p.insert("int-like".into(), 3.0);
        reg.register("quote\"back\\slash\nnewline", p, HashMap::new(), None, vec!["t\ta".into()]);
        let path = std::env::temp_dir().join("dmml_registry_awkward.jsonl");
        reg.save(&path).unwrap();
        let back = ModelRegistry::load(&path).unwrap();
        assert_eq!(back.records(), reg.records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_values_survive_save_and_load() {
        // Written as the wire's sentinel strings: a NaN metric used to save a
        // line that `load` rejected.
        let mut reg = ModelRegistry::new();
        let p = HashMap::from([("lr".to_owned(), f64::INFINITY), ("l2".into(), f64::NEG_INFINITY)]);
        let m = HashMap::from([("loss".to_owned(), f64::NAN), ("r2".into(), -0.0)]);
        reg.register("diverged", p, m, None, vec![]);
        let path = std::env::temp_dir().join("dmml_registry_non_finite.jsonl");
        reg.save(&path).unwrap();
        let back = ModelRegistry::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let bits = |m: &HashMap<String, f64>| {
            let mut v: Vec<(String, u64)> =
                m.iter().map(|(k, x)| (k.clone(), x.to_bits())).collect();
            v.sort();
            v
        };
        let (before, after) = (&reg.records()[0], &back.records()[0]);
        assert_eq!(bits(&after.params), bits(&before.params));
        assert_eq!(bits(&after.metrics), bits(&before.metrics));
    }

    #[test]
    fn files_written_by_the_earlier_codec_still_load() {
        // Lines as the registry's earlier private codec wrote them, with
        // `{:?}` floats (`3.0`, `1e-308`).
        let lines = concat!(
            r#"{"id":0,"name":"root","params":{},"metrics":{},"parent":null,"tags":[]}"#,
            "\n",
            r#"{"id":1,"name":"glm \"v2\"\\\u0001","params":{"int-like":3.0,"lr":0.1,"#,
            r#""neg":-0.30000000000000004,"tiny":1e-308},"metrics":{"acc":0.9375,"loss":-0.0},"#,
            r#""parent":0,"tags":["exp1","t\ta"]}"#,
            "\n"
        );
        let path = std::env::temp_dir().join("dmml_registry_earlier_codec.jsonl");
        std::fs::write(&path, lines).unwrap();
        let back = ModelRegistry::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let params = [("int-like", 3.0), ("lr", 0.1), ("neg", -0.1 - 0.2), ("tiny", 1e-308)];
        let glm = ModelRecord {
            id: 1,
            name: "glm \"v2\"\\\u{1}".into(),
            params: params.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            metrics: HashMap::from([("acc".to_owned(), 0.9375), ("loss".into(), -0.0)]),
            parent: Some(0),
            tags: vec!["exp1".into(), "t\ta".into()],
        };
        assert_eq!(back.records()[1], glm);
        assert_eq!(back.records()[1].metrics["loss"].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.lineage(1).len(), 2);
    }

    #[test]
    fn load_rejects_malformed() {
        let path = std::env::temp_dir().join("dmml_registry_bad.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(ModelRegistry::load(&path).is_err());

        // Structurally valid JSON that is not a record must also fail.
        std::fs::write(&path, "{\"id\":1}\n").unwrap();
        assert!(ModelRegistry::load(&path).is_err());
        std::fs::write(&path, "[1,2,3]\n").unwrap();
        assert!(ModelRegistry::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_typed_and_name_the_line() {
        let path = std::env::temp_dir().join("dmml_registry_typed_err.jsonl");
        std::fs::write(&path, "{\"id\":0,\"name\":\"a\",\"params\":{},\"metrics\":{},\"parent\":null,\"tags\":[]}\nnot json\n").unwrap();
        let err = ModelRegistry::load(&path).unwrap_err();
        match &err {
            RegistryError::Malformed { line, .. } => assert_eq!(*line, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(err.to_string().contains("line 2"), "{err}");
        // Works as a boxed error (Display + Error implemented).
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.source().is_none());

        let missing =
            ModelRegistry::load(std::env::temp_dir().join("dmml_no_such_file.jsonl")).unwrap_err();
        assert!(matches!(&missing, RegistryError::Io(_)));
        let boxed: Box<dyn std::error::Error> = Box::new(missing);
        assert!(boxed.source().is_some(), "Io wraps its cause");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_registry() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.best_by("accuracy").is_none());
        assert!(reg.get(0).is_none());
    }
}
