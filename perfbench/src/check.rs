//! Sequential references and the helpers that compare a run against them.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use sdg_apps::workloads::{KvRequest, Rating};

/// The table a kv request stream leaves behind when applied in order by
/// one thread.
pub fn kv_reference<'a>(requests: impl IntoIterator<Item = &'a KvRequest>) -> HashMap<i64, String> {
    let mut table = HashMap::new();
    for r in requests {
        if let KvRequest::Put { key, value } = r {
            table.insert(*key, value.clone());
        }
    }
    table
}

/// How two tables differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableDiff {
    /// Keys the reference has and the run lacks.
    pub missing: u64,
    /// Keys the run has and the reference lacks.
    pub extra: u64,
    /// Keys present in both with different values.
    pub differing: u64,
}

impl TableDiff {
    /// Total number of wrong keys.
    pub fn total(&self) -> u64 {
        self.missing + self.extra + self.differing
    }
}

/// Compares the table a run produced with the reference.
pub fn diff_tables<K: Eq + Hash, V: PartialEq>(
    got: &HashMap<K, V>,
    want: &HashMap<K, V>,
) -> TableDiff {
    let mut diff = TableDiff::default();
    for (k, v) in want {
        match got.get(k) {
            None => diff.missing += 1,
            Some(g) if g != v => diff.differing += 1,
            Some(_) => {}
        }
    }
    diff.extra = got.keys().filter(|k| !want.contains_key(k)).count() as u64;
    diff
}

/// Every `(key, value)` pair a key held at some point of a request
/// stream. A read that races writes to its key through another task's
/// queue may see an older or a newer write, but never a value the key
/// never held.
#[derive(Debug, Default)]
pub struct ValueHistory {
    seen: HashSet<(i64, u64)>,
}

impl ValueHistory {
    /// Records every put of `requests`.
    pub fn from_requests<'a>(requests: impl IntoIterator<Item = &'a KvRequest>) -> Self {
        let mut seen = HashSet::new();
        for r in requests {
            if let KvRequest::Put { key, value } = r {
                seen.insert((*key, digest(value)));
            }
        }
        ValueHistory { seen }
    }

    /// Whether `key` ever held `value`.
    pub fn allows(&self, key: i64, value: &str) -> bool {
        self.seen.contains(&(key, digest(value)))
    }
}

fn digest(value: &str) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A sequential model of the CF program (Alg. 1) that indexes ratings by
/// user, so it costs the length of one user's row per rating. It computes
/// exactly what `sdg_apps::cf::CfReference` computes (the tests hold the
/// two equal), which scans every rating per rating and is too slow for a
/// benchmark-sized stream.
#[derive(Debug, Default, Clone)]
pub struct CfModel {
    rows: HashMap<i64, HashMap<i64, f64>>,
    co_occ: HashMap<(i64, i64), f64>,
}

impl CfModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one rating.
    pub fn add_rating(&mut self, r: Rating) {
        let row = self.rows.entry(r.user).or_default();
        row.insert(r.item, r.rating as f64);
        for (&i, &v) in row.iter() {
            if v > 0.0 {
                *self.co_occ.entry((r.item, i)).or_default() += 1.0;
                *self.co_occ.entry((i, r.item)).or_default() += 1.0;
            }
        }
    }

    /// The recommendation vector for `user`: non-zero `(item, score)`
    /// pairs sorted by item.
    pub fn recommend(&self, user: i64) -> Vec<(i64, f64)> {
        let Some(row) = self.rows.get(&user) else {
            return Vec::new();
        };
        let mut rec: HashMap<i64, f64> = HashMap::new();
        for (&(r, c), &v) in &self.co_occ {
            if let Some(&x) = row.get(&c) {
                *rec.entry(r).or_default() += v * x;
            }
        }
        let mut out: Vec<(i64, f64)> = rec.into_iter().filter(|&(_, v)| v != 0.0).collect();
        out.sort_by_key(|&(i, _)| i);
        out
    }
}
