//! A shared, thread-safe memo of comparison outcomes, keyed by canonical
//! fingerprints.
//!
//! The one-shot comparer re-proves every pair from scratch; batch
//! compilation over a declaration corpus (paper §5) meets the same Mtype
//! shapes over and over. [`CompareCache`] memoizes *verdicts*
//! content-addressed by `(left_fp, right_fp, Mode, RuleSet fingerprint)`
//! — valid across graphs, sessions and (via [`CompareCache::store_into`])
//! processes — plus *correspondences*, which hold graph-local
//! [`MtypeId`]s and are therefore only reusable between holders of the
//! same frozen graph snapshot (checked via `MtypeGraph::uid`).
//!
//! Hit/miss/insert counters follow the runtime metrics idiom
//! (relaxed `AtomicU64`s plus a `Copy` snapshot struct).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mockingbird_artifact::{ArtifactKind, ArtifactStore, StoreKey};
use mockingbird_mtype::MtypeId;

use crate::compare::Mode;
use crate::correspondence::Correspondence;

/// Content-addressed identity of one comparison. Both fingerprints must
/// be computed with `RuleSet::canon_opts()` of the *same* rule set whose
/// `RuleSet::fingerprint()` is stored in `rules_fp` — the pairing is what
/// keeps verdicts from leaking between rule sets or modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical fingerprint of the left root.
    pub left_fp: u128,
    /// Canonical fingerprint of the right root.
    pub right_fp: u128,
    /// Equivalence or subtype.
    pub mode: Mode,
    /// `RuleSet::fingerprint()` of the rule set in force.
    pub rules_fp: u64,
}

impl CacheKey {
    /// The artifact-store key for this comparison under `kind`. `Mode` is
    /// flattened to the `subtype` bool (the artifact crate does not know
    /// about the comparer's enums).
    pub fn store_key(&self, kind: ArtifactKind) -> StoreKey {
        StoreKey {
            kind,
            left_fp: self.left_fp,
            right_fp: self.right_fp,
            subtype: matches!(self.mode, Mode::Subtype),
            rules_fp: self.rules_fp,
        }
    }

    /// Inverse of [`CacheKey::store_key`] (the kind is dropped).
    pub fn from_store_key(key: &StoreKey) -> CacheKey {
        CacheKey {
            left_fp: key.left_fp,
            right_fp: key.right_fp,
            mode: if key.subtype {
                Mode::Subtype
            } else {
                Mode::Equivalence
            },
            rules_fp: key.rules_fp,
        }
    }
}

/// A memoized comparison outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The pair compared successfully.
    Match,
    /// The pair failed; enough of the diagnosis is kept to resynthesize a
    /// `Mismatch` with the same reason and depth as the original run.
    Mismatch {
        /// Deepest failing sub-comparison, verbatim.
        reason: String,
        /// Constructor depth of that failure.
        depth: usize,
    },
}

impl Verdict {
    /// Canonical artifact body: `[matched u8][depth u64 LE][reason utf-8]`.
    /// This is the byte string the verdict's `ArtifactId` is computed over.
    pub fn to_artifact_body(&self) -> Vec<u8> {
        let (matched, reason, depth) = match self {
            Verdict::Match => (1u8, "", 0usize),
            Verdict::Mismatch { reason, depth } => (0u8, reason.as_str(), *depth),
        };
        let mut out = Vec::with_capacity(9 + reason.len());
        out.push(matched);
        out.extend_from_slice(&(depth as u64).to_le_bytes());
        out.extend_from_slice(reason.as_bytes());
        out
    }

    /// Decode an artifact body; `None` on malformed input.
    pub fn from_artifact_body(body: &[u8]) -> Option<Verdict> {
        if body.len() < 9 || body[0] > 1 {
            return None;
        }
        if body[0] == 1 {
            // Matches carry no diagnosis; anything else is malformed.
            if body.len() != 9 || body[1..9] != [0u8; 8] {
                return None;
            }
            return Some(Verdict::Match);
        }
        let depth = u64::from_le_bytes(body[1..9].try_into().unwrap()) as usize;
        let reason = std::str::from_utf8(&body[9..]).ok()?.to_string();
        Some(Verdict::Mismatch { reason, depth })
    }
}

/// Point-in-time counter values of a [`CompareCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verdict lookups that found an entry.
    pub hits: u64,
    /// Verdict lookups that found nothing.
    pub misses: u64,
    /// Verdicts inserted.
    pub inserts: u64,
    /// Correspondence lookups that could be reused (same snapshot uid).
    pub corr_hits: u64,
    /// Number of verdicts currently stored.
    pub verdicts: u64,
}

impl CacheStats {
    /// Fraction of verdict lookups that hit, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas relative to an earlier snapshot (stored-verdict
    /// count is carried over absolute, not subtracted).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            corr_hits: self.corr_hits.saturating_sub(earlier.corr_hits),
            verdicts: self.verdicts,
        }
    }
}

struct CorrEntry {
    left_uid: u64,
    right_uid: u64,
    left_root: MtypeId,
    right_root: MtypeId,
    corr: Arc<Correspondence>,
}

/// The shared memo. Cheap to share as `Arc<CompareCache>`; all methods
/// take `&self` and are safe to call from many worker threads at once.
#[derive(Default)]
pub struct CompareCache {
    verdicts: RwLock<HashMap<CacheKey, Verdict>>,
    corrs: RwLock<HashMap<CacheKey, CorrEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    corr_hits: AtomicU64,
}

impl CompareCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of verdicts stored.
    pub fn len(&self) -> usize {
        self.verdicts.read().expect("cache lock").len()
    }

    /// Whether no verdicts are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a verdict, counting the outcome.
    pub fn lookup(&self, key: &CacheKey) -> Option<Verdict> {
        let found = self.verdicts.read().expect("cache lock").get(key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a verdict (last writer wins; concurrent writers compute
    /// identical verdicts for identical keys, so races are benign).
    pub fn insert(&self, key: CacheKey, verdict: Verdict) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.verdicts
            .write()
            .expect("cache lock")
            .insert(key, verdict);
    }

    /// Looks up a reusable correspondence: the stored entry must have
    /// been recorded against the *same* graph snapshots (by uid) and the
    /// same root ids, because correspondences hold graph-local ids.
    pub fn lookup_correspondence(
        &self,
        key: &CacheKey,
        left_uid: u64,
        right_uid: u64,
        left_root: MtypeId,
        right_root: MtypeId,
    ) -> Option<Arc<Correspondence>> {
        let corrs = self.corrs.read().expect("cache lock");
        let e = corrs.get(key)?;
        if e.left_uid == left_uid
            && e.right_uid == right_uid
            && e.left_root == left_root
            && e.right_root == right_root
        {
            self.corr_hits.fetch_add(1, Ordering::Relaxed);
            Some(e.corr.clone())
        } else {
            None
        }
    }

    /// Stores a correspondence for reuse by other holders of the same
    /// graph snapshots.
    pub fn insert_correspondence(
        &self,
        key: CacheKey,
        left_uid: u64,
        right_uid: u64,
        corr: Arc<Correspondence>,
    ) {
        let entry = CorrEntry {
            left_uid,
            right_uid,
            left_root: corr.left_root,
            right_root: corr.right_root,
            corr,
        };
        self.corrs.write().expect("cache lock").insert(key, entry);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            corr_hits: self.corr_hits.load(Ordering::Relaxed),
            verdicts: self.len() as u64,
        }
    }

    /// Writes every verdict into `store` as [`ArtifactKind::Verdict`]
    /// records (correspondences are *not* persisted: their graph-local ids
    /// are meaningless elsewhere). Returns how many records were put.
    pub fn store_into(&self, store: &dyn ArtifactStore) -> usize {
        let verdicts = self.verdicts.read().expect("cache lock");
        for (key, verdict) in verdicts.iter() {
            store.put(
                key.store_key(ArtifactKind::Verdict),
                &verdict.to_artifact_body(),
            );
        }
        verdicts.len()
    }

    /// Absorbs every [`ArtifactKind::Verdict`] record from `store` into the
    /// cache. Malformed bodies are skipped. Returns how many verdicts were
    /// absorbed. Does not count as inserts in the stats.
    pub fn load_from(&self, store: &dyn ArtifactStore) -> usize {
        let mut map = self.verdicts.write().expect("cache lock");
        let mut n = 0usize;
        for (skey, id) in store.keys() {
            if skey.kind != ArtifactKind::Verdict {
                continue;
            }
            let Some(body) = store.body(&id) else {
                continue;
            };
            let Some(verdict) = Verdict::from_artifact_body(&body) else {
                continue;
            };
            map.insert(CacheKey::from_store_key(&skey), verdict);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;

    fn key(l: u128, r: u128, mode: Mode, rules: &RuleSet) -> CacheKey {
        CacheKey {
            left_fp: l,
            right_fp: r,
            mode,
            rules_fp: rules.fingerprint(),
        }
    }

    #[test]
    fn different_rulesets_and_modes_key_separately() {
        let cache = CompareCache::new();
        let full = RuleSet::full();
        let strict = RuleSet::strict();
        cache.insert(key(1, 2, Mode::Equivalence, &full), Verdict::Match);
        assert!(cache
            .lookup(&key(1, 2, Mode::Equivalence, &strict))
            .is_none());
        assert!(cache.lookup(&key(1, 2, Mode::Subtype, &full)).is_none());
        assert_eq!(
            cache.lookup(&key(1, 2, Mode::Equivalence, &full)),
            Some(Verdict::Match)
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
    }

    #[test]
    fn store_into_load_from_round_trips() {
        let cache = CompareCache::new();
        let full = RuleSet::full();
        cache.insert(key(10, 20, Mode::Equivalence, &full), Verdict::Match);
        cache.insert(
            key(30, 40, Mode::Subtype, &full),
            Verdict::Mismatch {
                reason: "kind mismatch: Integer vs Real".into(),
                depth: 3,
            },
        );
        let store = mockingbird_artifact::MemoryStore::new();
        assert_eq!(cache.store_into(&store), 2);
        assert_eq!(store.len(), 2);

        let warm = CompareCache::new();
        assert_eq!(warm.load_from(&store), 2);
        assert_eq!(
            warm.lookup(&key(10, 20, Mode::Equivalence, &full)),
            Some(Verdict::Match)
        );
        assert_eq!(
            warm.lookup(&key(30, 40, Mode::Subtype, &full)),
            Some(Verdict::Mismatch {
                reason: "kind mismatch: Integer vs Real".into(),
                depth: 3
            })
        );
    }

    #[test]
    fn verdict_body_codec_rejects_malformed() {
        let m = Verdict::Mismatch {
            reason: "width".into(),
            depth: 7,
        };
        assert_eq!(Verdict::from_artifact_body(&m.to_artifact_body()), Some(m));
        assert_eq!(
            Verdict::from_artifact_body(&Verdict::Match.to_artifact_body()),
            Some(Verdict::Match)
        );
        assert_eq!(Verdict::from_artifact_body(&[]), None);
        assert_eq!(Verdict::from_artifact_body(&[2; 16]), None);
        // A "match" smuggling a depth/reason is malformed.
        let mut bad = Verdict::Match.to_artifact_body();
        bad.extend_from_slice(b"junk");
        assert_eq!(Verdict::from_artifact_body(&bad), None);
    }

    #[test]
    fn correspondence_reuse_requires_matching_snapshot() {
        let cache = CompareCache::new();
        let full = RuleSet::full();
        let k = key(7, 7, Mode::Equivalence, &full);
        let mut g = mockingbird_mtype::MtypeGraph::new();
        let (lid, rid) = (g.unit(), g.dynamic());
        let corr = Arc::new(Correspondence {
            left_root: lid,
            right_root: rid,
            entries: HashMap::new(),
        });
        cache.insert_correspondence(k, 100, 100, corr.clone());
        assert!(cache
            .lookup_correspondence(&k, 100, 100, corr.left_root, corr.right_root)
            .is_some());
        assert!(
            cache
                .lookup_correspondence(&k, 101, 100, corr.left_root, corr.right_root)
                .is_none(),
            "a different graph uid must not reuse graph-local ids"
        );
        assert!(cache
            .lookup_correspondence(&k, 100, 100, corr.right_root, corr.left_root)
            .is_none());
        assert_eq!(cache.stats().corr_hits, 1);
    }
}
