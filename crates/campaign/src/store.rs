//! The content-addressed, append-only result store.
//!
//! Results live as JSON-lines under `campaigns/<name>/results.jsonl`.
//! Every line is one finished [`PointRecord`], addressed by the
//! [`SweepPoint::digest_hex`] of its resolved spec + seed +
//! code-version; the full key string is stored alongside the hash and
//! re-verified on lookup, so a collision (or a hand-edited line) can
//! never silently alias a different point.
//!
//! A record carries the *streamed* stopping-time summary (Welford
//! moments + P² quartiles, censoring and resource tallies) rather than
//! a sample vector, so record size — like the runner's memory — is
//! O(1) in the trial count. Floats are written with the exact
//! round-trip encoding of [`cobra_util::json`], so a write → load
//! round trip is still bit-identical. Records written by earlier
//! `CODE_VERSION`s fail the key check (and the field check) and are
//! simply recomputed: old stores stay valid, just cold.
//!
//! Append-only is what makes campaigns resumable: the runner flushes
//! each record the moment its job finishes, so a killed run leaves a
//! valid store holding everything completed so far, and the next run
//! recomputes only the missing points. Unreadable lines (e.g. a torn
//! final write) are skipped on load and simply recomputed. When the
//! same key appears twice, the last line wins.
//!
//! [`SweepPoint::digest_hex`]: crate::point::SweepPoint::digest_hex

use cobra_mc::{StoppingAccumulator, StoppingEstimate};
use cobra_util::json::{obj, Json};
use cobra_util::FileLock;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// One finished point: the resolved identity plus the streamed
/// stopping-time summary the artifact layer folds. Integer fields stay
/// exact by construction; float fields use the exact round-trip float
/// encoding, so a write → load round trip is bit-identical either way.
///
/// Equality compares only the scientific payload — the [`PointTiming`]
/// fields (`wall_seconds`, `trial_q25`, `trial_median`, `trial_q75`)
/// are machine-speed measurements, not part of the point's identity,
/// so determinism tests comparing records across thread counts or
/// backends still hold.
#[derive(Debug, Clone)]
pub struct PointRecord {
    /// `hex16` digest of `spec` — the store's address.
    pub key: String,
    /// The full key string (resolved point spec + seed + version).
    pub spec: String,
    /// Canonical graph spec string.
    pub graph: String,
    /// Canonical process spec string.
    pub process: String,
    /// Canonical objective string (`cover` / `hit:V` / `hit:far` /
    /// `infection:T`).
    pub objective: String,
    /// Vertices of the materialised graph.
    pub n: usize,
    /// Edges of the materialised graph.
    pub m: usize,
    pub trials: usize,
    pub cap: usize,
    pub seed: u64,
    /// Trials that met the objective (`trials - censored`).
    pub completed: usize,
    /// Trials censored at the cap.
    pub censored: usize,
    /// Mean stopping time over completed trials (0 when none
    /// completed).
    pub mean: f64,
    /// Sample standard deviation of the stopping time.
    pub std_dev: f64,
    /// Smallest completed stopping time.
    pub min: f64,
    /// Largest completed stopping time.
    pub max: f64,
    /// First-quartile estimate (P², exact under five trials).
    pub q25: f64,
    /// Median estimate (P², exact under five trials).
    pub median: f64,
    /// Third-quartile estimate (P², exact under five trials).
    pub q75: f64,
    /// Total transmissions across all trials.
    pub total_transmissions: u64,
    /// Total reached-set size at trial end, summed over trials.
    pub total_reached: u64,
    /// Wall-clock seconds spent computing this point (0 for records
    /// written before timing existed; excluded from equality).
    pub wall_seconds: f64,
    /// First-quartile per-trial seconds (0 when untimed; excluded from
    /// equality).
    pub trial_q25: f64,
    /// Median per-trial seconds (0 when untimed; excluded from
    /// equality).
    pub trial_median: f64,
    /// Third-quartile per-trial seconds (0 when untimed; excluded from
    /// equality).
    pub trial_q75: f64,
}

/// Wall-clock timing attached to a freshly computed [`PointRecord`].
/// The trial quartiles are streaming P² estimates (exact below five
/// trials). Additive within `cobra-campaign/2`: old store lines simply decode
/// with zeroed timing, staying warm.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointTiming {
    /// Wall-clock seconds for the whole point.
    pub wall_seconds: f64,
    /// First-quartile per-trial seconds.
    pub trial_q25: f64,
    /// Median per-trial seconds.
    pub trial_median: f64,
    /// Third-quartile per-trial seconds.
    pub trial_q75: f64,
}

impl PartialEq for PointRecord {
    /// Timing fields are intentionally excluded: two runs of the same
    /// point on different machines (or thread counts) must compare
    /// equal.
    fn eq(&self, other: &PointRecord) -> bool {
        self.key == other.key
            && self.spec == other.spec
            && self.graph == other.graph
            && self.process == other.process
            && self.objective == other.objective
            && self.n == other.n
            && self.m == other.m
            && self.trials == other.trials
            && self.cap == other.cap
            && self.seed == other.seed
            && self.completed == other.completed
            && self.censored == other.censored
            && self.mean == other.mean
            && self.std_dev == other.std_dev
            && self.min == other.min
            && self.max == other.max
            && self.q25 == other.q25
            && self.median == other.median
            && self.q75 == other.q75
            && self.total_transmissions == other.total_transmissions
            && self.total_reached == other.total_reached
    }
}

impl PointRecord {
    /// Builds a record from a resolved point's identity and the fold of
    /// its trials.
    pub fn from_fold(
        point: &crate::point::SweepPoint,
        (n, m): (usize, usize),
        acc: StoppingAccumulator,
        timing: PointTiming,
    ) -> PointRecord {
        let (total_transmissions, total_reached) = (acc.total_transmissions(), acc.total_reached());
        let est = acc.finish(point.cap);
        PointRecord {
            key: point.digest_hex(),
            spec: point.full_key(),
            graph: point.graph.to_string(),
            process: point.process.to_string(),
            objective: point.objective.to_string(),
            n,
            m,
            trials: est.trials,
            cap: est.cap,
            seed: point.seed,
            completed: est.completed(),
            censored: est.censored,
            mean: est.mean,
            std_dev: est.std_dev,
            min: est.min,
            max: est.max,
            q25: est.q25,
            median: est.median,
            q75: est.q75,
            total_transmissions,
            total_reached,
            wall_seconds: timing.wall_seconds,
            trial_q25: timing.trial_q25,
            trial_median: timing.trial_median,
            trial_q75: timing.trial_q75,
        }
    }

    /// The record's summary as a [`StoppingEstimate`] (what
    /// `SimSpec::measure` would have returned for this point).
    pub fn to_estimate(&self) -> StoppingEstimate {
        StoppingEstimate {
            trials: self.trials,
            censored: self.censored,
            cap: self.cap,
            mean: self.mean,
            std_dev: self.std_dev,
            min: self.min,
            max: self.max,
            q25: self.q25,
            median: self.median,
            q75: self.q75,
            mean_transmissions: self.mean_transmissions(),
            mean_reached: self.total_reached as f64 / self.trials.max(1) as f64,
        }
    }

    /// Mean stopping time over completed trials (`None` if all
    /// censored).
    pub fn mean_rounds(&self) -> Option<f64> {
        if self.completed == 0 {
            return None;
        }
        Some(self.mean)
    }

    /// Mean transmissions per trial (censored included).
    pub fn mean_transmissions(&self) -> f64 {
        self.total_transmissions as f64 / self.trials.max(1) as f64
    }

    /// The JSONL encoding.
    pub fn to_json(&self) -> Json {
        obj([
            ("key", Json::Str(self.key.clone())),
            ("spec", Json::Str(self.spec.clone())),
            ("graph", Json::Str(self.graph.clone())),
            ("process", Json::Str(self.process.clone())),
            ("objective", Json::Str(self.objective.clone())),
            ("n", Json::Int(self.n as i128)),
            ("m", Json::Int(self.m as i128)),
            ("trials", Json::Int(self.trials as i128)),
            ("cap", Json::Int(self.cap as i128)),
            ("seed", Json::Int(self.seed as i128)),
            ("completed", Json::Int(self.completed as i128)),
            ("censored", Json::Int(self.censored as i128)),
            ("mean", Json::Float(self.mean)),
            ("std_dev", Json::Float(self.std_dev)),
            ("min", Json::Float(self.min)),
            ("max", Json::Float(self.max)),
            ("q25", Json::Float(self.q25)),
            ("median", Json::Float(self.median)),
            ("q75", Json::Float(self.q75)),
            (
                "total_transmissions",
                Json::Int(self.total_transmissions as i128),
            ),
            ("total_reached", Json::Int(self.total_reached as i128)),
            ("wall_seconds", Json::Float(self.wall_seconds)),
            ("trial_q25", Json::Float(self.trial_q25)),
            ("trial_median", Json::Float(self.trial_median)),
            ("trial_q75", Json::Float(self.trial_q75)),
        ])
    }

    /// Decodes one JSONL line; `None` when any field is missing or
    /// ill-typed (the loader skips such lines — including every record
    /// written by a pre-`cobra-campaign/2` store).
    fn from_json(v: &Json) -> Option<PointRecord> {
        let s = |k: &str| v.get(k)?.as_str().map(str::to_string);
        let u = |k: &str| v.get(k)?.as_usize();
        let f = |k: &str| v.get(k)?.as_f64();
        Some(PointRecord {
            key: s("key")?,
            spec: s("spec")?,
            graph: s("graph")?,
            process: s("process")?,
            objective: s("objective")?,
            n: u("n")?,
            m: u("m")?,
            trials: u("trials")?,
            cap: u("cap")?,
            seed: v.get("seed")?.as_u64()?,
            completed: u("completed")?,
            censored: u("censored")?,
            mean: f("mean")?,
            std_dev: f("std_dev")?,
            min: f("min")?,
            max: f("max")?,
            q25: f("q25")?,
            median: f("median")?,
            q75: f("q75")?,
            total_transmissions: v.get("total_transmissions")?.as_u64()?,
            total_reached: v.get("total_reached")?.as_u64()?,
            // Timing was added after cobra-campaign/2 shipped; tolerate
            // its absence so older stores stay warm.
            wall_seconds: v.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            trial_q25: v.get("trial_q25").and_then(Json::as_f64).unwrap_or(0.0),
            trial_median: v.get("trial_median").and_then(Json::as_f64).unwrap_or(0.0),
            trial_q75: v.get("trial_q75").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// The campaign result store: an in-memory index over an append-only
/// JSONL file (or purely in-memory for ephemeral runs).
#[derive(Debug)]
pub struct Store {
    records: HashMap<String, PointRecord>,
    path: Option<PathBuf>,
    writer: Option<Mutex<File>>,
    /// Advisory writer lock on the campaign directory, held for the
    /// store's lifetime so a second writer fails fast instead of
    /// interleaving appends (see [`Store::open`]).
    _writer_lock: Option<FileLock>,
}

impl Store {
    /// A store with no backing file — nothing persists, everything else
    /// behaves identically (used by tests, `--no-store`, and the
    /// in-process experiment migrations).
    pub fn in_memory() -> Store {
        Store {
            records: HashMap::new(),
            path: None,
            writer: None,
            _writer_lock: None,
        }
    }

    /// Opens (creating if needed) the store directory and loads every
    /// readable record from `results.jsonl`. Unreadable lines are
    /// skipped; duplicate keys resolve to the last line.
    ///
    /// Exactly one live writer per campaign directory: `open` takes an
    /// advisory `flock` on `<dir>/.lock` and fails fast with a
    /// [`std::io::ErrorKind::WouldBlock`] error naming the directory
    /// when another writer (this process or another) already holds it.
    /// Appends from two writers would interleave raggedly in
    /// `results.jsonl`; concurrent campaigns must instead share one
    /// handle — see [`SharedStore`], which is what the daemon does.
    /// The lock releases when the store drops (or the process dies).
    /// Read-only access ([`Store::load`]) never locks.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Store> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let writer_lock = match FileLock::try_acquire(&dir.join(".lock"))? {
            Some(lock) => Some(lock),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    format!(
                        "campaign store {} already has a live writer \
                         (held advisory lock on .lock); share one store \
                         handle instead of opening a second",
                        dir.display()
                    ),
                ));
            }
        };
        let path = dir.join("results.jsonl");
        let records = read_records(&path);
        let mut writer = OpenOptions::new().create(true).append(true).open(&path)?;
        // A kill mid-write can leave a torn final line with no newline;
        // terminate it so the next appended record starts on a fresh
        // line instead of gluing itself to the fragment (which would
        // make both unreadable forever).
        if let Ok(meta) = writer.metadata() {
            if meta.len() > 0 {
                use std::io::{Read, Seek, SeekFrom};
                let mut file = std::fs::File::open(&path)?;
                file.seek(SeekFrom::End(-1))?;
                let mut last = [0u8; 1];
                file.read_exact(&mut last)?;
                if last[0] != b'\n' {
                    writer.write_all(b"\n")?;
                }
            }
        }
        Ok(Store {
            records,
            path: Some(path),
            writer: Some(Mutex::new(writer)),
            _writer_lock: writer_lock,
        })
    }

    /// Read-only load: indexes whatever records exist under `dir`
    /// without creating the directory or the backing file, and never
    /// persists appends — the store a `--dry-run` inspects. Takes no
    /// writer lock, so it works while a writer is live.
    pub fn load(dir: impl AsRef<Path>) -> Store {
        Store {
            records: read_records(&dir.as_ref().join("results.jsonl")),
            path: None,
            writer: None,
            _writer_lock: None,
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Records currently indexed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a record by digest, verifying the stored full-key
    /// string — a digest collision or stale code-version never aliases.
    pub fn get(&self, key: &str, full_key: &str) -> Option<&PointRecord> {
        self.records.get(key).filter(|rec| rec.spec == full_key)
    }

    /// Appends one record to the backing file (no-op when in-memory)
    /// and flushes, so a kill after this call never loses the point.
    /// Thread-safe: the runner calls this from worker threads as jobs
    /// finish.
    pub fn append(&self, rec: &PointRecord) -> std::io::Result<()> {
        if let Some(writer) = &self.writer {
            let mut line = rec.to_json().to_string_compact();
            line.push('\n');
            let mut file = writer.lock().expect("store writer poisoned");
            file.write_all(line.as_bytes())?;
            file.flush()?;
        }
        Ok(())
    }

    /// Indexes freshly computed records (call once per batch, after the
    /// parallel section).
    fn absorb(&mut self, recs: impl IntoIterator<Item = PointRecord>) {
        for rec in recs {
            self.records.insert(rec.key.clone(), rec);
        }
    }
}

/// A cloneable read/append handle over one [`Store`], safe under
/// concurrent campaigns — the handle the `cobra-serve` daemon keeps per
/// campaign directory so every client submitting against the same sweep
/// name shares one writer (and therefore one advisory writer lock).
///
/// Reads take a shared lock; [`SharedStore::record`] takes the
/// exclusive lock for the append + index in one step, so a point
/// becomes visible to dedup lookups atomically with its persistence.
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: Arc<RwLock<Store>>,
}

impl SharedStore {
    /// Wraps an already-opened store.
    pub fn new(store: Store) -> SharedStore {
        SharedStore {
            inner: Arc::new(RwLock::new(store)),
        }
    }

    /// Opens `dir` (taking the single-writer lock) and wraps it.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<SharedStore> {
        Ok(SharedStore::new(Store::open(dir)?))
    }

    /// A shared handle over an in-memory store.
    pub fn in_memory() -> SharedStore {
        SharedStore::new(Store::in_memory())
    }

    /// Cloned record lookup (digest + full-key verification).
    pub fn get(&self, key: &str, full_key: &str) -> Option<PointRecord> {
        self.read(|store| store.get(key, full_key).cloned())
    }

    /// Appends to the backing file and indexes the record atomically —
    /// after this returns, concurrent planners see the point as cached.
    pub fn record(&self, rec: &PointRecord) -> std::io::Result<()> {
        let mut store = self.inner.write().expect("shared store poisoned");
        store.append(rec)?;
        store.absorb([rec.clone()]);
        Ok(())
    }

    /// Records currently indexed.
    pub fn len(&self) -> usize {
        self.read(Store::len)
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.read(Store::is_empty)
    }

    /// Runs `f` under the shared read lock — how the daemon plans a
    /// sweep against a consistent snapshot of the store.
    pub fn read<T>(&self, f: impl FnOnce(&Store) -> T) -> T {
        f(&self.inner.read().expect("shared store poisoned"))
    }

    /// True when both handles share one store.
    pub fn same_store(&self, other: &SharedStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The store back, once this is the last handle.
    pub fn into_inner(self) -> Store {
        let lock = Arc::try_unwrap(self.inner).expect("no other handle is live");
        lock.into_inner().expect("shared store poisoned")
    }
}

/// Indexes every readable JSONL record at `path` (absent file = empty).
/// Lines are decoded one by one, so a line that is not UTF-8 (a torn
/// append can cut a multi-byte character) is skipped like any other
/// unreadable line.
fn read_records(path: &Path) -> HashMap<String, PointRecord> {
    let mut records = HashMap::new();
    if let Ok(bytes) = std::fs::read(path) {
        for line in bytes.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line) else {
                continue;
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rec) = Json::parse(line)
                .ok()
                .as_ref()
                .and_then(PointRecord::from_json)
            {
                records.insert(rec.key.clone(), rec);
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, n: usize) -> PointRecord {
        PointRecord {
            key: key.to_string(),
            spec: format!("cover;graph=cycle:{n};seed=1"),
            graph: format!("cycle:{n}"),
            process: "cobra:b2".into(),
            objective: "cover".into(),
            n,
            m: n,
            trials: 3,
            cap: 1000,
            seed: u64::MAX - 1,
            completed: 3,
            censored: 0,
            mean: 5.0,
            std_dev: 1.0,
            min: 4.0,
            max: 6.0,
            q25: 4.5,
            median: 5.0,
            q75: 5.5,
            total_transmissions: u64::MAX / 2,
            total_reached: 3 * n as u64,
            wall_seconds: 0.25,
            trial_q25: 0.05,
            trial_median: 0.08,
            trial_q75: 0.11,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut rec = record("abc123", 16);
        // Awkward floats must survive bit-for-bit, not just pretty ones.
        rec.mean = 0.1 + 0.2;
        rec.std_dev = f64::MIN_POSITIVE;
        rec.q75 = 1.0 / 3.0;
        rec.wall_seconds = 0.1 + 0.7;
        let line = rec.to_json().to_string_compact();
        let back = PointRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
        // Timing is outside `PartialEq`; check its round trip directly.
        assert_eq!(back.wall_seconds, rec.wall_seconds);
        assert_eq!(back.trial_q25, rec.trial_q25);
        assert_eq!(back.trial_median, rec.trial_median);
        assert_eq!(back.trial_q75, rec.trial_q75);
    }

    #[test]
    fn records_without_timing_fields_still_decode() {
        // A line written before timing existed: same payload, no
        // wall_seconds/trial_* keys. It must decode (warm store) with
        // zeroed timing rather than being recomputed.
        let rec = record("abc123", 16);
        let line = rec.to_json().to_string_compact();
        let stripped: String = {
            let v = Json::parse(&line).unwrap();
            let fields: Vec<(&'static str, Json)> = [
                "key",
                "spec",
                "graph",
                "process",
                "objective",
                "n",
                "m",
                "trials",
                "cap",
                "seed",
                "completed",
                "censored",
                "mean",
                "std_dev",
                "min",
                "max",
                "q25",
                "median",
                "q75",
                "total_transmissions",
                "total_reached",
            ]
            .iter()
            .map(|&k| (k, v.get(k).unwrap().clone()))
            .collect();
            obj(fields).to_string_compact()
        };
        let back = PointRecord::from_json(&Json::parse(&stripped).unwrap()).unwrap();
        assert_eq!(back, rec, "payload equality ignores timing");
        assert_eq!(back.wall_seconds, 0.0);
        assert_eq!(back.trial_median, 0.0);
    }

    #[test]
    fn equality_ignores_timing() {
        let a = record("abc123", 16);
        let mut b = a.clone();
        b.wall_seconds = 99.0;
        b.trial_q25 = 1.0;
        b.trial_median = 2.0;
        b.trial_q75 = 3.0;
        assert_eq!(a, b);
        b.mean += 1.0;
        assert_ne!(a, b);
    }

    #[test]
    fn to_estimate_reconstructs_the_streamed_summary() {
        let rec = record("abc123", 16);
        let est = rec.to_estimate();
        assert_eq!(est.trials, 3);
        assert_eq!(est.completed(), 3);
        assert_eq!(est.mean, 5.0);
        assert_eq!(est.summary().median, 5.0);
    }

    #[test]
    fn open_append_reload() {
        let dir = std::env::temp_dir().join(format!("cobra-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Store::open(&dir).unwrap();
            assert!(store.is_empty());
            let a = record("aaaa", 8);
            let b = record("bbbb", 16);
            store.append(&a).unwrap();
            store.append(&b).unwrap();
            store.absorb([a, b]);
            assert_eq!(store.len(), 2);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        let a = record("aaaa", 8);
        assert_eq!(store.get("aaaa", &a.spec), Some(&a));
        // Digest present but key string mismatched → treated as absent.
        assert_eq!(store.get("aaaa", "different-spec"), None);
        assert_eq!(store.get("cccc", &a.spec), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_last_duplicate_wins() {
        let dir = std::env::temp_dir().join(format!("cobra-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        text.push_str(&record("aaaa", 8).to_json().to_string_compact());
        text.push('\n');
        text.push_str("{\"torn\": ");
        text.push('\n');
        text.push_str("[1,2,3]\n"); // parses, wrong shape
        let mut newer = record("aaaa", 8);
        newer.mean = 9.0;
        text.push_str(&newer.to_json().to_string_compact());
        text.push('\n');
        // A torn append that cut "é" (0xC3 0xA9) after its first byte.
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(b"{\"graph\": \"file:caf\xc3\n");
        std::fs::write(dir.join("results.jsonl"), bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("aaaa", &newer.spec).unwrap().mean, 9.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readonly_load_sees_records_but_touches_nothing() {
        let dir = std::env::temp_dir().join(format!("cobra-store-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Loading a nonexistent store creates neither directory nor file.
        let empty = Store::load(&dir);
        assert!(empty.is_empty());
        assert!(!dir.exists(), "read-only load must not create the store");
        // After a real run, load() indexes the same records.
        {
            let mut store = Store::open(&dir).unwrap();
            let rec = record("aaaa", 8);
            store.append(&rec).unwrap();
            store.absorb([rec]);
        }
        let loaded = Store::load(&dir);
        assert_eq!(loaded.len(), 1);
        let rec = record("aaaa", 8);
        // Appends on a loaded store never persist.
        loaded.append(&record("bbbb", 9)).unwrap();
        assert_eq!(Store::load(&dir).len(), 1);
        assert_eq!(loaded.get("aaaa", &rec.spec), Some(&rec));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn second_writer_fails_fast_with_named_error() {
        let dir = std::env::temp_dir().join(format!("cobra-store-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = Store::open(&dir).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(
            err.to_string().contains("already has a live writer"),
            "error must name the conflict: {err}"
        );
        assert!(err.to_string().contains("cobra-store-lock"));
        // Read-only access stays possible while the writer is live...
        let ro = Store::load(&dir);
        assert!(ro.is_empty());
        // ...and dropping the writer releases the lock.
        drop(first);
        let again = Store::open(&dir).unwrap();
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_store_serves_concurrent_readers_and_appenders() {
        let dir = std::env::temp_dir().join(format!("cobra-store-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = SharedStore::open(&dir).unwrap();
        // Concurrent appends through clones of one handle — what the
        // daemon's worker pool does as points finish.
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let handle = shared.clone();
                scope.spawn(move || {
                    for i in 0..8u32 {
                        let rec = record(&format!("k{t:02}{i:02}"), 8);
                        handle.record(&rec).unwrap();
                    }
                });
            }
        });
        assert_eq!(shared.len(), 32);
        // record() is append + index in one step: visible immediately.
        let rec = record("k0003", 8);
        assert_eq!(shared.get("k0003", &rec.spec), Some(rec));
        drop(shared);
        // Every append persisted as a clean line.
        let reloaded = Store::open(&dir).unwrap();
        assert_eq!(reloaded.len(), 32);
        drop(reloaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_store_accepts_appends_without_disk() {
        let mut store = Store::in_memory();
        let rec = record("aaaa", 8);
        store.append(&rec).unwrap();
        assert!(store.is_empty(), "append alone does not index");
        store.absorb([rec.clone()]);
        assert_eq!(store.get("aaaa", &rec.spec), Some(&rec));
        assert_eq!(store.path(), None);
    }
}
