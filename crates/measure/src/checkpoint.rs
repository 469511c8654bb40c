//! Versioned, checksummed campaign checkpoints.
//!
//! A sharded campaign persists its progress in two layers:
//!
//! * the *manifest* (`manifest.ckpt`): one small file recording, per
//!   shard, whether it is pending or complete — and for a complete shard
//!   its record count plus the size and FNV-1a checksum of each of its
//!   three files. It is rewritten once per shard commit and stays a few
//!   KB whatever the campaign length;
//! * three files per complete shard, each written tmp + rename before the
//!   shard commits: the JSONL data file (`shard-NNNN.jsonl`), its
//!   fixed-width key index (`shard-NNNN.keys`, one [`KeyEntry`] per
//!   line) and its state sidecar (`shard-NNNN.state`, a
//!   [`ShardSidecar`]: the shard's aggregate cells, per-(pair, day)
//!   health cells, metrics registry and retry-exhaustion events).
//!
//! A killed campaign resumes by loading the manifest, re-validating every
//! complete shard's three files against the recorded sizes and checksums,
//! and running only what is left.
//!
//! The manifest and the sidecar share one framing: a header line
//! followed by a compact JSON body.
//!
//! ```text
//! edns-checkpoint v3 <16-hex fnv64 of body>
//! {"entries":[...],"fingerprint":"...","pairs":21,"seed":"2a","shards":4}
//! ```
//!
//! ```text
//! edns-shard-state v3 <16-hex fnv64 of body>
//! {"exhausted":[...],"health":[...],"metrics":[...],"pairs":[...],"shard":0}
//! ```
//!
//! The header carries the format version and a checksum of the body, so a
//! truncated write, a corrupt byte, or a file from a different format
//! version is detected and rejected with a typed [`CheckpointError`] — the
//! engine then re-runs from scratch rather than silently resuming from bad
//! state. The `fingerprint` binds the manifest to one campaign
//! configuration (seed, pair list, schedule); resuming with a different
//! configuration is a [`CheckpointError::ConfigMismatch`].
//!
//! Every float in a body is written with the workspace's
//! shortest-round-trip formatter ([`crate::json::write_float`]), which
//! re-parses bit-exactly — a decode of an encode reproduces the aggregate
//! cells and metric histograms down to the last bit, which the
//! resume-determinism tests rely on.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use edns_stats::{Availability, LatencySketch, RunningMoments, SKETCH_BUCKET_COUNT};
use obs::{
    CellMetrics, CellSnapshot, Counter, Histogram, Label, MetricKey, MetricsSnapshot, Phase,
    LATENCY_BUCKETS_MS,
};

use crate::aggregate::{AggregateCell, PairAggregate};
use crate::health::HealthCell;
use crate::json::Json;

/// The checkpoint format version this build reads and writes.
///
/// v3 moved everything that grows with pairs × days (aggregate and health
/// cells) out of the manifest into per-shard sidecars, and added the key
/// index and the persisted per-shard metrics. v2 manifests (cells inline)
/// and v1 manifests (no health state) are rejected: the engine re-runs
/// from scratch rather than resuming from a layout it cannot validate.
pub const CHECKPOINT_VERSION: u32 = 3;

/// The magic token opening every manifest header line.
pub const CHECKPOINT_MAGIC: &str = "edns-checkpoint";

/// The magic token opening every shard state sidecar.
pub const SIDECAR_MAGIC: &str = "edns-shard-state";

/// 64-bit FNV-1a — the workspace's dependency-free content checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a checkpoint could not be loaded or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message includes the path and OS error).
    Io(String),
    /// The file does not start with the expected magic — not a
    /// checkpoint (or not a sidecar) at all.
    BadMagic,
    /// The file is a checkpoint, but from a different format version.
    VersionMismatch {
        /// The version token found in the header (e.g. `"v2"`).
        found: String,
    },
    /// The body does not hash to the checksum recorded in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the body as found on disk.
        actual: u64,
    },
    /// The file ends before the body (or the body is empty) — a torn
    /// write.
    Truncated,
    /// The body is not valid JSON, or is missing required fields.
    Parse(String),
    /// The manifest belongs to a different campaign configuration.
    ConfigMismatch(String),
    /// A shard's recorded data is internally inconsistent, or one of its
    /// files fails re-validation.
    ShardData(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version {found} is not supported (this build reads v{CHECKPOINT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:016x}, body hashes to {actual:016x}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Parse(msg) => write!(f, "checkpoint body malformed: {msg}"),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint is for a different campaign: {msg}")
            }
            CheckpointError::ShardData(msg) => write!(f, "shard data invalid: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Size and checksum of one file a complete shard owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileDigest {
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a checksum of the whole file.
    pub checksum: u64,
}

impl FileDigest {
    /// The digest of `bytes`.
    pub fn of(bytes: &[u8]) -> FileDigest {
        FileDigest {
            bytes: bytes.len() as u64,
            checksum: fnv64(bytes),
        }
    }

    fn to_json(self) -> Json {
        Json::object([
            ("bytes", Json::Int(self.bytes as i64)),
            ("fnv64", Json::Str(format!("{:016x}", self.checksum))),
        ])
    }

    fn from_json(v: Option<&Json>, what: &str) -> Result<FileDigest, CheckpointError> {
        let v = v.ok_or_else(|| parse_err_owned(format!("complete shard missing {what}")))?;
        Ok(FileDigest {
            bytes: int_field(v, "bytes")?,
            checksum: hex_field(v, "fnv64")?,
        })
    }

    /// Re-validates the file at `path` against this digest: a missing
    /// file, a size change or a checksum change is
    /// [`CheckpointError::ShardData`].
    pub fn validate(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::ShardData(format!("read {}: {e}", path.display())))?;
        if bytes.len() as u64 != self.bytes {
            return Err(CheckpointError::ShardData(format!(
                "{} is {} bytes, manifest says {}",
                path.display(),
                bytes.len(),
                self.bytes
            )));
        }
        let sum = fnv64(&bytes);
        if sum != self.checksum {
            return Err(CheckpointError::ShardData(format!(
                "{} hashes to {sum:016x}, manifest says {:016x}",
                path.display(),
                self.checksum
            )));
        }
        Ok(())
    }
}

/// One completed shard's manifest entry: its record count and the
/// digests of the three files it owns. Everything that grows with the
/// shard's pairs × days lives in the sidecar, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: u32,
    /// Probe records in the shard's data file (and entries in its key
    /// index).
    pub records: u64,
    /// The JSONL data file, `shard-NNNN.jsonl`.
    pub data: FileDigest,
    /// The key index, `shard-NNNN.keys`.
    pub keys: FileDigest,
    /// The state sidecar, `shard-NNNN.state`.
    pub sidecar: FileDigest,
}

/// One (pair, day) health delta as persisted in a shard sidecar.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDayHealth {
    /// Pair index within the campaign plan.
    pub pair: u32,
    /// Campaign day index.
    pub day: u32,
    /// The day's health cell.
    pub cell: HealthCell,
}

/// A shard's state in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardState {
    /// Not yet executed (or its previous execution did not survive).
    Pending,
    /// Executed, with its durable state.
    Complete(ShardCheckpoint),
}

impl ShardState {
    /// Whether this shard is complete.
    pub fn is_complete(&self) -> bool {
        matches!(self, ShardState::Complete(_))
    }
}

/// The campaign's durable progress record.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Fingerprint of the campaign configuration this manifest belongs to.
    pub fingerprint: u64,
    /// Campaign seed (also folded into the fingerprint; kept separately
    /// for human inspection).
    pub seed: u64,
    /// Total (vantage, resolver) pairs in the campaign.
    pub pairs: u32,
    /// Per-shard states; `states.len()` is the shard count.
    pub states: Vec<ShardState>,
}

impl Manifest {
    /// A fresh manifest with every shard pending.
    pub fn new(fingerprint: u64, seed: u64, shards: u32, pairs: u32) -> Manifest {
        Manifest {
            fingerprint,
            seed,
            pairs,
            states: vec![ShardState::Pending; shards as usize],
        }
    }

    /// Number of complete shards.
    pub fn complete_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_complete()).count()
    }

    /// Whether every shard is complete.
    pub fn is_complete(&self) -> bool {
        self.states.iter().all(ShardState::is_complete)
    }

    /// Serialises the manifest: header line plus compact JSON body.
    pub fn encode(&self) -> String {
        let entries: Vec<Json> = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                ShardState::Pending => Json::object([
                    ("shard", Json::Int(i as i64)),
                    ("state", Json::Str("pending".to_string())),
                ]),
                ShardState::Complete(c) => Json::object([
                    ("shard", Json::Int(i as i64)),
                    ("state", Json::Str("complete".to_string())),
                    ("records", Json::Int(c.records as i64)),
                    ("data", c.data.to_json()),
                    ("keys", c.keys.to_json()),
                    ("sidecar", c.sidecar.to_json()),
                ]),
            })
            .collect();
        let body = Json::object([
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("seed", Json::Str(format!("{:x}", self.seed))),
            ("shards", Json::Int(self.states.len() as i64)),
            ("pairs", Json::Int(self.pairs as i64)),
            ("entries", Json::Array(entries)),
        ]);
        frame(CHECKPOINT_MAGIC, &body)
    }

    /// Parses and validates a serialised manifest.
    pub fn decode(text: &str) -> Result<Manifest, CheckpointError> {
        let v = unframe(CHECKPOINT_MAGIC, text)?;
        let fingerprint = hex_field(&v, "fingerprint")?;
        let seed = hex_field(&v, "seed")?;
        let shards = int_field(&v, "shards")? as usize;
        let pairs = int_field(&v, "pairs")? as u32;
        let entries = v
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| parse_err("missing entries array"))?;
        if entries.len() != shards {
            return Err(parse_err("entries length disagrees with shard count"));
        }
        let mut states = Vec::with_capacity(shards);
        for (i, e) in entries.iter().enumerate() {
            if int_field(e, "shard")? != i as u64 {
                return Err(parse_err("entries out of order"));
            }
            let state = e
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| parse_err("missing shard state"))?;
            match state {
                "pending" => states.push(ShardState::Pending),
                "complete" => states.push(ShardState::Complete(ShardCheckpoint {
                    shard: i as u32,
                    records: int_field(e, "records")?,
                    data: FileDigest::from_json(e.get("data"), "data digest")?,
                    keys: FileDigest::from_json(e.get("keys"), "keys digest")?,
                    sidecar: FileDigest::from_json(e.get("sidecar"), "sidecar digest")?,
                })),
                other => {
                    return Err(parse_err_owned(format!("unknown shard state {other:?}")));
                }
            }
        }
        Ok(Manifest {
            fingerprint,
            seed,
            pairs,
            states,
        })
    }

    /// Writes the manifest atomically (tmp + rename), so a crash
    /// never leaves a half-written manifest under the real name.
    pub fn store(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, self.encode().as_bytes())
    }

    /// Loads and validates a manifest from `path`.
    pub fn load(path: &Path) -> Result<Manifest, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Manifest::decode(&text)
    }
}

/// Writes `bytes` to `path` atomically: a sibling named `path` + `.tmp`
/// is written and then renamed over `path`, so a crash never leaves a
/// torn file under the real name.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))
}

/// `<magic> v<version> <fnv64 of body>\n<body>\n`.
fn frame(magic: &str, body: &Json) -> String {
    let body = body.to_string_compact();
    format!(
        "{magic} v{CHECKPOINT_VERSION} {:016x}\n{body}\n",
        fnv64(body.as_bytes())
    )
}

/// Checks a framed file's magic, version and body checksum, and parses
/// the body.
fn unframe(magic: &str, text: &str) -> Result<Json, CheckpointError> {
    let mut lines = text.splitn(2, '\n');
    let header = lines.next().unwrap_or("");
    let mut tokens = header.split(' ');
    if tokens.next() != Some(magic) {
        return Err(CheckpointError::BadMagic);
    }
    let version = tokens.next().ok_or(CheckpointError::Truncated)?;
    if version != format!("v{CHECKPOINT_VERSION}") {
        return Err(CheckpointError::VersionMismatch {
            found: version.to_string(),
        });
    }
    let checksum_hex = tokens.next().ok_or(CheckpointError::Truncated)?;
    let expected = u64::from_str_radix(checksum_hex, 16)
        .map_err(|_| CheckpointError::Parse("unreadable header checksum".to_string()))?;
    let body = lines.next().ok_or(CheckpointError::Truncated)?;
    let body = body.strip_suffix('\n').ok_or(CheckpointError::Truncated)?;
    if body.is_empty() {
        return Err(CheckpointError::Truncated);
    }
    let actual = fnv64(body.as_bytes());
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    crate::json::parse(body).map_err(|e| CheckpointError::Parse(e.to_string()))
}

/// Bytes per [`KeyEntry`] in a shard's key index.
pub const KEY_ENTRY_BYTES: usize = 20;

/// One line of a shard's key index: the record's merge key and the byte
/// length of its JSONL line (trailing newline included). Stored
/// little-endian as `at u64, pair u32, domain u32, len u32`, in the data
/// file's line order, so the line lengths sum to the data file's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyEntry {
    /// Probe time, simulated nanoseconds.
    pub at: u64,
    /// Merge rank of the record's (vantage, resolver) pair.
    pub pair: u32,
    /// Merge rank of the record's domain.
    pub domain: u32,
    /// Byte length of the record's JSONL line, newline included.
    pub len: u32,
}

impl KeyEntry {
    /// The (time, pair rank, domain rank) merge key.
    pub fn merge_key(&self) -> (u64, u32, u32) {
        (self.at, self.pair, self.domain)
    }

    /// The entry's fixed-width little-endian encoding.
    pub fn to_bytes(&self) -> [u8; KEY_ENTRY_BYTES] {
        let mut b = [0u8; KEY_ENTRY_BYTES];
        b[0..8].copy_from_slice(&self.at.to_le_bytes());
        b[8..12].copy_from_slice(&self.pair.to_le_bytes());
        b[12..16].copy_from_slice(&self.domain.to_le_bytes());
        b[16..20].copy_from_slice(&self.len.to_le_bytes());
        b
    }

    /// Decodes one fixed-width entry.
    pub fn from_bytes(b: &[u8; KEY_ENTRY_BYTES]) -> KeyEntry {
        let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let mut at = [0u8; 8];
        at.copy_from_slice(&b[0..8]);
        KeyEntry {
            at: u64::from_le_bytes(at),
            pair: u32_at(8),
            domain: u32_at(12),
            len: u32_at(16),
        }
    }
}

/// One retry-exhausted probe failure, kept for the flight-recorder
/// journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryExhaustion {
    /// Probe time, simulated nanoseconds.
    pub at: u64,
    /// Resolver hostname.
    pub resolver: Label,
    /// Vantage label.
    pub vantage: Label,
    /// Attempts spent.
    pub attempts: u32,
}

/// Everything a complete shard contributes to assembly besides its
/// records, persisted in `shard-NNNN.state`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSidecar {
    /// Shard index.
    pub shard: u32,
    /// The shard's per-pair aggregate cells, in pair-index order.
    pub pairs: Vec<PairAggregate>,
    /// The shard's per-(pair, day) health cells, in (pair, day) order.
    pub health: Vec<PairDayHealth>,
    /// The shard's metrics registry, folded over its merged records. A
    /// metrics cell is keyed by (resolver, vantage, protocol), so it
    /// belongs to exactly one pair and therefore one shard.
    pub metrics: MetricsSnapshot,
    /// Retry-exhausted failures, in the shard's record order.
    pub exhausted: Vec<RetryExhaustion>,
}

impl ShardSidecar {
    /// Serialises the sidecar: header line plus compact JSON body.
    pub fn encode(&self) -> String {
        let body = Json::object([
            ("shard", Json::Int(self.shard as i64)),
            (
                "pairs",
                Json::Array(self.pairs.iter().map(pair_aggregate_to_json).collect()),
            ),
            (
                "health",
                Json::Array(self.health.iter().map(pair_day_health_to_json).collect()),
            ),
            (
                "metrics",
                Json::Array(
                    self.metrics
                        .cells
                        .iter()
                        .map(cell_snapshot_to_json)
                        .collect(),
                ),
            ),
            (
                "exhausted",
                Json::Array(
                    self.exhausted
                        .iter()
                        .map(|e| {
                            Json::object([
                                ("at", Json::Int(e.at as i64)),
                                ("resolver", Json::Str(e.resolver.as_str().to_string())),
                                ("vantage", Json::Str(e.vantage.as_str().to_string())),
                                ("attempts", Json::Int(e.attempts as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        frame(SIDECAR_MAGIC, &body)
    }

    /// Parses and validates a serialised sidecar.
    pub fn decode(text: &str) -> Result<ShardSidecar, CheckpointError> {
        let v = unframe(SIDECAR_MAGIC, text)?;
        let array = |key: &str| {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| parse_err_owned(format!("sidecar missing {key:?} array")))
        };
        let pairs = array("pairs")?
            .iter()
            .map(pair_aggregate_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let health = array("health")?
            .iter()
            .map(pair_day_health_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let cells = array("metrics")?
            .iter()
            .map(cell_snapshot_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let exhausted = array("exhausted")?
            .iter()
            .map(|e| {
                Ok(RetryExhaustion {
                    at: int_field(e, "at")?,
                    resolver: Label::intern(text_field(e, "resolver")?),
                    vantage: Label::intern(text_field(e, "vantage")?),
                    attempts: int_field(e, "attempts")? as u32,
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        Ok(ShardSidecar {
            shard: int_field(&v, "shard")? as u32,
            pairs,
            health,
            metrics: MetricsSnapshot { cells },
            exhausted,
        })
    }

    /// Loads and validates a sidecar from `path`.
    pub fn load(path: &Path) -> Result<ShardSidecar, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        ShardSidecar::decode(&text)
    }
}

fn parse_err(msg: &str) -> CheckpointError {
    CheckpointError::Parse(msg.to_string())
}

fn parse_err_owned(msg: String) -> CheckpointError {
    CheckpointError::Parse(msg)
}

fn int_field(v: &Json, key: &str) -> Result<u64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_i64)
        .filter(|&n| n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| parse_err_owned(format!("missing or invalid field {key:?}")))
}

fn hex_field(v: &Json, key: &str) -> Result<u64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| parse_err_owned(format!("missing or invalid hex field {key:?}")))
}

fn text_field<'v>(v: &'v Json, key: &str) -> Result<&'v str, CheckpointError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err_owned(format!("missing or invalid string field {key:?}")))
}

fn parse_float_field(v: &Json, key: &str) -> Result<f64, CheckpointError> {
    v.get(key)
        .and_then(Json::as_f64)
        .filter(|f| f.is_finite())
        .ok_or_else(|| parse_err_owned(format!("missing or invalid float field {key:?}")))
}

fn counts_field<const N: usize>(v: &Json, key: &str) -> Result<[u64; N], CheckpointError> {
    let items = v
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| parse_err_owned(format!("missing {key:?} array")))?;
    if items.len() != N {
        return Err(parse_err_owned(format!("{key:?} arity mismatch")));
    }
    let mut counts = [0u64; N];
    for (slot, c) in counts.iter_mut().zip(items) {
        *slot = c
            .as_i64()
            .filter(|&n| n >= 0)
            .ok_or_else(|| parse_err_owned(format!("{key:?} entry not a count")))?
            as u64;
    }
    Ok(counts)
}

/// Encodes a latency sketch. Empty sketches collapse to `{"n":0}`, which
/// keeps the infinite min/max sentinels of an empty [`RunningMoments`] out
/// of the JSON (JSON has no `Infinity`).
pub fn sketch_to_json(s: &LatencySketch) -> Json {
    if s.count() == 0 {
        return Json::object([("n", Json::Int(0))]);
    }
    Json::object([
        ("n", Json::Int(s.count() as i64)),
        ("mean", Json::Float(s.mean().unwrap_or(0.0))),
        ("m2", Json::Float(s.moments().m2().unwrap_or(0.0))),
        ("min", Json::Float(s.min().unwrap_or(0.0))),
        ("max", Json::Float(s.max().unwrap_or(0.0))),
        (
            "buckets",
            Json::Array(
                s.bucket_counts()
                    .iter()
                    .map(|&c| Json::Int(c as i64))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a latency sketch, validating bucket arity and that the bucket
/// total matches the moment count.
pub fn sketch_from_json(v: &Json) -> Result<LatencySketch, CheckpointError> {
    let n = int_field(v, "n")?;
    if n == 0 {
        return Ok(LatencySketch::new());
    }
    let moments = RunningMoments::from_parts(
        n,
        parse_float_field(v, "mean")?,
        parse_float_field(v, "m2")?,
        parse_float_field(v, "min")?,
        parse_float_field(v, "max")?,
    );
    let counts = counts_field::<SKETCH_BUCKET_COUNT>(v, "buckets")?;
    if counts.iter().sum::<u64>() != n {
        return Err(parse_err("sketch bucket total disagrees with count"));
    }
    Ok(LatencySketch::from_parts(moments, counts))
}

/// Encodes an availability tally.
pub fn availability_to_json(a: &Availability) -> Json {
    let errors: BTreeMap<String, Json> = a
        .errors
        .iter()
        .map(|(k, &c)| (k.clone(), Json::Int(c as i64)))
        .collect();
    Json::object([
        ("successes", Json::Int(a.successes as i64)),
        ("errors", Json::Object(errors)),
    ])
}

/// Decodes an availability tally.
pub fn availability_from_json(v: &Json) -> Result<Availability, CheckpointError> {
    let successes = int_field(v, "successes")?;
    let errors_obj = match v.get("errors") {
        Some(Json::Object(m)) => m,
        _ => return Err(parse_err("availability missing errors object")),
    };
    let mut errors = BTreeMap::new();
    for (k, c) in errors_obj {
        let c = c
            .as_i64()
            .filter(|&n| n >= 0)
            .ok_or_else(|| parse_err("availability error count invalid"))?;
        errors.insert(k.clone(), c as u64);
    }
    Ok(Availability { successes, errors })
}

/// Encodes one pair's aggregate cell.
pub fn pair_aggregate_to_json(p: &PairAggregate) -> Json {
    Json::object([
        ("pair", Json::Int(p.pair as i64)),
        ("vantage", Json::Str(p.vantage.as_str().to_string())),
        ("resolver", Json::Str(p.resolver.as_str().to_string())),
        ("availability", availability_to_json(&p.cell.availability)),
        ("response", sketch_to_json(&p.cell.response)),
        ("ping", sketch_to_json(&p.cell.ping)),
    ])
}

/// Decodes one pair's aggregate cell.
pub fn pair_aggregate_from_json(v: &Json) -> Result<PairAggregate, CheckpointError> {
    let vantage = v
        .get("vantage")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err("cell missing vantage"))?;
    let resolver = v
        .get("resolver")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err("cell missing resolver"))?;
    let availability = availability_from_json(
        v.get("availability")
            .ok_or_else(|| parse_err("cell missing availability"))?,
    )?;
    let response = sketch_from_json(
        v.get("response")
            .ok_or_else(|| parse_err("cell missing response sketch"))?,
    )?;
    let ping = sketch_from_json(
        v.get("ping")
            .ok_or_else(|| parse_err("cell missing ping sketch"))?,
    )?;
    Ok(PairAggregate {
        pair: int_field(v, "pair")? as u32,
        vantage: Label::intern(vantage),
        resolver: Label::intern(resolver),
        cell: AggregateCell {
            availability,
            response,
            ping,
        },
    })
}

/// Encodes one (pair, day) health cell.
pub fn pair_day_health_to_json(h: &PairDayHealth) -> Json {
    Json::object([
        ("pair", Json::Int(h.pair as i64)),
        ("day", Json::Int(h.day as i64)),
        ("availability", availability_to_json(&h.cell.availability)),
        ("response", sketch_to_json(&h.cell.response)),
    ])
}

/// Decodes one (pair, day) health cell.
pub fn pair_day_health_from_json(v: &Json) -> Result<PairDayHealth, CheckpointError> {
    let availability = availability_from_json(
        v.get("availability")
            .ok_or_else(|| parse_err("health cell missing availability"))?,
    )?;
    let response = sketch_from_json(
        v.get("response")
            .ok_or_else(|| parse_err("health cell missing response sketch"))?,
    )?;
    Ok(PairDayHealth {
        pair: int_field(v, "pair")? as u32,
        day: int_field(v, "day")? as u32,
        cell: HealthCell {
            availability,
            response,
        },
    })
}

/// Encodes a metrics histogram bit-exactly (bucket counts and the exact
/// observation sum). Empty histograms collapse to `{"n":0}`.
fn histogram_to_json(h: &Histogram) -> Json {
    if h.count() == 0 {
        return Json::object([("n", Json::Int(0))]);
    }
    Json::object([
        ("n", Json::Int(h.count() as i64)),
        ("sum", Json::Float(h.sum())),
        (
            "buckets",
            Json::Array(
                h.bucket_counts()
                    .iter()
                    .map(|&c| Json::Int(c as i64))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a metrics histogram, validating bucket arity and that the
/// bucket total matches the count.
fn histogram_from_json(v: &Json) -> Result<Histogram, CheckpointError> {
    let n = int_field(v, "n")?;
    if n == 0 {
        return Ok(Histogram::default());
    }
    let counts = counts_field::<{ LATENCY_BUCKETS_MS.len() + 1 }>(v, "buckets")?;
    if counts.iter().sum::<u64>() != n {
        return Err(parse_err("histogram bucket total disagrees with count"));
    }
    Ok(Histogram::from_parts(counts, parse_float_field(v, "sum")?))
}

/// Encodes one metrics cell: its (resolver, vantage, protocol) key and
/// every counter, histogram and gauge it holds.
fn cell_snapshot_to_json(c: &CellSnapshot) -> Json {
    let m = &c.metrics;
    let errors: BTreeMap<String, Json> = m
        .errors
        .iter()
        .map(|(&k, &n)| (k.to_string(), Json::Int(n as i64)))
        .collect();
    Json::object([
        ("resolver", Json::Str(c.key.resolver.clone())),
        ("vantage", Json::Str(c.key.vantage.clone())),
        ("protocol", Json::Str(c.key.protocol.clone())),
        ("probes", Json::Int(m.probes.get() as i64)),
        ("successes", Json::Int(m.successes.get() as i64)),
        ("cache_hits", Json::Int(m.cache_hits.get() as i64)),
        ("errors", Json::Object(errors)),
        ("response", histogram_to_json(&m.response_ms)),
        ("ping", histogram_to_json(&m.ping_ms)),
        (
            "phases",
            Json::Array(m.phase_ms.iter().map(histogram_to_json).collect()),
        ),
        ("last_response_ms", Json::Float(m.last_response_ms.get())),
        (
            "retries",
            Json::Array(
                m.retries_by_phase
                    .iter()
                    .map(|c| Json::Int(c.get() as i64))
                    .collect(),
            ),
        ),
        ("recovered", Json::Int(m.recovered.get() as i64)),
        ("exhausted", Json::Int(m.exhausted.get() as i64)),
    ])
}

/// Decodes one metrics cell.
fn cell_snapshot_from_json(v: &Json) -> Result<CellSnapshot, CheckpointError> {
    let counter = |key: &str| -> Result<Counter, CheckpointError> {
        let mut c = Counter::default();
        c.add(int_field(v, key)?);
        Ok(c)
    };
    let errors_obj = match v.get("errors") {
        Some(Json::Object(m)) => m,
        _ => return Err(parse_err("metrics cell missing errors object")),
    };
    let mut errors = BTreeMap::new();
    for (label, n) in errors_obj {
        let n = n
            .as_i64()
            .filter(|&n| n >= 0)
            .ok_or_else(|| parse_err("metrics cell error count invalid"))?;
        errors.insert(Label::intern(label).as_str(), n as u64);
    }
    let histogram = |key: &str| {
        histogram_from_json(
            v.get(key)
                .ok_or_else(|| parse_err_owned(format!("metrics cell missing {key:?}")))?,
        )
    };
    let phase_ms: [Histogram; Phase::COUNT] = v
        .get("phases")
        .and_then(Json::as_array)
        .ok_or_else(|| parse_err("metrics cell missing phases array"))?
        .iter()
        .map(histogram_from_json)
        .collect::<Result<Vec<_>, _>>()?
        .try_into()
        .map_err(|_| parse_err("metrics cell phases arity mismatch"))?;
    let mut retries_by_phase = [Counter::default(); Phase::COUNT];
    for (slot, n) in retries_by_phase
        .iter_mut()
        .zip(counts_field::<{ Phase::COUNT }>(v, "retries")?)
    {
        slot.add(n);
    }
    let mut metrics = CellMetrics {
        probes: counter("probes")?,
        successes: counter("successes")?,
        cache_hits: counter("cache_hits")?,
        errors,
        response_ms: histogram("response")?,
        ping_ms: histogram("ping")?,
        phase_ms,
        retries_by_phase,
        recovered: counter("recovered")?,
        exhausted: counter("exhausted")?,
        ..CellMetrics::default()
    };
    metrics
        .last_response_ms
        .set(parse_float_field(v, "last_response_ms")?);
    Ok(CellSnapshot {
        key: MetricKey {
            resolver: text_field(v, "resolver")?.to_string(),
            vantage: text_field(v, "vantage")?.to_string(),
            protocol: text_field(v, "protocol")?.to_string(),
        },
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> AggregateCell {
        let mut cell = AggregateCell::default();
        cell.availability.success();
        cell.availability.success();
        cell.availability.error("query_timeout");
        cell.response.observe(12.5);
        cell.response.observe(48.25);
        cell.ping.observe(3.75);
        cell
    }

    fn sample_health() -> Vec<PairDayHealth> {
        let mut day0 = HealthCell::default();
        day0.availability.success();
        day0.availability.success();
        day0.response.observe(12.5);
        day0.response.observe(48.25);
        let mut day1 = HealthCell::default();
        day1.availability.error("query_timeout");
        vec![
            PairDayHealth {
                pair: 2,
                day: 0,
                cell: day0,
            },
            PairDayHealth {
                pair: 2,
                day: 1,
                cell: day1,
            },
        ]
    }

    fn sample_manifest() -> Manifest {
        let mut m = Manifest::new(0xfeed_beef, 42, 3, 4);
        m.states[1] = ShardState::Complete(ShardCheckpoint {
            shard: 1,
            records: 120,
            data: FileDigest {
                bytes: 34_567,
                checksum: 0xdead_beef_dead_beef,
            },
            keys: FileDigest {
                bytes: 2_400,
                checksum: 0x0123_4567_89ab_cdef,
            },
            sidecar: FileDigest {
                bytes: 5_432,
                checksum: 0xfeed_face_cafe_f00d,
            },
        });
        m
    }

    fn sample_sidecar() -> ShardSidecar {
        let mut registry = obs::MetricsRegistry::new();
        let cell = registry.cell("dns.google", "home-us-east", "doh");
        cell.probes.add(3);
        cell.successes.add(2);
        cell.cache_hits.inc();
        *cell.errors.entry("query_timeout").or_insert(0) += 1;
        cell.response_ms.observe(12.5);
        cell.response_ms.observe(48.25);
        cell.phase(Phase::Connect).observe(0.1);
        cell.phase(Phase::Connect).observe(0.2);
        cell.last_response_ms.set(48.25);
        cell.ping_ms.observe(3.75);
        cell.retries(Phase::TlsHandshake).add(2);
        cell.recovered.inc();
        registry
            .cell("dns.quad9.net", "home-us-east", "dot")
            .probes
            .inc();
        ShardSidecar {
            shard: 1,
            pairs: vec![
                PairAggregate {
                    pair: 2,
                    vantage: Label::intern("home-us-east"),
                    resolver: Label::intern("dns.google"),
                    cell: sample_cell(),
                },
                PairAggregate {
                    pair: 3,
                    vantage: Label::intern("home-us-east"),
                    resolver: Label::intern("dns.quad9.net"),
                    cell: AggregateCell::default(),
                },
            ],
            health: sample_health(),
            metrics: registry.snapshot(),
            exhausted: vec![RetryExhaustion {
                at: 86_400_000_000_123,
                resolver: Label::intern("dns.quad9.net"),
                vantage: Label::intern("home-us-east"),
                attempts: 3,
            }],
        }
    }

    #[test]
    fn manifest_round_trips_exactly() {
        let m = sample_manifest();
        let text = m.encode();
        let back = Manifest::decode(&text).unwrap();
        assert_eq!(back, m);
        // Encoding is a fixed point.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn header_is_versioned_and_checksummed() {
        let text = sample_manifest().encode();
        let header = text.lines().next().unwrap();
        assert!(header.starts_with("edns-checkpoint v3 "));
        let hex = header.rsplit(' ').next().unwrap();
        assert_eq!(hex.len(), 16);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            Manifest::decode("not-a-checkpoint v2 00\n{}"),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn other_versions_are_rejected() {
        // A future format, the cells-in-manifest v2 format and the
        // pre-health v1 format: no silent resume from a layout this build
        // cannot validate — the engine re-runs from scratch.
        for old in ["v4", "v2", "v1"] {
            let text = sample_manifest().encode().replacen(
                "edns-checkpoint v3",
                &format!("edns-checkpoint {old}"),
                1,
            );
            assert_eq!(
                Manifest::decode(&text),
                Err(CheckpointError::VersionMismatch {
                    found: old.to_string()
                })
            );
        }
    }

    #[test]
    fn sidecar_round_trips_exactly() {
        let s = sample_sidecar();
        let text = s.encode();
        assert!(text.starts_with("edns-shard-state v3 "));
        let back = ShardSidecar::decode(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), text);
        let (a, b) = (&back.metrics.cells[0].metrics, &s.metrics.cells[0].metrics);
        assert_eq!(a.response_ms.sum().to_bits(), b.response_ms.sum().to_bits());
        assert_eq!(
            a.last_response_ms.get().to_bits(),
            b.last_response_ms.get().to_bits()
        );
        // A manifest is not a sidecar.
        assert_eq!(
            ShardSidecar::decode(&sample_manifest().encode()),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn key_entries_round_trip_fixed_width() {
        let e = KeyEntry {
            at: 0x0102_0304_0506_0708,
            pair: 7,
            domain: 2,
            len: 913,
        };
        let b = e.to_bytes();
        assert_eq!(b.len(), KEY_ENTRY_BYTES);
        assert_eq!(&b[..8], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(KeyEntry::from_bytes(&b), e);
        assert_eq!(e.merge_key(), (0x0102_0304_0506_0708, 7, 2));
    }

    #[test]
    fn health_cells_round_trip_bit_exactly() {
        for h in sample_health() {
            let back = pair_day_health_from_json(&pair_day_health_to_json(&h)).unwrap();
            assert_eq!(back, h);
        }
        // A tampered day count is caught by the sketch validator.
        let h = &sample_health()[0];
        let mut obj = match pair_day_health_to_json(h) {
            Json::Object(m) => m,
            _ => unreachable!(),
        };
        obj.insert("response".to_string(), Json::object([("n", Json::Int(3))]));
        assert!(pair_day_health_from_json(&Json::Object(obj)).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample_manifest().encode();
        // Flip one digit inside the body.
        let corrupted = text.replacen("120", "121", 1);
        assert!(matches!(
            Manifest::decode(&corrupted),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample_manifest().encode();
        let header_only = text.lines().next().unwrap().to_string();
        assert_eq!(
            Manifest::decode(&header_only),
            Err(CheckpointError::Truncated)
        );
        let half = &text[..text.len() / 2];
        assert!(matches!(
            Manifest::decode(half),
            Err(CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated)
        ));
    }

    #[test]
    fn empty_sketch_encodes_compactly() {
        let s = LatencySketch::new();
        let v = sketch_to_json(&s);
        assert_eq!(v.to_string_compact(), r#"{"n":0}"#);
        assert_eq!(sketch_from_json(&v).unwrap(), s);
    }

    #[test]
    fn sketch_round_trip_is_bit_exact() {
        let mut s = LatencySketch::new();
        for x in [0.125, 3.9, 17.0, 230.75, 1999.5, 0.3] {
            s.observe(x);
        }
        let back = sketch_from_json(&sketch_to_json(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.mean().unwrap().to_bits(), s.mean().unwrap().to_bits());
        assert_eq!(
            back.moments().m2().unwrap().to_bits(),
            s.moments().m2().unwrap().to_bits()
        );
    }

    #[test]
    fn sketch_validation_catches_tampering() {
        let mut s = LatencySketch::new();
        s.observe(5.0);
        let v = sketch_to_json(&s);
        let mut tampered = match v {
            Json::Object(m) => m,
            _ => unreachable!(),
        };
        tampered.insert("n".to_string(), Json::Int(2));
        assert!(sketch_from_json(&Json::Object(tampered)).is_err());
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = std::env::temp_dir().join("edns-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.ckpt");
        let m = sample_manifest();
        m.store(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        // The tmp sibling does not linger.
        assert!(!dir.join("manifest.ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
