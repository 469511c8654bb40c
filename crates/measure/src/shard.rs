//! The sharded, resumable campaign engine.
//!
//! A campaign's probe space is split into `K` deterministic *shards*:
//! contiguous, balanced ranges of the (vantage, resolver) pair list. A
//! whole pair always lives in exactly one shard — the per-pair RNG stream
//! is sequential, so a pair can never be split without replaying it.
//! Shards execute independently (work-queue over a thread pool, or one at
//! a time via [`ShardedRunner::advance`]). Each completed shard writes
//! three files, each tmp + rename so a crash never leaves a torn file
//! under the real name: its records as JSONL (`shard-NNNN.jsonl`), a
//! fixed-width key index with one merge key and line length per record
//! (`shard-NNNN.keys`), and a state sidecar with its aggregate cells,
//! per-(pair, day) health cells, metrics registry and retry-exhaustion
//! events (`shard-NNNN.state`). The shard then commits by rewriting the
//! campaign [`Manifest`], which records only each shard's status and the
//! size and checksum of its three files — a few KB, however long the
//! campaign.
//!
//! *Assembly* is a byte copy: a k-way merge over the key-index heads
//! copies each record's line from its shard file into the final campaign
//! JSONL without parsing it. The metrics snapshot is the union of the
//! per-shard registries; aggregates, health and drift install from the
//! sidecars. Memory stays O(shards) buffered readers + O(pairs × days)
//! cells, never O(records).
//!
//! Determinism contract (DESIGN.md §9): for any seed, shard count, thread
//! count, and any kill/resume schedule,
//!
//! ```text
//! run() == run_parallel(n) == ShardedRunner::run(t) == kill+resume
//! ```
//!
//! — byte-identical final JSONL, identical metrics snapshot, identical
//! aggregate cells. Within a shard, records merge by the same
//! `(time, pair rank, domain rank)` key the one-shot engine uses; across
//! shards the key is globally unique per pair (duplicate pairs are
//! rejected at construction), so the k-way merge over the key indexes
//! reproduces the one-shot order exactly.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, Read, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use netsim::faults::FaultScope;
use obs::clock::Stopwatch;
use obs::journal::codes;
use obs::{
    CellSnapshot, EventData, EventLevel, Journal, JournalEvent, Label, MetricsRegistry,
    MetricsSnapshot, ShardRunMetrics, SpanLog,
};

use crate::aggregate::{CampaignAggregates, PairAggregate};
use crate::campaign::{observe_record, Campaign, PairPlan};
use crate::checkpoint::{
    fnv64, write_atomic, CheckpointError, FileDigest, KeyEntry, Manifest, PairDayHealth,
    RetryExhaustion, ShardCheckpoint, ShardSidecar, ShardState, CHECKPOINT_VERSION,
    KEY_ENTRY_BYTES,
};
use crate::health::{
    day_of, detect_drift, DriftConfig, DriftFinding, HealthCell, HealthSeries, NANOS_PER_DAY,
};
use crate::results::{ProbeOutcome, ProbeRecord};

/// The manifest's file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.ckpt";

/// The assembled campaign's file name inside a checkpoint directory.
pub const CAMPAIGN_FILE: &str = "campaign.jsonl";

/// Everything a sharded run produces.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Path of the assembled campaign JSONL (byte-identical to the
    /// one-shot engine's `to_json_lines` output).
    pub jsonl_path: PathBuf,
    /// Records in the assembled file.
    pub records: u64,
    /// The campaign metrics snapshot, identical to `metrics_of` over the
    /// one-shot record vector.
    pub metrics: MetricsSnapshot,
    /// Bounded-memory per-pair aggregates.
    pub aggregates: CampaignAggregates,
    /// Scheduler telemetry: planned/executed/resumed shard counts,
    /// checkpoint traffic, merge volume.
    pub run: ShardRunMetrics,
    /// One span per shard laying its simulated-time extent on a timeline.
    pub spans: SpanLog,
    /// The per-(resolver, day) health timeseries, folded from the
    /// checkpointed (pair, day) cells — identical to
    /// [`HealthSeries::of`] over the one-shot record vector.
    pub health: HealthSeries,
    /// Deterministic drift findings over the health timeseries
    /// (default [`DriftConfig`]).
    pub drift: Vec<DriftFinding>,
    /// The flight-recorder journal: shard lifecycle, checkpoint traffic,
    /// fault windows, retry exhaustions and drift findings in simulated
    /// time, plus Ops-class resume telemetry.
    pub journal: Journal,
}

/// Default flight-recorder journal capacity: comfortably above what a
/// months-long campaign's lifecycle + findings emit, still O(1) memory.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8_192;

/// Splits a campaign into shards and executes them resumably.
#[derive(Debug)]
pub struct ShardedRunner<'a> {
    campaign: &'a Campaign,
    /// The campaign's pair plans, built once: shard ranges, the
    /// fingerprint, execution and assembly all index this list.
    plans: Vec<PairPlan>,
    shards: u32,
    dir: PathBuf,
    /// Journal ring capacity; 0 disables the journal entirely.
    journal_capacity: usize,
    /// Operator-facing wall-clock progress lines on stderr.
    progress: bool,
}

impl<'a> ShardedRunner<'a> {
    /// A runner over `campaign` with `shards` shards, checkpointing into
    /// `dir` (created if absent).
    ///
    /// Rejects a shard count of zero and campaigns with duplicate
    /// (vantage, resolver) pairs — a duplicated pair would appear in two
    /// shards with the same merge rank, making the cross-shard order
    /// ambiguous.
    pub fn new(
        campaign: &'a Campaign,
        shards: u32,
        dir: impl Into<PathBuf>,
    ) -> Result<ShardedRunner<'a>, CheckpointError> {
        if shards == 0 {
            return Err(CheckpointError::ShardData(
                "shard count must be at least 1".to_string(),
            ));
        }
        let plans = campaign.pair_plans();
        let mut seen: BTreeSet<(Label, Label)> = BTreeSet::new();
        for p in &plans {
            if !seen.insert((p.vantage_label, p.resolver_label)) {
                return Err(CheckpointError::ShardData(format!(
                    "duplicate (vantage, resolver) pair ({}, {})",
                    p.vantage_label.as_str(),
                    p.resolver_label.as_str()
                )));
            }
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(ShardedRunner {
            campaign,
            shards: shards.min(plans.len().max(1) as u32),
            plans,
            dir,
            journal_capacity: DEFAULT_JOURNAL_CAPACITY,
            progress: false,
        })
    }

    /// Sets the flight-recorder journal capacity (builder-style). A
    /// capacity of 0 disables the journal: recording costs one branch and
    /// zero allocations, and the outcome's journal exports empty.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Enables operator-facing progress lines on stderr (builder-style).
    /// Timing comes from the audited [`obs::clock::Stopwatch`]; nothing
    /// wall-clock flows into any deterministic output.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    fn new_journal(&self) -> Journal {
        if self.journal_capacity == 0 {
            Journal::disabled()
        } else {
            Journal::with_capacity(self.journal_capacity)
        }
    }

    /// The effective shard count (clamped to the pair count).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest path.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// The data-file path of shard `index`.
    pub fn shard_path(&self, index: u32) -> PathBuf {
        self.shard_file(index, "jsonl")
    }

    /// The path of shard `index`'s file with extension `ext`: `jsonl`
    /// (data), `keys` (key index) or `state` (sidecar).
    fn shard_file(&self, index: u32, ext: &str) -> PathBuf {
        self.dir.join(format!("shard-{index:04}.{ext}"))
    }

    /// Pair range of shard `index`: contiguous and balanced (sizes differ
    /// by at most one).
    pub fn shard_range(&self, index: u32) -> Range<usize> {
        let pairs = self.plans.len();
        let k = self.shards as usize;
        let i = index as usize;
        (i * pairs / k)..((i + 1) * pairs / k)
    }

    /// The fingerprint binding checkpoints to this campaign configuration:
    /// seed, shard count, schedule, domains, and the exact pair list.
    pub fn fingerprint(&self) -> u64 {
        let config = self.campaign.config();
        let mut s = String::new();
        let _ = write!(
            s,
            "v{CHECKPOINT_VERSION};seed={:x};shards={};",
            config.seed, self.shards
        );
        for d in &config.domains {
            let _ = write!(s, "domain={d};");
        }
        for span in &config.spans {
            let _ = write!(
                s,
                "span={},{},{},[{}];",
                span.start_day,
                span.days,
                span.rounds_per_day,
                span.vantages.join(",")
            );
        }
        // A live load model changes every record, so it is part of the
        // fingerprint — a checkpoint can never silently resume across a
        // load change. A zero model is byte-transparent and hashes like
        // its absence.
        if let Some(load) = config.load.as_ref().filter(|m| !m.is_zero()) {
            let _ = write!(
                s,
                "load={:x},{},{},{},{},{},{};",
                load.seed,
                load.multiplier,
                load.mainstream_share,
                load.niche_share,
                load.spill_utilization,
                load.day_jitter,
                load.regions.len()
            );
            for r in &load.regions {
                let _ = write!(
                    s,
                    "region={:?},{},{},{},{};",
                    r.region, r.clients, r.queries_per_client_day, r.diurnal_amplitude, r.peak_hour
                );
            }
        }
        // A live session model changes connection modes (and with them the
        // timing of most records), so it fingerprints too. Cold-only is
        // byte-transparent and hashes like its absence, exactly mirroring
        // the campaign-layer gate.
        if let Some(session) = config.session.as_ref().filter(|s| s.is_live()) {
            let _ = write!(s, "session={},{};", session.reuse, session.cold_fraction);
        }
        for p in &self.plans {
            let _ = write!(
                s,
                "pair={}/{};",
                p.vantage_label.as_str(),
                p.resolver_label.as_str()
            );
        }
        fnv64(s.as_bytes())
    }

    /// Loads the manifest if one exists and belongs to this configuration,
    /// re-validating every complete shard's data file, key index and
    /// sidecar against their recorded sizes and checksums; otherwise
    /// starts a fresh one. A manifest for a different configuration, a
    /// corrupt manifest, or a complete shard with a missing or altered
    /// file is a typed error — never a silent restart.
    pub fn load_or_init(&self) -> Result<Manifest, CheckpointError> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(Manifest::new(
                self.fingerprint(),
                self.campaign.config().seed,
                self.shards,
                self.plans.len() as u32,
            ));
        }
        let manifest = Manifest::load(&path)?;
        let expected = self.fingerprint();
        if manifest.fingerprint != expected {
            return Err(CheckpointError::ConfigMismatch(format!(
                "manifest fingerprint {:016x}, this campaign is {expected:016x}",
                manifest.fingerprint
            )));
        }
        if manifest.states.len() != self.shards as usize {
            return Err(CheckpointError::ConfigMismatch(format!(
                "manifest has {} shards, this run wants {}",
                manifest.states.len(),
                self.shards
            )));
        }
        for (i, state) in manifest.states.iter().enumerate() {
            if let ShardState::Complete(c) = state {
                let i = i as u32;
                if c.records.checked_mul(KEY_ENTRY_BYTES as u64) != Some(c.keys.bytes) {
                    return Err(CheckpointError::ShardData(format!(
                        "shard {i}: key index of {} bytes cannot hold {} records",
                        c.keys.bytes, c.records
                    )));
                }
                c.data.validate(&self.shard_file(i, "jsonl"))?;
                c.keys.validate(&self.shard_file(i, "keys"))?;
                c.sidecar.validate(&self.shard_file(i, "state"))?;
            }
        }
        Ok(manifest)
    }

    /// Executes shard `index` and persists its data file, key index and
    /// sidecar (each tmp + rename). The returned entry commits them.
    fn execute_shard(&self, index: u32) -> Result<ShardCheckpoint, CheckpointError> {
        let range = self.shard_range(index);
        let shard_plans = &self.plans[range.clone()];
        let outputs: Vec<Vec<ProbeRecord>> = shard_plans
            .iter()
            .map(|p| self.campaign.run_pair(p))
            .collect();

        // Per-pair aggregate cells and per-(pair, day) health cells, both
        // folded in each pair's own canonical order (merging never
        // reorders records within a pair) — so the checkpointed health
        // series is independent of shard count and resume schedule.
        let mut pairs = Vec::with_capacity(shard_plans.len());
        let mut health: Vec<PairDayHealth> = Vec::new();
        for (offset, records) in outputs.iter().enumerate() {
            let plan = &shard_plans[offset];
            let pair = (range.start + offset) as u32;
            let mut agg = PairAggregate {
                pair,
                vantage: plan.vantage_label,
                resolver: plan.resolver_label,
                cell: Default::default(),
            };
            let mut days: BTreeMap<u32, HealthCell> = BTreeMap::new();
            for r in records {
                agg.cell.observe(r);
                days.entry(day_of(r.at.as_nanos())).or_default().observe(r);
            }
            pairs.push(agg);
            health.extend(
                days.into_iter()
                    .map(|(day, cell)| PairDayHealth { pair, day, cell }),
            );
        }

        // One pass over the merged records writes each line, its key-index
        // entry, its metrics observation and any retry exhaustion. A
        // metrics cell belongs to one pair, and merging keeps each pair's
        // record order, so this registry folds every cell exactly as the
        // one-shot fold over all records does.
        let ranks: HashMap<(Label, Label), u32> = shard_plans
            .iter()
            .map(|p| ((p.vantage_label, p.resolver_label), p.order))
            .collect();
        let merged = self.campaign.merge_pairs(outputs, shard_plans);
        let mut body = String::new();
        let mut keys = Vec::with_capacity(merged.len() * KEY_ENTRY_BYTES);
        let mut registry = MetricsRegistry::new();
        let mut exhausted = Vec::new();
        for r in &merged {
            let start = body.len();
            r.write_json_line(&mut body);
            body.push('\n');
            // Every record belongs to one of the shard's pairs; a miss would
            // be written as rank u32::MAX, which assembly rejects.
            let pair = ranks
                .get(&(r.vantage_id(), r.resolver_id()))
                .copied()
                .unwrap_or(u32::MAX);
            let entry = KeyEntry {
                at: r.at.as_nanos(),
                pair,
                domain: self.campaign.domain_rank(r.domain_id()),
                len: (body.len() - start) as u32,
            };
            keys.extend_from_slice(&entry.to_bytes());
            observe_record(&mut registry, r);
            if let (ProbeOutcome::Failure { .. }, Some(retry)) = (&r.outcome, &r.retry) {
                if retry.exhausted() {
                    exhausted.push(RetryExhaustion {
                        at: entry.at,
                        resolver: r.resolver_id(),
                        vantage: r.vantage_id(),
                        attempts: retry.attempts,
                    });
                }
            }
        }
        let sidecar = ShardSidecar {
            shard: index,
            pairs,
            health,
            metrics: registry.snapshot(),
            exhausted,
        }
        .encode();

        write_atomic(&self.shard_file(index, "jsonl"), body.as_bytes())?;
        write_atomic(&self.shard_file(index, "keys"), &keys)?;
        write_atomic(&self.shard_file(index, "state"), sidecar.as_bytes())?;
        Ok(ShardCheckpoint {
            shard: index,
            records: merged.len() as u64,
            data: FileDigest::of(body.as_bytes()),
            keys: FileDigest::of(&keys),
            sidecar: FileDigest::of(sidecar.as_bytes()),
        })
    }

    /// Runs the whole campaign across `threads` workers, resuming from any
    /// existing checkpoints, and assembles the final output.
    pub fn run(&self, threads: usize) -> Result<ShardedOutcome, CheckpointError> {
        let watch = if self.progress {
            Some(Stopwatch::start())
        } else {
            None
        };
        let mut run = ShardRunMetrics::new();
        run.shards_planned.add(self.shards as u64);
        let mut journal = self.new_journal();
        let manifest = self.load_or_init()?;
        let pending: Vec<u32> = manifest
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_complete())
            .map(|(i, _)| i as u32)
            .collect();
        run.shards_resumed
            .add((self.shards as usize - pending.len()) as u64);
        // Fold resumed shards' work into the campaign-wide counters (and
        // the Ops journal), so a kill+resume reports the same pair/record
        // totals as a one-shot run. Ops events are process telemetry and
        // never reach the JSONL export.
        for (i, state) in manifest.states.iter().enumerate() {
            if let ShardState::Complete(c) = state {
                run.pairs_run.add(self.shard_range(i as u32).len() as u64);
                run.records_produced.add(c.records);
                journal.record_ops(
                    0,
                    EventLevel::Info,
                    codes::SHARD_RESUME,
                    EventData::shard(i as u32).with_count(c.records),
                );
            }
        }

        let shared = Mutex::new((manifest, run));
        let threads = threads.max(1).min(pending.len().max(1));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let first_error: Mutex<Option<CheckpointError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let pending = &pending;
                let next = &next;
                let shared = &shared;
                let first_error = &first_error;
                handles.push(scope.spawn(move || loop {
                    let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if slot >= pending.len() {
                        break;
                    }
                    let index = pending[slot];
                    match self.execute_shard(index) {
                        Ok(checkpoint) => {
                            if let Err(e) = self.commit_shard(shared, checkpoint, watch.as_ref()) {
                                first_error
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .get_or_insert(e);
                                break;
                            }
                        }
                        Err(e) => {
                            first_error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .get_or_insert(e);
                            break;
                        }
                    }
                }));
            }
            for h in handles {
                // detlint:allow(unwrap, propagates a worker panic; there is no partial result to salvage)
                h.join().expect("shard worker panicked");
            }
        });
        if let Some(e) = first_error.lock().unwrap_or_else(|p| p.into_inner()).take() {
            return Err(e);
        }
        let (manifest, run) = match shared.into_inner() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.assemble(&manifest, run, journal)
    }

    /// Commits one completed shard: updates the manifest state and
    /// rewrites the manifest atomically (this is the resume boundary).
    /// The manifest is encoded once and those bytes are what is stored
    /// and counted.
    fn commit_shard(
        &self,
        shared: &Mutex<(Manifest, ShardRunMetrics)>,
        checkpoint: ShardCheckpoint,
        watch: Option<&Stopwatch>,
    ) -> Result<(), CheckpointError> {
        let mut guard = shared.lock().unwrap_or_else(|p| p.into_inner());
        let (manifest, run) = &mut *guard;
        let index = checkpoint.shard;
        let records = checkpoint.records;
        run.shards_executed.add(1);
        run.pairs_run.add(self.shard_range(index).len() as u64);
        run.records_produced.add(records);
        manifest.states[index as usize] = ShardState::Complete(checkpoint);
        let encoded = manifest.encode();
        write_atomic(&self.manifest_path(), encoded.as_bytes())?;
        run.manifest_writes.add(1);
        run.checkpoint_bytes.add(encoded.len() as u64);
        // Operator feedback only — stderr, audited wall clock, and nothing
        // here flows into any deterministic output.
        if let Some(w) = watch {
            eprintln!(
                "[{:7.1}s] shard {index}/{} complete: {records} records ({} of {} shards done)",
                w.elapsed_secs(),
                self.shards,
                manifest.complete_count(),
                self.shards,
            );
        }
        Ok(())
    }

    /// Executes up to `max_shards` pending shards serially (lowest index
    /// first), checkpointing after each — the kill/resume simulation hook.
    /// Returns the number of shards still pending afterwards.
    pub fn advance(&self, max_shards: usize) -> Result<usize, CheckpointError> {
        let mut manifest = self.load_or_init()?;
        let mut done = 0;
        for i in 0..manifest.states.len() {
            if done >= max_shards {
                break;
            }
            if manifest.states[i].is_complete() {
                continue;
            }
            let checkpoint = self.execute_shard(i as u32)?;
            manifest.states[i] = ShardState::Complete(checkpoint);
            manifest.store(&self.manifest_path())?;
            done += 1;
        }
        Ok(manifest.states.iter().filter(|s| !s.is_complete()).count())
    }

    /// Installs the metrics, aggregates and health cells from the shard
    /// sidecars, then assembles the final campaign JSONL by a k-way merge
    /// over the shards' key indexes, copying each record's line from its
    /// shard file without parsing it. Memory: two buffered readers per
    /// shard plus the O(pairs × days) cells.
    fn assemble(
        &self,
        manifest: &Manifest,
        mut run: ShardRunMetrics,
        mut journal: Journal,
    ) -> Result<ShardedOutcome, CheckpointError> {
        let complete = manifest
            .states
            .iter()
            .map(|s| match s {
                ShardState::Complete(c) => Ok(c),
                ShardState::Pending => Err(CheckpointError::ShardData(
                    "cannot assemble: shards still pending".to_string(),
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Install the sidecars first, so a bad one fails before any output
        // is written: aggregate cells (every pair exactly once, in
        // pair-index order), health cells, metrics cells and
        // retry-exhaustion events.
        let mut aggregates = CampaignAggregates::for_plans(&self.plans);
        let mut health = HealthSeries::for_plans(&self.plans);
        let mut daily_probes = vec![0u64; self.plans.len()];
        let mut metric_cells: Vec<CellSnapshot> = Vec::new();
        // Sim-class journal events, collected here and recorded in one
        // canonical order at the end (so the journal is independent of
        // shard execution interleaving).
        let mut events: Vec<JournalEvent> = Vec::new();
        let journal_on = journal.is_enabled();
        let mut installed = 0usize;
        for i in 0..self.shards {
            let path = self.shard_file(i, "state");
            let sidecar = ShardSidecar::load(&path)?;
            let range = self.shard_range(i);
            let foreign = |pair: u32| !range.contains(&(pair as usize));
            if sidecar.shard != i
                || sidecar.pairs.iter().any(|p| foreign(p.pair))
                || sidecar.health.iter().any(|h| foreign(h.pair))
            {
                return Err(CheckpointError::ShardData(format!(
                    "{} holds state for pairs outside shard {i}",
                    path.display()
                )));
            }
            for p in &sidecar.pairs {
                aggregates.install(p).map_err(CheckpointError::ShardData)?;
            }
            installed += sidecar.pairs.len();
            for h in sidecar.health {
                daily_probes[h.pair as usize] += h.cell.probes();
                health.install(h.pair, h.day, h.cell);
            }
            metric_cells.extend(sidecar.metrics.cells);
            if journal_on {
                events.extend(sidecar.exhausted.iter().map(|e| JournalEvent {
                    at: e.at,
                    level: EventLevel::Warn,
                    class: obs::EventClass::Sim,
                    code: codes::RETRY_EXHAUSTED,
                    data: EventData {
                        resolver: Some(e.resolver),
                        vantage: Some(e.vantage),
                        count: Some(e.attempts as u64),
                        ..EventData::default()
                    },
                }));
            }
        }
        if installed != self.plans.len() {
            return Err(CheckpointError::ShardData(format!(
                "sidecars hold {installed} pair cells, campaign has {}",
                self.plans.len()
            )));
        }
        // Every pair's day cells must account for exactly the probes its
        // aggregate cell saw.
        for (p, &daily) in aggregates.pairs().iter().zip(&daily_probes) {
            let total = p.cell.availability.total();
            if daily != total {
                return Err(CheckpointError::ShardData(format!(
                    "pair {} health cells hold {daily} probes, aggregate has {total}",
                    p.pair
                )));
            }
        }
        // The union of the shard registries: each cell belongs to one
        // shard, so a key seen twice is corrupt state.
        metric_cells.sort_by(|a, b| a.key.cmp(&b.key));
        if let Some(w) = metric_cells.windows(2).find(|w| w[0].key == w[1].key) {
            return Err(CheckpointError::ShardData(format!(
                "metrics cell ({}, {}, {}) appears in two shards",
                w[0].key.resolver, w[0].key.vantage, w[0].key.protocol
            )));
        }
        let metrics = MetricsSnapshot {
            cells: metric_cells,
        };
        let drift = detect_drift(&health.resolver_rows(), &DriftConfig::default());

        // Pair merge rank → owning shard, to check every key-index entry
        // names a pair of its own shard.
        let mut owner = vec![u32::MAX; self.plans.len()];
        for shard in 0..self.shards {
            for p in &self.plans[self.shard_range(shard)] {
                owner[p.order as usize] = shard;
            }
        }
        let domains = self.campaign.config().domains.len() as u32;

        let mut cursors = Vec::with_capacity(complete.len());
        for (i, c) in complete.iter().enumerate() {
            let mut cursor = MergeCursor::open(self, i as u32, c)?;
            cursor.advance(&owner, domains)?;
            cursors.push(cursor);
        }

        // Min-heap over shard heads. The record key (time, pair rank,
        // domain rank) is unique across shards — a pair lives in exactly
        // one shard — so the trailing shard index only stabilises ties
        // *within* a shard, preserving each file's own order.
        let mut heap: BinaryHeap<Reverse<(u64, u32, u32, u32)>> =
            BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter().enumerate() {
            if let Some(e) = &c.head {
                heap.push(Reverse((e.at, e.pair, e.domain, i as u32)));
            }
        }

        let jsonl_path = self.dir.join(CAMPAIGN_FILE);
        let tmp = jsonl_path.with_extension("jsonl.tmp");
        let out_file = File::create(&tmp)
            .map_err(|e| CheckpointError::Io(format!("create {}: {e}", tmp.display())))?;
        let mut out = std::io::BufWriter::new(out_file);
        let mut line = Vec::new();
        let mut records = 0u64;
        while let Some(Reverse((_, _, _, i))) = heap.pop() {
            let cursor = &mut cursors[i as usize];
            cursor.copy_head(&mut line)?;
            out.write_all(&line)
                .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
            records += 1;
            cursor.advance(&owner, domains)?;
            if let Some(e) = &cursor.head {
                heap.push(Reverse((e.at, e.pair, e.domain, i)));
            }
        }
        for cursor in &cursors {
            cursor.finish()?;
        }
        out.flush()
            .map_err(|e| CheckpointError::Io(format!("flush {}: {e}", tmp.display())))?;
        drop(out);
        std::fs::rename(&tmp, &jsonl_path)
            .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", jsonl_path.display())))?;
        run.records_merged.add(records);

        // Shard spans, recorded in shard-index order so the log is
        // independent of execution interleaving.
        let mut spans = SpanLog::with_capacity((self.shards as usize * 2).max(16));
        for (i, c) in cursors.iter().enumerate() {
            obs::sharding::record_shard_span(&mut spans, i as u32, c.first_at, c.last_at);
        }

        if journal_on {
            // Shard lifecycle + checkpoint traffic, from the first and
            // last key of each index and the manifest.
            for (c, ckpt) in cursors.iter().zip(&complete) {
                let shard = ckpt.shard;
                events.push(JournalEvent {
                    at: c.first_at,
                    level: EventLevel::Info,
                    class: obs::EventClass::Sim,
                    code: codes::SHARD_START,
                    data: EventData::shard(shard),
                });
                events.push(JournalEvent {
                    at: c.last_at,
                    level: EventLevel::Info,
                    class: obs::EventClass::Sim,
                    code: codes::SHARD_FINISH,
                    data: EventData::shard(shard).with_count(ckpt.records),
                });
                events.push(JournalEvent {
                    at: c.last_at,
                    level: EventLevel::Debug,
                    class: obs::EventClass::Sim,
                    code: codes::CHECKPOINT_STORE,
                    data: EventData::shard(shard).with_count(ckpt.data.bytes),
                });
            }
            // Fault-plan windows, straight from the configuration.
            for f in &self.campaign.config().faults.events {
                let from = f.from.as_nanos();
                let mut data = EventData::default()
                    .with_value((f.until.as_nanos().saturating_sub(from)) as f64 / 1e6);
                match &f.scope {
                    FaultScope::Resolver(host) => data.resolver = Some(Label::intern(host)),
                    FaultScope::Vantage(v) => data.vantage = Some(Label::intern(v)),
                    _ => {}
                }
                events.push(JournalEvent {
                    at: from,
                    level: EventLevel::Info,
                    class: obs::EventClass::Sim,
                    code: codes::FAULT_WINDOW,
                    data,
                });
            }
            // Drift findings, stamped at the end of the flagged day.
            for d in &drift {
                events.push(JournalEvent {
                    at: (d.day as u64 + 1) * NANOS_PER_DAY,
                    level: EventLevel::Warn,
                    class: obs::EventClass::Sim,
                    code: d.kind.code(),
                    data: EventData {
                        resolver: Some(d.resolver),
                        day: Some(d.day),
                        value: Some(d.value),
                        ..EventData::default()
                    },
                });
            }
            if spans.dropped() > 0 {
                events.push(JournalEvent {
                    at: cursors.iter().map(|c| c.last_at).max().unwrap_or(0),
                    level: EventLevel::Warn,
                    class: obs::EventClass::Sim,
                    code: codes::SPAN_OVERFLOW,
                    data: EventData::count(spans.dropped()),
                });
            }
            // One canonical order for the whole stream: time, then code,
            // then payload coordinates — a pure function of seed + config.
            let sort_key = |e: &JournalEvent| {
                (
                    e.at,
                    e.code,
                    e.data.shard.unwrap_or(u32::MAX),
                    e.data.resolver.map(|l| l.as_str()).unwrap_or(""),
                    e.data.vantage.map(|l| l.as_str()).unwrap_or(""),
                    e.data.day.unwrap_or(u32::MAX),
                    e.data.count.unwrap_or(0),
                )
            };
            events.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
            for e in events {
                journal.record(e.at, e.level, e.code, e.data);
            }
        }

        Ok(ShardedOutcome {
            jsonl_path,
            records,
            metrics,
            aggregates,
            run,
            spans,
            health,
            drift,
            journal,
        })
    }

    /// Convenience: runs any remaining shards serially and assembles.
    /// Equivalent to [`run`](Self::run) with one thread.
    pub fn finish(&self) -> Result<ShardedOutcome, CheckpointError> {
        self.run(1)
    }
}

/// One shard's read position during assembly: its key index and data
/// file, advanced in step. Each key-index entry is checked as it is read
/// (order, owning shard, domain rank, running byte total), and
/// [`finish`](Self::finish) checks the byte total against the manifest.
struct MergeCursor {
    shard: u32,
    keys_path: PathBuf,
    data_path: PathBuf,
    keys: BufReader<File>,
    data: BufReader<File>,
    /// Records and data bytes the manifest recorded for this shard.
    records: u64,
    data_bytes: u64,
    /// The entry whose line is next to copy.
    head: Option<KeyEntry>,
    /// Merge key of the last entry read, for the order check.
    last_key: Option<(u64, u32, u32)>,
    /// Entries read and line bytes claimed so far.
    entries: u64,
    claimed: u64,
    /// Simulated extent of the shard: first and last record times.
    first_at: u64,
    last_at: u64,
}

impl MergeCursor {
    fn open(
        runner: &ShardedRunner<'_>,
        shard: u32,
        c: &ShardCheckpoint,
    ) -> Result<MergeCursor, CheckpointError> {
        let open = |path: &Path| {
            File::open(path)
                .map(BufReader::new)
                .map_err(|e| CheckpointError::ShardData(format!("open {}: {e}", path.display())))
        };
        let keys_path = runner.shard_file(shard, "keys");
        let data_path = runner.shard_file(shard, "jsonl");
        Ok(MergeCursor {
            shard,
            keys: open(&keys_path)?,
            data: open(&data_path)?,
            keys_path,
            data_path,
            records: c.records,
            data_bytes: c.data.bytes,
            head: None,
            last_key: None,
            entries: 0,
            claimed: 0,
            first_at: 0,
            last_at: 0,
        })
    }

    fn corrupt(&self, what: String) -> CheckpointError {
        CheckpointError::ShardData(format!("{}: {what}", self.keys_path.display()))
    }

    /// Reads the next key-index entry into `head` (`None` once all the
    /// shard's records are read). `owner[rank]` is the shard owning the
    /// pair with merge rank `rank`.
    fn advance(&mut self, owner: &[u32], domains: u32) -> Result<(), CheckpointError> {
        if self.entries == self.records {
            self.head = None;
            return Ok(());
        }
        let mut buf = [0u8; KEY_ENTRY_BYTES];
        self.keys.read_exact(&mut buf).map_err(|e| {
            self.corrupt(format!(
                "entry {} of {} unreadable: {e}",
                self.entries, self.records
            ))
        })?;
        let e = KeyEntry::from_bytes(&buf);
        if owner.get(e.pair as usize) != Some(&self.shard) {
            return Err(self.corrupt(format!(
                "entry {} names pair rank {} outside shard {}",
                self.entries, e.pair, self.shard
            )));
        }
        if e.domain >= domains {
            return Err(self.corrupt(format!(
                "entry {} names domain rank {} of {domains}",
                self.entries, e.domain
            )));
        }
        if self.last_key.is_some_and(|k| e.merge_key() < k) {
            return Err(self.corrupt(format!("entry {} is out of order", self.entries)));
        }
        self.claimed += e.len as u64;
        if self.claimed > self.data_bytes {
            return Err(self.corrupt(format!(
                "line lengths exceed the {}-byte data file",
                self.data_bytes
            )));
        }
        if self.entries == 0 {
            self.first_at = e.at;
        }
        self.last_at = e.at;
        self.last_key = Some(e.merge_key());
        self.entries += 1;
        self.head = Some(e);
        Ok(())
    }

    /// Reads the head entry's line (newline included) into `line`.
    fn copy_head(&mut self, line: &mut Vec<u8>) -> Result<(), CheckpointError> {
        let len = self.head.take().map_or(0, |e| e.len as usize);
        line.resize(len, 0);
        self.data.read_exact(line).map_err(|e| {
            CheckpointError::ShardData(format!("read {}: {e}", self.data_path.display()))
        })?;
        if line.last() != Some(&b'\n') {
            return Err(self.corrupt(format!(
                "entry {} does not end on a line boundary of {}",
                self.entries - 1,
                self.data_path.display()
            )));
        }
        Ok(())
    }

    /// After the merge: the line lengths must sum to the data file's
    /// size. (The entry count is bounded by the manifest's record count,
    /// and resume checks the key index holds exactly that many entries.)
    fn finish(&self) -> Result<(), CheckpointError> {
        if self.claimed != self.data_bytes {
            return Err(self.corrupt(format!(
                "line lengths sum to {} bytes, the manifest says {}",
                self.claimed, self.data_bytes
            )));
        }
        Ok(())
    }
}
