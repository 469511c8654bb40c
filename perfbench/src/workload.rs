//! The three workloads, each driven through the public `measure` API.
//!
//! * `inmem_pipeline` — one full-catalog quick campaign, cold DoH, no
//!   faults, one thread, all in memory: generate → assemble → JSONL →
//!   metrics → health fold + drift. Touches no file: the bypass case for
//!   every checkpoint or assembly change.
//! * `sharded_longitudinal` — a longitudinal campaign through
//!   `ShardedRunner` into a fresh directory, killed after a few shards and
//!   resumed with two workers. Sized (days × shards) so that manifest
//!   commits, resume validation and assembly outweigh generation.
//! * `scenario_mix` — four full-catalog in-memory campaigns, one per
//!   protocol, with the calibrated fault plan and `dig` retries; DoH and
//!   DoQ under an interleaved session model, DoT and Do53 under the
//!   standard load model (a campaign may carry only one of the two).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use measure::checkpoint::fnv64;
use measure::{
    detect_drift, metrics_of, Campaign, CampaignConfig, CheckpointError, ConnectionMode,
    DriftConfig, HealthSeries, LoadModel, Manifest, ProbeRecord, Protocol, SessionConfig,
    ShardState, ShardedRunner,
};

use crate::check::{file_digest, jsonl_digest, Fingerprint};
use crate::trace::Tracer;

/// Rounds per vantage of the in-memory pipeline campaign.
pub const INMEM_ROUNDS: u32 = 40;
/// Rounds per vantage of each scenario-mix arm.
pub const MIX_ROUNDS: u32 = 40;
/// Simulated days of the sharded campaign.
pub const SHARD_DAYS: u32 = 20;
/// Shard count: with the manifest rewritten whole on every commit, the
/// commit cost grows with shards × days.
pub const SHARDS: u32 = 32;
/// Shards completed before the simulated kill.
pub const KILL_AFTER: usize = 4;
/// Workers of the resumed run.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Inmem,
    Sharded,
    Mix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Inmem, Kind::Sharded, Kind::Mix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Inmem => "inmem_pipeline",
            Kind::Sharded => "sharded_longitudinal",
            Kind::Mix => "scenario_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Protocols whose queries the workload's probes build.
    pub fn protocols(self) -> &'static [Protocol] {
        match self {
            Kind::Inmem | Kind::Sharded => &[Protocol::DoH],
            Kind::Mix => &[Protocol::DoH, Protocol::DoT, Protocol::DoQ, Protocol::Do53],
        }
    }
}

/// One campaign of a workload. Single-campaign workloads have one arm
/// named `all`.
#[derive(Debug)]
pub struct Arm {
    pub name: &'static str,
    pub campaign: Campaign,
}

/// Builds the workload's campaigns: the configuration and `Campaign::new`
/// part of set-up.
pub fn prepare(kind: Kind, seed: u64) -> Vec<Arm> {
    let all = |config| {
        vec![Arm {
            name: "all",
            campaign: Campaign::new(config),
        }]
    };
    match kind {
        Kind::Inmem => all(CampaignConfig::quick(seed, INMEM_ROUNDS)),
        Kind::Sharded => all(CampaignConfig::longitudinal(seed, SHARD_DAYS)),
        Kind::Mix => {
            let arm = |name, protocol, session: bool| {
                let mut config = CampaignConfig::quick(seed, MIX_ROUNDS).with_default_faults();
                config.probe.protocol = protocol;
                let config = if session {
                    config.with_session(SessionConfig::interleaved(0.5))
                } else {
                    config.with_load(LoadModel::standard(seed))
                };
                Arm {
                    name,
                    campaign: Campaign::new(config),
                }
            };
            vec![
                arm("doh_session", Protocol::DoH, true),
                arm("dot_load", Protocol::DoT, false),
                arm("doq_session", Protocol::DoQ, true),
                arm("do53_load", Protocol::Do53, false),
            ]
        }
    }
}

/// One measured run of a workload.
#[derive(Debug, Default)]
pub struct Iteration {
    /// The tracer's run id of this repetition.
    pub run: u32,
    /// When the measured phase began.
    pub t0: Option<Instant>,
    /// Wall seconds of the measured phase (checks excluded).
    pub secs: f64,
    pub probes: u64,
    /// Operations attempted: campaign runs and shard commits.
    pub ops: u64,
    /// Errors met or checks failed; any entry fails the whole run.
    pub errors: Vec<String>,
    /// Output fingerprint per arm.
    pub outputs: Vec<(&'static str, Fingerprint)>,
    /// Layer counts, named like the per-layer metrics they feed.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Iteration {
    pub fn probes_per_s(&self) -> f64 {
        self.probes as f64 / self.secs
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Retry and connection-mode tallies over one arm's records.
    fn tally(&mut self, records: &[ProbeRecord]) {
        for r in records {
            let attempts = r.retry.as_ref().map_or(1, |x| x.attempts);
            self.count("retry.attempts", f64::from(attempts));
            if r.outcome.is_success() {
                self.count("retry.successes", 1.0);
            }
            match r.conn_mode {
                Some(ConnectionMode::Reused) => self.count("session.reused", 1.0),
                Some(ConnectionMode::Resumed) => self.count("session.resumed", 1.0),
                Some(ConnectionMode::Cold) | None => {}
            }
        }
    }
}

/// Runs one iteration of `kind`. `dir` is the checkpoint directory of the
/// sharded workload; it must not exist yet.
pub fn iterate(kind: Kind, arms: &[Arm], dir: &Path, tr: &mut Tracer) -> Iteration {
    match kind {
        Kind::Inmem => inmem(&arms[0].campaign, tr),
        Kind::Mix => mix(arms, tr),
        Kind::Sharded => {
            let mut it = Iteration {
                ops: u64::from(SHARDS) + 1,
                ..Iteration::default()
            };
            let result = if tr.is_on() {
                sharded_traced(&arms[0].campaign, dir, tr, &mut it)
            } else {
                sharded(&arms[0].campaign, dir, &mut it)
            };
            if let Err(e) = result {
                it.errors.push(format!("checkpoint error: {e}"));
            }
            it
        }
    }
}

fn inmem(c: &Campaign, tr: &mut Tracer) -> Iteration {
    let mut it = Iteration {
        ops: 1,
        ..Iteration::default()
    };
    let root = tr.open("run.inmem_pipeline");
    let t0 = Instant::now();
    let s = tr.open("campaign.generate");
    let generated = c.generate(1);
    tr.close(s);
    let s = tr.open("campaign.assemble");
    let result = c.assemble(generated);
    tr.close(s);
    let s = tr.open("results.jsonl");
    let jsonl = result.to_json_lines();
    tr.close(s);
    let s = tr.open("campaign.metrics");
    let metrics = metrics_of(&result.records);
    tr.close(s);
    let s = tr.open("health.fold");
    let health = HealthSeries::of(c, &result.records);
    tr.close(s);
    let s = tr.open("health.drift");
    let drift = detect_drift(&health.resolver_rows(), &DriftConfig::default());
    tr.close(s);
    it.secs = t0.elapsed().as_secs_f64();
    tr.close(root);
    it.t0 = Some(t0);

    black_box(&metrics);
    it.probes = result.records.len() as u64;
    if result.records.len() != c.probe_count() {
        it.errors.push(format!(
            "{} records, probe_count() is {}",
            result.records.len(),
            c.probe_count()
        ));
    }
    let fp = Fingerprint::of_records(c, &result.records, fnv64(jsonl.as_bytes()));
    it.outputs.push(("all", fp));
    it.count("results.jsonl_bytes", jsonl.len() as f64);
    it.count("health.drift_findings", drift.len() as f64);
    it.tally(&result.records);
    it
}

fn mix(arms: &[Arm], tr: &mut Tracer) -> Iteration {
    let mut it = Iteration::default();
    for (i, arm) in arms.iter().enumerate() {
        let c = &arm.campaign;
        let root = tr.open_at("run.scenario_arm", i as u32);
        let t = Instant::now();
        let s = tr.open_at("campaign.generate", i as u32);
        let generated = c.generate(1);
        tr.close(s);
        let s = tr.open_at("campaign.assemble", i as u32);
        let result = c.assemble(generated);
        tr.close(s);
        let s = tr.open_at("campaign.metrics", i as u32);
        let metrics = metrics_of(&result.records);
        tr.close(s);
        it.secs += t.elapsed().as_secs_f64();
        tr.close(root);
        it.t0.get_or_insert(t);

        // The arm's check, outside the measured phase.
        black_box(&metrics);
        it.ops += 1;
        it.probes += result.records.len() as u64;
        if result.records.len() != c.probe_count() {
            it.errors.push(format!(
                "{}: {} records, probe_count() is {}",
                arm.name,
                result.records.len(),
                c.probe_count()
            ));
        }
        let digest = jsonl_digest(&result.records);
        it.outputs.push((
            arm.name,
            Fingerprint::of_records(c, &result.records, digest),
        ));
        it.tally(&result.records);
        if c.config().session.is_some() {
            it.count("session.probes", result.records.len() as f64);
        }
    }
    it
}

/// The measured sharded run: kill after `KILL_AFTER` shards, resume with
/// `run(WORKERS)`. The phase runs from the first shard executed until the
/// assembled `campaign.jsonl` is renamed into place.
fn sharded(c: &Campaign, dir: &Path, it: &mut Iteration) -> Result<(), CheckpointError> {
    let first = ShardedRunner::new(c, SHARDS, dir)?;
    let t0 = Instant::now();
    it.t0 = Some(t0);
    let pending = first.advance(KILL_AFTER)?;
    drop(first);
    let runner = ShardedRunner::new(c, SHARDS, dir)?;
    let outcome = runner.run(WORKERS)?;
    it.secs = t0.elapsed().as_secs_f64();

    if pending != SHARDS as usize - KILL_AFTER {
        it.errors
            .push(format!("{pending} shards pending after the kill"));
    }
    if outcome.run.shards_resumed.get() != KILL_AFTER as u64 {
        it.errors.push(format!(
            "resume adopted {} shards, {KILL_AFTER} were checkpointed",
            outcome.run.shards_resumed.get()
        ));
    }
    it.count(
        "checkpoint.manifest_writes",
        outcome.run.manifest_writes.get() as f64,
    );
    it.count(
        "checkpoint.manifest_bytes_written",
        outcome.run.checkpoint_bytes.get() as f64,
    );
    finish_check(c, &runner, &outcome, it)
}

/// The traced sharded run. `execute_shard` and `commit_shard` are private,
/// so `run(WORKERS)` is replaced by serial `advance(1)` steps and
/// `finish()`; every step also reloads and re-validates the manifest.
fn sharded_traced(
    c: &Campaign,
    dir: &Path,
    tr: &mut Tracer,
    it: &mut Iteration,
) -> Result<(), CheckpointError> {
    let first = ShardedRunner::new(c, SHARDS, dir)?;
    let root = tr.open("run.sharded_longitudinal");
    let t0 = Instant::now();
    it.t0 = Some(t0);
    for k in 0..KILL_AFTER {
        let s = tr.open_at("shard.advance", k as u32);
        first.advance(1)?;
        tr.close(s);
    }
    drop(first);
    let s = tr.open("shard.open");
    let runner = ShardedRunner::new(c, SHARDS, dir)?;
    tr.close(s);
    let s = tr.open("shard.resume_validate");
    drop(runner.load_or_init()?);
    tr.close(s);
    for k in KILL_AFTER..SHARDS as usize {
        let s = tr.open_at("shard.advance", k as u32);
        runner.advance(1)?;
        tr.close(s);
    }
    let s = tr.open("shard.finish");
    let outcome = runner.finish()?;
    tr.close(s);
    it.secs = t0.elapsed().as_secs_f64();
    tr.close(root);
    finish_check(c, &runner, &outcome, it)?;
    replay_checkpoints(&runner, it)
}

/// Checks the assembled file against the plan and fingerprints it.
fn finish_check(
    c: &Campaign,
    runner: &ShardedRunner<'_>,
    outcome: &measure::ShardedOutcome,
    it: &mut Iteration,
) -> Result<(), CheckpointError> {
    it.probes = outcome.records;
    if outcome.records != c.probe_count() as u64 {
        it.errors.push(format!(
            "{} records assembled, probe_count() is {}",
            outcome.records,
            c.probe_count()
        ));
    }
    let (digest, bytes) = file_digest(&outcome.jsonl_path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", outcome.jsonl_path.display())))?;
    let fp = Fingerprint::new(outcome.records, digest, &outcome.aggregates.overall());
    it.outputs.push(("all", fp));
    it.count("results.jsonl_bytes", bytes as f64);
    it.count("health.drift_findings", outcome.drift.len() as f64);
    it.count(
        "shard.records_merged",
        outcome.run.records_merged.get() as f64,
    );
    let final_bytes = std::fs::metadata(runner.manifest_path())
        .map(|m| m.len())
        .unwrap_or(0);
    it.count("checkpoint.manifest_final_bytes", final_bytes as f64);
    Ok(())
}

/// `manifest` as it stood before shard `done` completed: the serial steps
/// complete shards in index order.
fn manifest_before(manifest: &Manifest, done: usize) -> Manifest {
    let mut m = manifest.clone();
    for s in m.states.iter_mut().skip(done) {
        *s = ShardState::Pending;
    }
    m
}

/// Times, outside the traced steps, the checkpoint work each `advance(1)`
/// step did inside: `load_or_init` on the manifest the step started from
/// and `Manifest::store` of the one it committed. Also times one
/// `Manifest::load`, `encode` and `store` each on the final manifest.
/// Leaves the directory as the run left it.
fn replay_checkpoints(
    runner: &ShardedRunner<'_>,
    it: &mut Iteration,
) -> Result<(), CheckpointError> {
    let path = runner.manifest_path();
    let scratch: PathBuf = runner.dir().join("replay.ckpt");
    let finished = Manifest::load(&path)?;
    let mut replay = 0.0;
    for step in 0..SHARDS as usize {
        if step == 0 {
            std::fs::remove_file(&path)
                .map_err(|e| CheckpointError::Io(format!("remove {}: {e}", path.display())))?;
        } else {
            manifest_before(&finished, step).store(&path)?;
        }
        let t = Instant::now();
        drop(runner.load_or_init()?);
        replay += t.elapsed().as_secs_f64();
        let after = manifest_before(&finished, step + 1);
        let t = Instant::now();
        after.store(&scratch)?;
        replay += t.elapsed().as_secs_f64();
    }
    finished.store(&path)?;
    it.count("checkpoint.step_replay_s", replay);

    let t = Instant::now();
    let loaded = Manifest::load(&path)?;
    it.count("checkpoint.load_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let encoded = loaded.encode();
    it.count("checkpoint.encode_s", t.elapsed().as_secs_f64());
    black_box(encoded.len());
    let t = Instant::now();
    loaded.store(&scratch)?;
    it.count("checkpoint.store_s", t.elapsed().as_secs_f64());
    std::fs::remove_file(&scratch)
        .map_err(|e| CheckpointError::Io(format!("remove {}: {e}", scratch.display())))?;
    Ok(())
}
