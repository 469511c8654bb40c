//! Differential determinism for the sharded, resumable campaign engine:
//! for multiple seeds and shard counts, the one-shot `run()` output must
//! be **byte-identical** to a sharded run — and to a campaign killed and
//! resumed at *every* shard boundary. Compares the final JSONL bytes, the
//! metrics snapshot (cell for cell, histogram sums and gauges bit for
//! bit), and the bounded-memory aggregate cells. Under faults and `dig`
//! retries it also compares the health series, drift findings and
//! journal export, all of which assembly installs from the shard
//! sidecars rather than re-deriving from records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use measure::{
    detect_drift, metrics_of, Campaign, CampaignAggregates, CampaignConfig, DriftConfig,
    HealthSeries, ShardedRunner,
};
use obs::MetricsSnapshot;

const HOSTS: [&str; 4] = [
    "dns.google",
    "dns.quad9.net",
    "doh.ffmuc.net",
    "chewbacca.meganerd.nl",
];

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(config, entries)
}

/// A unique scratch directory per call (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("edns-shard-diff-{}-{tag}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

struct OneShot {
    jsonl: String,
    metrics: MetricsSnapshot,
    aggregates: CampaignAggregates,
    health: HealthSeries,
}

fn one_shot(c: &Campaign) -> OneShot {
    let result = c.run();
    OneShot {
        jsonl: result.to_json_lines(),
        metrics: metrics_of(&result.records),
        aggregates: CampaignAggregates::of(c, &result.records),
        health: HealthSeries::of(c, &result.records),
    }
}

/// `==` on the snapshot, plus the float fields compared by bit pattern
/// (`==` would accept `-0.0` for `0.0`).
fn assert_metrics_bit_identical(got: &MetricsSnapshot, want: &MetricsSnapshot, context: &str) {
    assert_eq!(got, want, "metrics snapshot diverged: {context}");
    for (g, w) in got.cells.iter().zip(&want.cells) {
        let (g, w) = (&g.metrics, &w.metrics);
        let sums = |m: &obs::CellMetrics| -> Vec<u64> {
            [&m.response_ms, &m.ping_ms]
                .into_iter()
                .chain(&m.phase_ms)
                .map(|h| h.sum().to_bits())
                .chain([m.last_response_ms.get().to_bits()])
                .collect()
        };
        assert_eq!(sums(g), sums(w), "metrics float bits diverged: {context}");
    }
}

fn assert_matches_one_shot(
    c: &Campaign,
    reference: &OneShot,
    outcome: &measure::ShardedOutcome,
    context: &str,
) {
    let sharded = std::fs::read_to_string(&outcome.jsonl_path).unwrap();
    assert_eq!(sharded, reference.jsonl, "JSONL bytes diverged: {context}");
    assert_metrics_bit_identical(&outcome.metrics, &reference.metrics, context);
    assert_eq!(
        &outcome.aggregates, &reference.aggregates,
        "aggregate cells diverged: {context}"
    );
    assert_eq!(
        outcome.records as usize,
        c.probe_count(),
        "record count diverged: {context}"
    );
}

#[test]
fn sharded_run_matches_one_shot_across_seeds_and_shard_counts() {
    for seed in [11u64, 97] {
        let c = campaign(CampaignConfig::quick(seed, 2));
        let reference = one_shot(&c);
        for shards in [1u32, 3, 7] {
            let dir = scratch_dir("fresh");
            let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
            let outcome = runner.run(3).unwrap();
            assert_matches_one_shot(
                &c,
                &reference,
                &outcome,
                &format!("seed {seed}, {shards} shards"),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn kill_and_resume_at_every_shard_boundary_is_byte_identical() {
    for seed in [11u64, 97] {
        let c = campaign(CampaignConfig::quick(seed, 2));
        let reference = one_shot(&c);
        let shards = 5u32;
        for stop_after in 0..=shards as usize {
            let dir = scratch_dir("resume");
            {
                // First process: killed after `stop_after` shards.
                let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
                let remaining = runner.advance(stop_after).unwrap();
                assert_eq!(remaining, shards as usize - stop_after);
            }
            // Second process: fresh runner over the same directory resumes
            // and finishes.
            let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
            let outcome = runner.run(2).unwrap();
            assert_eq!(
                outcome.run.shards_resumed.get(),
                stop_after as u64,
                "resume must adopt exactly the checkpointed shards"
            );
            assert_matches_one_shot(
                &c,
                &reference,
                &outcome,
                &format!("seed {seed}, killed after {stop_after}/{shards} shards"),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn differential_holds_under_faults_and_retries() {
    // The fault plan exercises failure records and per-attempt retry
    // accounting — the full JSON schema must survive the shard files'
    // parse-and-merge round trip.
    let c = campaign(CampaignConfig::quick(23, 2).with_default_faults());
    let reference = one_shot(&c);
    let dir = scratch_dir("faults");
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    runner.advance(2).unwrap();
    let outcome = ShardedRunner::new(&c, 4, &dir).unwrap().run(2).unwrap();
    assert_matches_one_shot(&c, &reference, &outcome, "faulted campaign, resume at 2/4");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recorder_state_survives_kill_and_resume_at_every_boundary_under_faults() {
    // Faults plus `dig` retries produce failures, retry exhaustions and
    // drift-prone days; the health series, drift findings and journal all
    // come from the shard sidecars. Two days give the drift detector a
    // series to work on.
    let c = campaign(CampaignConfig::longitudinal(23, 2).with_default_faults());
    let reference = one_shot(&c);
    let shards = 4u32;
    let dir = scratch_dir("recorder-oneshot");
    let uninterrupted = ShardedRunner::new(&c, shards, &dir)
        .unwrap()
        .run(2)
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let journal = uninterrupted.journal.to_jsonl();
    assert!(
        journal.contains("retry_exhausted"),
        "the faulted campaign must exhaust some retries"
    );
    let drift = detect_drift(&reference.health.resolver_rows(), &DriftConfig::default());
    for stop_after in 0..=shards as usize {
        let dir = scratch_dir("recorder-resume");
        ShardedRunner::new(&c, shards, &dir)
            .unwrap()
            .advance(stop_after)
            .unwrap();
        let outcome = ShardedRunner::new(&c, shards, &dir)
            .unwrap()
            .run(2)
            .unwrap();
        let context = format!("faulted, killed after {stop_after}/{shards} shards");
        assert_matches_one_shot(&c, &reference, &outcome, &context);
        assert_eq!(
            outcome.health.to_jsonl(),
            reference.health.to_jsonl(),
            "health series diverged: {context}"
        );
        assert_eq!(outcome.drift, drift, "drift findings diverged: {context}");
        assert_eq!(
            outcome.journal.to_jsonl(),
            journal,
            "journal export diverged: {context}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn longitudinal_config_runs_sharded_with_bounded_cells() {
    // Two simulated days over the small population: the aggregate side
    // stays O(pairs) regardless of days.
    let c = campaign(CampaignConfig::longitudinal(5, 2));
    let reference = one_shot(&c);
    let dir = scratch_dir("longitudinal");
    let runner = ShardedRunner::new(&c, 6, &dir).unwrap();
    let outcome = runner.run(3).unwrap();
    assert_matches_one_shot(&c, &reference, &outcome, "longitudinal 2-day campaign");
    // 7 vantages x 4 resolvers.
    assert_eq!(outcome.aggregates.pairs().len(), 28);
    assert_eq!(outcome.aggregates.probes(), c.probe_count() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_spans_cover_the_campaign_in_index_order() {
    let c = campaign(CampaignConfig::quick(11, 2));
    let dir = scratch_dir("spans");
    let runner = ShardedRunner::new(&c, 3, &dir).unwrap();
    let outcome = runner.run(2).unwrap();
    let spans = outcome.spans.spans();
    assert_eq!(spans.len(), 3);
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.name, format!("shard-{i}"));
        assert!(s.end >= s.start);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
