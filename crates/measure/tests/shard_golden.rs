//! Golden regression for the shard scheduler and checkpoint format.
//!
//! `golden/shard_manifest_v3_seed4.ckpt` pins the v3 manifest bytes —
//! header, body checksum, per-shard record counts and the size and
//! checksum of every shard's data file, key index and sidecar — for the
//! seed-4 quick campaign split into five shards. The sidecar checksums
//! pin every serialized aggregate, health and metrics cell. Any drift in
//! shard assignment, checkpoint encoding, or the folds shows up as a byte
//! diff here.
//!
//! `golden/shard_manifest_seed4.ckpt` is the same run under the v2 format,
//! which kept the cells inline. It is never regenerated: the test checks
//! that every shard's data file and every aggregate and health cell the
//! v3 engine writes still equals what v2 recorded.
//!
//! Regenerate the v3 fixture after an intentional format change with:
//! `cargo run --release -p bench --bin shard_golden_regen`.

use std::path::PathBuf;

use measure::checkpoint::{
    pair_aggregate_to_json, pair_day_health_to_json, ShardSidecar, ShardState,
};
use measure::json::{self, Json};
use measure::{Campaign, CampaignConfig, Manifest, ShardedRunner};

fn golden_campaign() -> Campaign {
    let entries = [
        "dns.google",
        "dns.quad9.net",
        "doh.ffmuc.net",
        "chewbacca.meganerd.nl",
    ]
    .into_iter()
    .filter_map(catalog::resolvers::find)
    .collect();
    Campaign::with_resolvers(CampaignConfig::quick(4, 3), entries)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("edns-shard-golden-{}-{tag}", std::process::id()))
}

#[test]
fn shard_manifest_matches_golden_bytes() {
    let expected = include_str!("golden/shard_manifest_v3_seed4.ckpt");
    let c = golden_campaign();
    let dir = scratch_dir("manifest");
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = ShardedRunner::new(&c, 5, &dir).unwrap().run(2).unwrap();
    let manifest = std::fs::read_to_string(dir.join("manifest.ckpt")).unwrap();

    for (i, (got, want)) in manifest.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "manifest line {} drifted", i + 1);
    }
    assert_eq!(manifest, expected, "manifest bytes drifted from fixture");
    same_state_as_v2_fixture(&dir, &Manifest::decode(&manifest).unwrap());

    // The assembled campaign stream must still match the one-shot golden
    // JSONL fixture: sharding is invisible in the output.
    let jsonl = std::fs::read_to_string(&outcome.jsonl_path).unwrap();
    assert_eq!(
        jsonl,
        include_str!("golden/campaign_seed4.jsonl"),
        "assembled JSONL drifted from the one-shot golden fixture"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checks each shard's data file digest and sidecar cells against the
/// entries of the v2 fixture, which recorded both inline.
fn same_state_as_v2_fixture(dir: &std::path::Path, manifest: &Manifest) {
    let v2 = include_str!("golden/shard_manifest_seed4.ckpt");
    let (header, body) = v2.split_once('\n').unwrap();
    assert!(header.starts_with("edns-checkpoint v2 "));
    let v2 = json::parse(body.trim_end()).unwrap();
    let entries = v2.get("entries").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), manifest.states.len());
    for (i, (entry, state)) in entries.iter().zip(&manifest.states).enumerate() {
        let ShardState::Complete(c) = state else {
            panic!("shard {i} pending")
        };
        let int = |key: &str| entry.get(key).and_then(Json::as_i64).unwrap() as u64;
        assert_eq!(c.records, int("records"), "shard {i} record count");
        assert_eq!(c.data.bytes, int("bytes"), "shard {i} data bytes");
        let checksum = entry.get("checksum").and_then(Json::as_str).unwrap();
        assert_eq!(
            format!("{:016x}", c.data.checksum),
            checksum,
            "shard {i} data checksum"
        );
        let sidecar = ShardSidecar::load(&dir.join(format!("shard-{i:04}.state"))).unwrap();
        let cells: Vec<Json> = sidecar.pairs.iter().map(pair_aggregate_to_json).collect();
        assert_eq!(
            Some(cells.as_slice()),
            entry.get("cells").and_then(Json::as_array),
            "shard {i} aggregate cells"
        );
        let health: Vec<Json> = sidecar.health.iter().map(pair_day_health_to_json).collect();
        assert_eq!(
            Some(health.as_slice()),
            entry.get("health").and_then(Json::as_array),
            "shard {i} health cells"
        );
    }
}

#[test]
fn shard_metrics_match_golden_render() {
    let c = golden_campaign();
    let dir = scratch_dir("metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = ShardedRunner::new(&c, 5, &dir).unwrap().run(2).unwrap();
    assert_eq!(
        outcome.metrics.render(),
        include_str!("golden/campaign_seed4.metrics.txt"),
        "sharded metrics snapshot drifted from the one-shot golden fixture"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
