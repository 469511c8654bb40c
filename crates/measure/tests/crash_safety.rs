//! Crash-safety: a sharded campaign must *detect* — never silently absorb
//! — truncated manifests, flipped bytes, stale format versions, shard
//! data files, key indexes and sidecars that no longer match their
//! recorded checksums, key indexes that disagree with their data file,
//! and checkpoints from a different campaign configuration. Every
//! rejection is a typed [`CheckpointError`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use measure::checkpoint::{FileDigest, KeyEntry, KEY_ENTRY_BYTES};
use measure::{Campaign, CampaignConfig, CheckpointError, Manifest, ShardState, ShardedRunner};

const HOSTS: [&str; 3] = ["dns.google", "dns.quad9.net", "doh.ffmuc.net"];

fn campaign(config: CampaignConfig) -> Campaign {
    let entries = HOSTS
        .iter()
        .filter_map(|h| catalog::resolvers::find(h))
        .collect();
    Campaign::with_resolvers(config, entries)
}

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "edns-crash-safety-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// Runs two of four shards and returns the checkpoint directory.
fn partial_run(c: &Campaign, tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let runner = ShardedRunner::new(c, 4, &dir).unwrap();
    let remaining = runner.advance(2).unwrap();
    assert_eq!(remaining, 2);
    dir
}

#[test]
fn truncated_manifest_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, "truncated");
    let path = dir.join("manifest.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();

    // Header only: unambiguously truncated.
    std::fs::write(&path, text.lines().next().unwrap()).unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(runner.run(1).unwrap_err(), CheckpointError::Truncated);

    // Torn mid-body: the checksum no longer matches.
    std::fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert!(matches!(
        runner.run(1).unwrap_err(),
        CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_manifest_body_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, "corrupt");
    let path = dir.join("manifest.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();
    // Flip one byte inside the JSON body (after the header line).
    let mut bytes = text.into_bytes();
    let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 10;
    bytes[body_start] = bytes[body_start].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert!(matches!(
        runner.run(1).unwrap_err(),
        CheckpointError::ChecksumMismatch { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_format_version_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, "version");
    let path = dir.join("manifest.ckpt");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        text.replacen("edns-checkpoint v3", "edns-checkpoint v0", 1),
    )
    .unwrap();

    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(
        runner.run(1).unwrap_err(),
        CheckpointError::VersionMismatch {
            found: "v0".to_string()
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v2_manifest_is_rejected_as_version_mismatch() {
    // The frozen v2 fixture kept every cell inline; v3 cannot validate
    // that layout, so it must refuse it rather than resume from it.
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = scratch_dir("v2");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("manifest.ckpt"),
        include_str!("golden/shard_manifest_seed4.ckpt"),
    )
    .unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(
        runner.run(1).unwrap_err(),
        CheckpointError::VersionMismatch {
            found: "v2".to_string()
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_file_is_rejected_as_bad_magic() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = scratch_dir("magic");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("manifest.ckpt"), "{\"not\": \"a checkpoint\"}\n").unwrap();
    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert_eq!(runner.run(1).unwrap_err(), CheckpointError::BadMagic);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_shard_data_file_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, "sharddata");
    // Corrupt the first completed shard's data file without touching the
    // manifest: resume must notice via the recorded checksum.
    let shard = dir.join("shard-0000.jsonl");
    let mut data = std::fs::read(&shard).unwrap();
    let mid = data.len() / 2;
    data[mid] = data[mid].wrapping_add(1);
    std::fs::write(&shard, &data).unwrap();

    let runner = ShardedRunner::new(&c, 4, &dir).unwrap();
    assert!(matches!(
        runner.run(1).unwrap_err(),
        CheckpointError::ShardData(_)
    ));

    // Truncating the data file changes its size: also detected.
    std::fs::write(&shard, &data[..mid]).unwrap();
    assert!(matches!(
        ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ShardData(_)
    ));

    // Deleting it entirely: detected too.
    std::fs::remove_file(&shard).unwrap();
    assert!(matches!(
        ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ShardData(_)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_sidecar_or_key_index_is_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    for ext in ["state", "keys"] {
        let dir = partial_run(&c, ext);
        let path = dir.join(format!("shard-0001.{ext}"));
        let original = std::fs::read(&path).unwrap();
        let mut flipped = original.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        // A flipped byte, a truncation and a deletion all fail the
        // manifest's recorded size and checksum on resume.
        for damaged in [Some(flipped), Some(original[..mid].to_vec()), None] {
            match damaged {
                Some(bytes) => std::fs::write(&path, bytes).unwrap(),
                None => std::fs::remove_file(&path).unwrap(),
            }
            assert!(
                matches!(
                    ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err(),
                    CheckpointError::ShardData(_)
                ),
                "damaged {ext}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A flipped sidecar byte whose manifest digest was rewritten to match
    // still fails the sidecar's own header checksum.
    let dir = partial_run(&c, "state-header");
    let path = dir.join("shard-0000.state");
    let mut bytes = std::fs::read(&path).unwrap();
    let body = bytes.iter().position(|&b| b == b'\n').unwrap() + 5;
    bytes[body] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    redigest(&dir, 0);
    assert!(matches!(
        ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ChecksumMismatch { .. }
    ));
    // Sidecars are checked before assembly writes any output.
    assert!(!dir.join("campaign.jsonl").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn read_keys(path: &Path) -> Vec<KeyEntry> {
    std::fs::read(path)
        .unwrap()
        .chunks_exact(KEY_ENTRY_BYTES)
        .map(|b| KeyEntry::from_bytes(b.try_into().unwrap()))
        .collect()
}

/// Re-records shard `shard`'s three file digests in the manifest, so a
/// deliberately inconsistent file reaches the structural checks instead
/// of failing its checksum.
fn redigest(dir: &Path, shard: usize) {
    let path = dir.join("manifest.ckpt");
    let mut manifest = Manifest::load(&path).unwrap();
    let ShardState::Complete(c) = &mut manifest.states[shard] else {
        panic!("shard {shard} is pending")
    };
    let digest = |ext: &str| {
        FileDigest::of(&std::fs::read(dir.join(format!("shard-{shard:04}.{ext}"))).unwrap())
    };
    c.data = digest("jsonl");
    c.keys = digest("keys");
    c.sidecar = digest("state");
    manifest.store(&path).unwrap();
}

/// Runs two of four shards, lets `damage` rewrite shard 0's key index
/// (given shard 1's entries for reference) and its data file, re-records
/// the digests, and returns the resumed run's error.
fn damaged_key_index(
    tag: &str,
    damage: impl FnOnce(&mut Vec<KeyEntry>, &[KeyEntry], &mut Vec<u8>),
) -> CheckpointError {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, tag);
    let keys_path = dir.join("shard-0000.keys");
    let data_path = dir.join("shard-0000.jsonl");
    let mut keys = read_keys(&keys_path);
    let mut data = std::fs::read(&data_path).unwrap();
    damage(
        &mut keys,
        &read_keys(&dir.join("shard-0001.keys")),
        &mut data,
    );
    let bytes: Vec<u8> = keys.iter().flat_map(|e| e.to_bytes()).collect();
    std::fs::write(&keys_path, bytes).unwrap();
    std::fs::write(&data_path, data).unwrap();
    redigest(&dir, 0);
    let err = ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap_err();
    std::fs::remove_dir_all(&dir).unwrap();
    err
}

fn assert_shard_data(err: CheckpointError, needle: &str) {
    match &err {
        CheckpointError::ShardData(msg) if msg.contains(needle) => {}
        other => panic!("expected ShardData containing {needle:?}, got {other:?}"),
    }
}

#[test]
fn inconsistent_key_index_is_rejected() {
    // Out of order: swap the merge keys of the first two entries but keep
    // their line lengths, so only the order check can catch it.
    assert_shard_data(
        damaged_key_index("order", |keys, _, _| {
            let (a, b) = (keys[0], keys[1]);
            assert!(a.merge_key() < b.merge_key());
            keys[0] = KeyEntry { len: a.len, ..b };
            keys[1] = KeyEntry { len: b.len, ..a };
        }),
        "out of order",
    );
    // A pair rank owned by another shard, and one beyond the campaign.
    assert_shard_data(
        damaged_key_index("foreign-rank", |keys, other, _| {
            keys[0].pair = other[0].pair;
        }),
        "outside shard 0",
    );
    assert_shard_data(
        damaged_key_index("huge-rank", |keys, _, _| keys[3].pair = u32::MAX),
        "outside shard 0",
    );
    // Line lengths that overrun the data file.
    assert_shard_data(
        damaged_key_index("overrun", |keys, _, _| {
            keys.last_mut().unwrap().len += 1;
        }),
        "exceed",
    );
    // Line lengths that split a line.
    assert_shard_data(
        damaged_key_index("split", |keys, _, _| {
            keys[0].len -= 1;
            keys[1].len += 1;
        }),
        "line boundary",
    );
    // Line lengths that sum short of the data file.
    assert_shard_data(
        damaged_key_index("short", |_, _, data| {
            data.extend_from_slice(b"{\"extra\":true}\n");
        }),
        "sum to",
    );
    // An entry count that disagrees with the manifest's record count.
    assert_shard_data(
        damaged_key_index("count", |keys, _, _| {
            keys.pop();
        }),
        "cannot hold",
    );
}

#[test]
fn checkpoints_from_a_different_campaign_are_rejected() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, "config");

    // Different seed → different fingerprint.
    let other_seed = campaign(CampaignConfig::quick(4, 2));
    assert!(matches!(
        ShardedRunner::new(&other_seed, 4, &dir)
            .unwrap()
            .run(1)
            .unwrap_err(),
        CheckpointError::ConfigMismatch(_)
    ));

    // Different shard count → different fingerprint.
    assert!(matches!(
        ShardedRunner::new(&c, 8, &dir).unwrap().run(1).unwrap_err(),
        CheckpointError::ConfigMismatch(_)
    ));

    // Different population → different fingerprint.
    let other_pop = Campaign::with_resolvers(
        CampaignConfig::quick(3, 2),
        vec![catalog::resolvers::find("dns.google").unwrap()],
    );
    assert!(matches!(
        ShardedRunner::new(&other_pop, 4, &dir)
            .unwrap()
            .run(1)
            .unwrap_err(),
        CheckpointError::ConfigMismatch(_)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_shards_and_duplicate_pairs_are_rejected_up_front() {
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = scratch_dir("invalid");
    assert!(matches!(
        ShardedRunner::new(&c, 0, &dir).unwrap_err(),
        CheckpointError::ShardData(_)
    ));

    let dup = Campaign::with_resolvers(
        CampaignConfig::quick(3, 2),
        vec![
            catalog::resolvers::find("dns.google").unwrap(),
            catalog::resolvers::find("dns.google").unwrap(),
        ],
    );
    assert!(matches!(
        ShardedRunner::new(&dup, 2, &dir).unwrap_err(),
        CheckpointError::ShardData(_)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_leftover_tmp_file_never_shadows_real_state() {
    // Simulate a crash between writing the tmp file and the rename: the
    // runner must ignore the orphan and produce correct output.
    let c = campaign(CampaignConfig::quick(3, 2));
    let dir = partial_run(&c, "tmp");
    for name in [
        "shard-0002.jsonl.tmp",
        "shard-0002.keys.tmp",
        "shard-0002.state.tmp",
        "manifest.ckpt.tmp",
        "manifest.tmp",
    ] {
        std::fs::write(dir.join(name), "garbage half-write").unwrap();
    }

    let outcome = ShardedRunner::new(&c, 4, &dir).unwrap().run(1).unwrap();
    let reference = c.run();
    assert_eq!(
        std::fs::read_to_string(&outcome.jsonl_path).unwrap(),
        reference.to_json_lines()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
