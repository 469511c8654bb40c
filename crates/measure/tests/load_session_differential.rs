//! Live load × live session: the two scenario layers compose through the
//! one probe driver, and this suite pins the composition.
//!
//! The load model runs at `multiplier 10 000`, the only tested multiplier
//! that moves any catalog pick off the unloaded site. Model seed 12 puts
//! `dns.google`'s spill threshold inside the simulated day, so the serving
//! site of six of the seven vantages changes twice: at 40 500 s it moves
//! to site 0, at 46 080 s it moves back. Rounds are 216 s apart, inside the 240 s idle
//! timeout of a production connection pool, so the round after a site
//! change finds a live pooled connection to the *old* site. A pooled
//! connection is bound to its site, so that round must not be `Reused`:
//! the pool entry is dropped and the operator-scoped ticket resumes.
//!
//! Pinned here: fast path ≡ per-probe reference ≡ 3-thread run for every
//! session-capable protocol under faults and `dig` retries, kill + resume
//! at every shard boundary byte-identical to the one-shot run, and at
//! least one spilled attempt denied `Reused`.

use std::collections::BTreeMap;

use measure::{
    Campaign, CampaignConfig, ConnectionMode, LoadModel, ProbeOutcome, ProbeRecord, Protocol,
    SessionConfig, ShardedRunner, Span,
};
use netsim::{SimDuration, SimTime};

const SEED: u64 = 12;

/// The anycast resolver whose spill crosses inside the day, plus a
/// single-site hobbyist host (no spill possible, pool idle timeout 10 s).
const HOSTS: [&str; 2] = ["dns.google", "chewbacca.meganerd.nl"];

fn campaign(protocol: Protocol, faulted: bool) -> Campaign {
    let mut config = CampaignConfig::quick(SEED, 1);
    // One day at 400 rounds (216 s apart) from every vantage, one domain:
    // the probe stream stays small while consecutive rounds stay within
    // the production pool's idle timeout.
    let vantages = config.vantages().iter().map(|v| v.label).collect();
    config.spans = vec![Span {
        start_day: 0,
        days: 1,
        rounds_per_day: 400,
        vantages,
    }];
    config.domains = vec!["google.com".to_string()];
    if faulted {
        config = config.with_default_faults();
    }
    config.probe.protocol = protocol;
    let config = config
        .with_load(LoadModel::standard(SEED).with_multiplier(10_000.0))
        .with_session(SessionConfig::warm());
    let entries = HOSTS
        .iter()
        .map(|h| catalog::resolvers::find(h).unwrap())
        .collect();
    Campaign::with_resolvers(config, entries)
}

#[test]
fn load_session_fast_matches_reference_and_three_threads() {
    for protocol in [Protocol::DoH, Protocol::DoT, Protocol::DoQ] {
        let c = campaign(protocol, true);
        let fast = c.run();
        let context = format!("{protocol:?}, faulted, dig retries");
        assert_eq!(
            fast.records,
            c.run_reference().records,
            "load × session fast path diverged from reference: {context}"
        );
        assert_eq!(
            fast.records,
            c.run_parallel(3).records,
            "load × session 3-thread run diverged from serial: {context}"
        );
        assert!(
            fast.records.iter().all(|r| r.conn_mode.is_some()),
            "every live-session record carries a connection mode: {context}"
        );
    }
}

#[test]
fn load_session_kill_resume_at_every_shard_boundary_is_byte_identical() {
    let c = campaign(Protocol::DoH, true);
    let reference = c.run().to_json_lines();
    let shards = 4u32;
    for stop_after in 0..=shards as usize {
        let dir = std::env::temp_dir().join(format!(
            "edns-load-session-resume-{}-{stop_after}",
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        {
            // First process: killed after `stop_after` shards.
            let runner = ShardedRunner::new(&c, shards, &dir).unwrap();
            runner.advance(stop_after).unwrap();
        }
        let outcome = ShardedRunner::new(&c, shards, &dir)
            .unwrap()
            .run(2)
            .unwrap();
        let assembled = std::fs::read_to_string(&outcome.jsonl_path).unwrap();
        assert_eq!(
            assembled, reference,
            "load × session resume diverged after {stop_after}/{shards} shards"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Per-pair records in schedule order (one domain, so time order).
fn by_pair(records: &[ProbeRecord]) -> BTreeMap<(&str, &str), Vec<&ProbeRecord>> {
    let mut pairs: BTreeMap<(&str, &str), Vec<&ProbeRecord>> = BTreeMap::new();
    for r in records {
        pairs
            .entry((r.vantage(), r.resolver()))
            .or_default()
            .push(r);
    }
    pairs
}

fn success_site(r: &ProbeRecord) -> Option<usize> {
    match r.outcome {
        ProbeOutcome::Success { site, .. } => Some(site),
        ProbeOutcome::Failure { .. } => None,
    }
}

#[test]
fn spilled_attempt_is_denied_the_old_sites_pooled_connection() {
    let c = campaign(Protocol::DoH, false);
    let result = c.run();
    let idle = SimDuration::from_secs(
        catalog::resolvers::find("dns.google")
            .unwrap()
            .reuse_policy()
            .pool_idle_timeout_s,
    );
    let mut denied = 0;
    let mut spill_window: Vec<SimTime> = Vec::new();
    for ((vantage, resolver), series) in by_pair(&result.records) {
        for w in series.windows(2) {
            let (Some(before), Some(after)) = (success_site(w[0]), success_site(w[1])) else {
                continue;
            };
            if before == after || w[1].at.since(w[0].at) > idle {
                continue;
            }
            // The previous probe succeeded and pooled its connection
            // within the idle timeout, but on another site.
            assert_ne!(
                w[1].conn_mode,
                Some(ConnectionMode::Reused),
                "{vantage}/{resolver} reused a site-{before} connection on site {after}"
            );
            if w[1].conn_mode == Some(ConnectionMode::Resumed) {
                denied += 1;
                spill_window.push(w[1].at);
            }
        }
    }
    assert!(
        denied > 0,
        "no spilled attempt met a live pooled connection to its old site"
    );
    // The denials sit on the day's two threshold crossings (located at
    // 180 s resolution, hence the one-round slack either side).
    let near = |t: &SimTime, crossing: u64| {
        let c = SimTime::ZERO + SimDuration::from_secs(crossing);
        let slack = SimDuration::from_secs(216);
        *t + slack >= c && *t <= c + slack
    };
    assert!(
        spill_window
            .iter()
            .all(|t| near(t, 40_500) || near(t, 46_080)),
        "denials outside the spill crossings: {spill_window:?}"
    );
}
