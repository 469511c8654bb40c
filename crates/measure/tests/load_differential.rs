//! Differential pinning of the load model's zero-transparency contract:
//! a campaign configured with `LoadModel::zero()` — or any model whose
//! `is_zero()` holds — must produce **byte-identical** output to the same
//! campaign with no load model at all, across seeds, protocols, fault
//! plans and retry policies, serially and at 3 threads.
//!
//! This is the invariant that lets the load subsystem ride along without
//! invalidating any seed golden: `run_pair` only leaves the unloaded code
//! path for a live model, a zero model never builds pair load state, and
//! the unloaded path itself still matches the per-probe reference build.
//! A live model, by contrast, MUST change output (otherwise the sweep
//! measures nothing) — asserted here too. The loaded fast path is held to
//! the per-probe reference, which recomputes every attempt's site from
//! the model (`offered_site_qps` + `route_loaded` + the shed hash) instead
//! of the pair-constant `PairLoad` tables, and to a 3-thread run.

use measure::{Campaign, CampaignConfig, LoadModel, ProbeOutcome, Protocol, RetryPolicy};
use netsim::SimDuration;
use proptest::prelude::*;

/// Same deliberate diversity as the arena differential: healthy anycast
/// mainstream, mostly-down hobbyist, HTTP/1.1-only flaky host.
const HOSTS: [&str; 3] = [
    "dns.google",
    "chewbacca.meganerd.nl",
    "ibksturm.synology.me",
];

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Do53,
    Protocol::DoT,
    Protocol::DoH,
    Protocol::DoQ,
    Protocol::ODoH,
];

fn retry_policy(idx: usize) -> RetryPolicy {
    match idx {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::dig_defaults(),
        _ => RetryPolicy {
            tries: 3,
            attempt_timeout: Some(SimDuration::from_millis(800)),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            jitter: 0.5,
        },
    }
}

fn config(seed: u64, protocol: Protocol, faulted: bool, retry: RetryPolicy) -> CampaignConfig {
    let mut config = CampaignConfig::quick(seed, 2);
    config.probe.protocol = protocol;
    config.probe.retry = retry;
    if faulted {
        config = config.with_default_faults();
    }
    config
}

fn campaign_with(config: CampaignConfig) -> Campaign {
    campaign_of(config, &HOSTS)
}

fn campaign_of(config: CampaignConfig, hosts: &[&str]) -> Campaign {
    let entries = hosts
        .iter()
        .map(|h| catalog::resolvers::find(h).unwrap())
        .collect();
    Campaign::with_resolvers(config, entries)
}

/// The zero-model campaign must be byte-identical to the no-model
/// campaign: records, JSONL, serially and at 3 threads.
fn assert_zero_load_is_transparent(base: CampaignConfig, context: &str) {
    let unloaded = campaign_with(base.clone());
    let baseline = unloaded.run();

    for (label, zero) in [
        ("LoadModel::zero()", LoadModel::zero()),
        (
            "standard().with_multiplier(0.0)",
            LoadModel::standard(base.seed).with_multiplier(0.0),
        ),
    ] {
        let loaded = campaign_with(base.clone().with_load(zero));
        let result = loaded.run();
        assert_eq!(
            baseline.records, result.records,
            "{label} diverged from no-model run: {context}"
        );
        assert_eq!(
            baseline.to_json_lines(),
            result.to_json_lines(),
            "{label} JSONL bytes diverged: {context}"
        );
        let parallel = loaded.run_parallel(3);
        assert_eq!(
            parallel.records, baseline.records,
            "{label} 3-thread run diverged: {context}"
        );
    }
}

#[test]
fn zero_load_transparent_for_every_protocol_under_faults() {
    for protocol in PROTOCOLS {
        assert_zero_load_is_transparent(
            config(23, protocol, true, RetryPolicy::dig_defaults()),
            &format!("{protocol:?}, faulted, dig retries"),
        );
    }
}

#[test]
fn zero_load_still_matches_the_per_probe_reference() {
    // Transitivity check: the zero-model fast path == unloaded fast path
    // == per-probe reference. Run the chain explicitly once.
    let base = config(4, Protocol::DoH, true, RetryPolicy::dig_defaults());
    let zeroed = campaign_with(base.clone().with_load(LoadModel::zero()));
    let reference = campaign_with(base).run_reference();
    assert_eq!(zeroed.run().records, reference.records);
}

#[test]
fn live_load_changes_output_and_is_thread_invariant() {
    let base = config(11, Protocol::DoH, false, RetryPolicy::none());
    let baseline = campaign_with(base.clone()).run();
    let loaded = campaign_with(base.with_load(LoadModel::standard(11).with_multiplier(8.0)));
    let serial = loaded.run();
    assert_ne!(
        baseline.records, serial.records,
        "a saturating load model must change campaign output"
    );
    assert_eq!(
        serial.records,
        loaded.run_parallel(3).records,
        "loaded campaign must not depend on thread count"
    );
    assert_eq!(
        serial.to_json_lines(),
        loaded.run().to_json_lines(),
        "loaded campaign must be rerun-deterministic"
    );
}

/// Sites that served successful `dns.google` probes.
fn google_sites(records: &[measure::ProbeRecord]) -> Vec<usize> {
    let mut sites: Vec<usize> = records
        .iter()
        .filter(|r| r.resolver() == "dns.google")
        .filter_map(|r| match r.outcome {
            ProbeOutcome::Success { site, .. } => Some(site),
            ProbeOutcome::Failure { .. } => None,
        })
        .collect();
    sites.sort_unstable();
    sites.dedup();
    sites
}

#[test]
fn live_load_fast_matches_reference_and_three_threads() {
    // 8x sheds and queues on the single-site hosts; at 10 000x, model
    // seed 12 moves dns.google from six of the seven vantages to site 0
    // during the day's second round. The roster adds a host with a residential peering
    // penalty, which the reference applies to its picked path itself.
    let hosts = [HOSTS[0], HOSTS[1], HOSTS[2], "doh.la.ahadns.net"];
    for (label, model) in [
        ("8x", LoadModel::standard(12).with_multiplier(8.0)),
        ("10 000x", LoadModel::standard(12).with_multiplier(10_000.0)),
    ] {
        for protocol in PROTOCOLS {
            let base = config(12, protocol, true, RetryPolicy::dig_defaults());
            let unloaded = campaign_of(base.clone(), &hosts).run();
            let loaded = campaign_of(base.with_load(model.clone()), &hosts);
            let fast = loaded.run();
            let context = format!("{label}, {protocol:?}, faulted, dig retries");
            assert_ne!(
                fast.records, unloaded.records,
                "a live model must change output: {context}"
            );
            assert_eq!(
                fast.to_json_lines(),
                loaded.run_reference().to_json_lines(),
                "loaded fast path diverged from the reference: {context}"
            );
            assert_eq!(
                fast.records,
                loaded.run_parallel(3).records,
                "loaded 3-thread run diverged from serial: {context}"
            );
            if label == "10 000x" {
                assert_ne!(
                    google_sites(&fast.records),
                    google_sites(&unloaded.records),
                    "the spill must move dns.google off its unloaded sites: {context}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_load_transparent(
        seed in any::<u64>(),
        proto_idx in 0usize..PROTOCOLS.len(),
        faulted in any::<bool>(),
        retry_idx in 0usize..3,
    ) {
        assert_zero_load_is_transparent(
            config(seed, PROTOCOLS[proto_idx], faulted, retry_policy(retry_idx)),
            &format!(
                "seed={seed}, protocol={:?}, faulted={faulted}, retry={retry_idx}",
                PROTOCOLS[proto_idx]
            ),
        );
    }
}
