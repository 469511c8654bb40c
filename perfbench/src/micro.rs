//! Substrate micro-pass on a workload's own inputs, run outside the
//! workload spans: the `dns-wire` codec on every query the workload's
//! domains build, `Deployment::route` and `Path::sample_rtt` for every
//! (vantage, resolver) pair, and cold one-shot `Prober::probe` calls per
//! protocol.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dns_wire::{Message, MessageBuilder, Name, RecordType};
use measure::{Campaign, ProbeConfig, ProbeTarget, Prober, Protocol};
use netsim::{SimRng, SimTime};

use crate::median;

/// Passes over each input set; the per-call figure is the median pass.
const PASSES: usize = 9;
/// Codec calls per query per pass.
const CODEC_REPS: usize = 400;
/// Routing and path-sampling calls per pair per pass.
const PATH_REPS: usize = 20;

/// The query the probe path builds for `domain` (the same builder calls as
/// the prober: id 0 on encrypted transports, RD, EDNS 1232, padding to
/// 128 octets when encrypted).
fn query(domain: &Name, encrypted: bool, padding: bool) -> Message {
    let mut b = MessageBuilder::query(
        if encrypted { 0 } else { 0x2b2b },
        domain.clone(),
        RecordType::A,
    )
    .recursion_desired(true)
    .edns_udp_size(1232);
    if padding && encrypted {
        b = b.padding_to(128);
    }
    b.build()
}

/// Runs the micro-pass; returns (metric name, value, base) rows.
pub fn run(campaign: &Campaign, protocols: &[Protocol], seed: u64) -> Vec<(String, f64, String)> {
    let mut rows = Vec::new();
    let config = campaign.config();
    let names: Vec<Name> = config
        .domains
        .iter()
        .map(|d| Name::parse(d).expect("campaign domains are validated"))
        .collect();

    // Codec: every distinct query the workload's probes build.
    let mut queries: Vec<Message> = Vec::new();
    let mut wires: Vec<Vec<u8>> = Vec::new();
    for p in protocols {
        let encrypted = *p != Protocol::Do53;
        for n in &names {
            let q = query(n, encrypted, config.probe.padding);
            let wire = q.encode().expect("queries encode");
            if !wires.contains(&wire) {
                wires.push(wire);
                queries.push(q);
            }
        }
    }
    let calls = (queries.len() * CODEC_REPS) as f64;
    let enc = median(
        (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..CODEC_REPS {
                    for q in &queries {
                        black_box(black_box(q).encode().expect("queries encode"));
                    }
                }
                t.elapsed().as_nanos() as f64 / calls
            })
            .collect(),
    );
    let dec = median(
        (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..CODEC_REPS {
                    for w in &wires {
                        black_box(Message::decode(black_box(w)).expect("queries decode"));
                    }
                }
                t.elapsed().as_nanos() as f64 / calls
            })
            .collect(),
    );
    let base = format!(
        "per call, {} queries x {CODEC_REPS} x {PASSES} passes",
        queries.len()
    );
    rows.push(("dns_wire.encode_ns".to_string(), enc, base.clone()));
    rows.push(("dns_wire.decode_ns".to_string(), dec, base));

    // Routing and path sampling: every (vantage, resolver) pair.
    let clients: Vec<_> = config.vantages().iter().map(|v| v.host(0)).collect();
    let instances: Vec<_> = campaign.entries().iter().map(|e| e.instantiate()).collect();
    let pairs = (clients.len() * instances.len()) as f64;
    let calls = pairs * PATH_REPS as f64;
    let route = median(
        (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                for c in &clients {
                    for i in &instances {
                        for _ in 0..PATH_REPS {
                            black_box(i.deployment.route(black_box(c)));
                        }
                    }
                }
                t.elapsed().as_nanos() as f64 / calls
            })
            .collect(),
    );
    let paths: Vec<_> = clients
        .iter()
        .flat_map(|c| instances.iter().map(move |i| i.deployment.path_from(c).1))
        .collect();
    let fwd = wires.iter().map(Vec::len).max().unwrap_or(64);
    let mut rng = SimRng::derived(seed, "perfbench:path");
    let sample = median(
        (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                for p in &paths {
                    for _ in 0..PATH_REPS {
                        black_box(p.sample_rtt(fwd, 2 * fwd, &mut rng));
                    }
                }
                t.elapsed().as_nanos() as f64 / calls
            })
            .collect(),
    );
    let base = format!("per call, {pairs} pairs x {PATH_REPS} x {PASSES} passes");
    rows.push(("netsim.route_ns".to_string(), route, base.clone()));
    rows.push(("netsim.path_sample_ns".to_string(), sample, base));

    // One cold one-shot probe per protocol and pair: a fresh target (cold
    // caches, no session) for every call.
    let prober = Prober::new();
    let vantages = config.vantages();
    let entries = campaign.entries();
    let mut by_protocol: BTreeMap<&'static str, f64> = BTreeMap::new();
    for p in [Protocol::DoH, Protocol::DoT, Protocol::DoQ, Protocol::Do53] {
        let cfg = ProbeConfig {
            protocol: p,
            ..config.probe
        };
        let mut rng = SimRng::derived(seed, "perfbench:oneshot");
        let mut times = Vec::with_capacity(vantages.len() * entries.len());
        for v in &vantages {
            let client = v.host(0);
            for e in entries {
                let mut target = ProbeTarget::from_entry(e.clone());
                let t = Instant::now();
                black_box(prober.probe(
                    &client,
                    &mut target,
                    &names[0],
                    SimTime::ZERO,
                    v.is_home(),
                    cfg,
                    &mut rng,
                ));
                times.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        by_protocol.insert(p.label(), median(times));
    }
    let base = format!("median of {} cold calls", vantages.len() * entries.len());
    for (label, us) in by_protocol {
        rows.push((format!("probe.oneshot_us.{label}"), us, base.clone()));
    }
    rows
}
