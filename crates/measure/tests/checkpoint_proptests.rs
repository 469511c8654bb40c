//! Property tests for the checkpoint codec: manifests and shard sidecars
//! built from arbitrary state must encode/decode exactly, the encoding
//! must be a fixed point (encode ∘ decode ∘ encode = encode), and a
//! sidecar cut short anywhere must be rejected.

use proptest::prelude::*;

use measure::aggregate::{AggregateCell, PairAggregate};
use measure::checkpoint::{
    availability_from_json, availability_to_json, pair_day_health_from_json,
    pair_day_health_to_json, sketch_from_json, sketch_to_json, FileDigest, Manifest, PairDayHealth,
    RetryExhaustion, ShardCheckpoint, ShardSidecar, ShardState,
};
use measure::{HealthCell, Label};
use obs::{MetricsRegistry, Phase};

use edns_stats::{Availability, LatencySketch};

const ERROR_LABELS: [&str; 4] = [
    "connect_timeout",
    "query_timeout",
    "tls_failure",
    "http_error",
];

fn arb_sketch() -> impl Strategy<Value = LatencySketch> {
    proptest::collection::vec(0.01f64..60_000.0, 0..40).prop_map(|samples| {
        let mut s = LatencySketch::new();
        for x in samples {
            s.observe(x);
        }
        s
    })
}

fn arb_availability() -> impl Strategy<Value = Availability> {
    (
        0u64..10_000,
        proptest::collection::vec((0usize..ERROR_LABELS.len(), 1u64..500), 0..4),
    )
        .prop_map(|(successes, errors)| {
            let mut a = Availability {
                successes,
                ..Availability::default()
            };
            for (label, count) in errors {
                *a.errors.entry(ERROR_LABELS[label].to_string()).or_insert(0) += count;
            }
            a
        })
}

fn arb_cell() -> impl Strategy<Value = AggregateCell> {
    (arb_availability(), arb_sketch(), arb_sketch()).prop_map(|(availability, response, ping)| {
        AggregateCell {
            availability,
            response,
            ping,
        }
    })
}

fn arb_pair() -> impl Strategy<Value = PairAggregate> {
    (0u32..512, arb_cell(), "[a-z]{1,8}", "[a-z.]{1,12}").prop_map(
        |(pair, cell, vantage, resolver)| PairAggregate {
            pair,
            vantage: Label::intern(&vantage),
            resolver: Label::intern(&resolver),
            cell,
        },
    )
}

fn arb_pair_day_health() -> impl Strategy<Value = PairDayHealth> {
    (0u32..512, 0u32..256, arb_availability(), arb_sketch()).prop_map(
        |(pair, day, availability, response)| PairDayHealth {
            pair,
            day,
            cell: HealthCell {
                availability,
                response,
            },
        },
    )
}

fn arb_digest() -> impl Strategy<Value = FileDigest> {
    (0u64..100_000_000, any::<u64>()).prop_map(|(bytes, checksum)| FileDigest { bytes, checksum })
}

fn arb_state() -> impl Strategy<Value = ShardState> {
    (
        any::<bool>(),
        0u64..1_000_000,
        arb_digest(),
        arb_digest(),
        arb_digest(),
    )
        .prop_map(|(complete, records, data, keys, sidecar)| {
            if complete {
                // The shard index is rewritten to the entry slot by the
                // caller; 0 is a placeholder.
                ShardState::Complete(ShardCheckpoint {
                    shard: 0,
                    records,
                    data,
                    keys,
                    sidecar,
                })
            } else {
                ShardState::Pending
            }
        })
}

/// One observation folded into a metrics cell: which of four cells, and
/// what happened.
#[derive(Debug, Clone)]
enum Observation {
    Success {
        ms: f64,
        phase: usize,
        cache_hit: bool,
    },
    Failure {
        label: usize,
    },
    Ping(f64),
    Retry {
        phase: usize,
        recovered: bool,
    },
}

fn arb_observation() -> impl Strategy<Value = (usize, Observation)> {
    let obs = prop_oneof![
        (0.001f64..20_000.0, 0..Phase::COUNT, any::<bool>()).prop_map(|(ms, phase, cache_hit)| {
            Observation::Success {
                ms,
                phase,
                cache_hit,
            }
        }),
        (0..ERROR_LABELS.len()).prop_map(|label| Observation::Failure { label }),
        (0.001f64..500.0).prop_map(Observation::Ping),
        (0..Phase::COUNT, any::<bool>())
            .prop_map(|(phase, recovered)| Observation::Retry { phase, recovered }),
    ];
    (0usize..4, obs)
}

fn arb_sidecar() -> impl Strategy<Value = ShardSidecar> {
    (
        0u32..64,
        proptest::collection::vec(arb_pair(), 0..4),
        proptest::collection::vec(arb_pair_day_health(), 0..5),
        proptest::collection::vec(arb_observation(), 0..60),
        proptest::collection::vec((any::<u32>(), 1u32..8), 0..4),
    )
        .prop_map(|(shard, pairs, health, observations, exhausted)| {
            const CELLS: [(&str, &str, &str); 4] = [
                ("dns.google", "home-us-east", "doh"),
                ("dns.google", "ec2-ohio", "doh"),
                ("dns.quad9.net", "home-us-east", "dot"),
                ("doh.ffmuc.net", "ec2-frankfurt", "doq"),
            ];
            let mut registry = MetricsRegistry::new();
            for (cell, o) in observations {
                let (resolver, vantage, protocol) = CELLS[cell];
                let m = registry.cell(resolver, vantage, protocol);
                m.probes.inc();
                match o {
                    Observation::Success {
                        ms,
                        phase,
                        cache_hit,
                    } => {
                        m.successes.inc();
                        if cache_hit {
                            m.cache_hits.inc();
                        }
                        m.response_ms.observe(ms);
                        m.last_response_ms.set(ms);
                        m.phase_ms[phase].observe(ms / 3.0);
                    }
                    Observation::Failure { label } => {
                        *m.errors.entry(ERROR_LABELS[label]).or_insert(0) += 1;
                    }
                    Observation::Ping(ms) => m.ping_ms.observe(ms),
                    Observation::Retry { phase, recovered } => {
                        m.retries_by_phase[phase].inc();
                        if recovered {
                            m.recovered.inc();
                        } else {
                            m.exhausted.inc();
                        }
                    }
                }
            }
            ShardSidecar {
                shard,
                pairs,
                health,
                metrics: registry.snapshot(),
                exhausted: exhausted
                    .into_iter()
                    .map(|(at, attempts)| RetryExhaustion {
                        at: at as u64 * 1_000_003,
                        resolver: Label::intern("dns.quad9.net"),
                        vantage: Label::intern("home-us-east"),
                        attempts,
                    })
                    .collect(),
            }
        })
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (
        any::<u64>(),
        any::<u64>(),
        0u32..4096,
        proptest::collection::vec(arb_state(), 1..8),
    )
        .prop_map(|(fingerprint, seed, pairs, mut states)| {
            for (i, s) in states.iter_mut().enumerate() {
                if let ShardState::Complete(c) = s {
                    c.shard = i as u32;
                }
            }
            Manifest {
                fingerprint,
                seed,
                pairs,
                states,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn manifest_encode_decode_round_trips(m in arb_manifest()) {
        let text = m.encode();
        let back = Manifest::decode(&text).unwrap();
        prop_assert_eq!(&back, &m);
        // Fixed point: re-encoding the decoded manifest is byte-identical.
        prop_assert_eq!(back.encode(), text);
    }

    #[test]
    fn sketch_json_round_trips_bit_exactly(s in arb_sketch()) {
        let back = sketch_from_json(&sketch_to_json(&s)).unwrap();
        prop_assert_eq!(&back, &s);
        if s.count() > 0 {
            prop_assert_eq!(back.mean().unwrap().to_bits(), s.mean().unwrap().to_bits());
            prop_assert_eq!(back.min().unwrap().to_bits(), s.min().unwrap().to_bits());
            prop_assert_eq!(back.max().unwrap().to_bits(), s.max().unwrap().to_bits());
        }
    }

    #[test]
    fn availability_json_round_trips(a in arb_availability()) {
        let back = availability_from_json(&availability_to_json(&a)).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn pair_day_health_json_round_trips(h in arb_pair_day_health()) {
        let back = pair_day_health_from_json(&pair_day_health_to_json(&h)).unwrap();
        prop_assert_eq!(back, h);
    }

    #[test]
    fn sidecar_round_trips_bit_exactly_and_rejects_truncation(s in arb_sidecar()) {
        let text = s.encode();
        let back = ShardSidecar::decode(&text).unwrap();
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.encode(), text.clone());
        for (b, o) in back.metrics.cells.iter().zip(&s.metrics.cells) {
            let bits = |m: &obs::CellMetrics| -> Vec<u64> {
                [&m.response_ms, &m.ping_ms]
                    .into_iter()
                    .chain(&m.phase_ms)
                    .map(|h| h.sum().to_bits())
                    .chain([m.last_response_ms.get().to_bits()])
                    .collect()
            };
            prop_assert_eq!(bits(&b.metrics), bits(&o.metrics));
        }
        // Every strict prefix is a torn write and must be rejected.
        for cut in 0..text.len() {
            prop_assert!(ShardSidecar::decode(&text[..cut]).is_err(), "prefix {}", cut);
        }
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_text(s in "\\PC{0,300}") {
        let _ = Manifest::decode(&s);
    }

    #[test]
    fn decoder_never_panics_on_mutated_manifests(
        m in arb_manifest(),
        idx in any::<prop::sample::Index>(),
        byte in 0u8..128,
    ) {
        let mut text = m.encode().into_bytes();
        if !text.is_empty() {
            let i = idx.index(text.len());
            text[i] = byte;
        }
        if let Ok(s) = std::str::from_utf8(&text) {
            // Must either decode (the mutation hit a byte that keeps both
            // checksum and structure valid — e.g. mutating a byte to
            // itself) or return a typed error; never panic.
            let _ = Manifest::decode(s);
        }
    }
}
