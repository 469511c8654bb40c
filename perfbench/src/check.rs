//! Output checks: every measured run's output is reduced to a fingerprint
//! and compared with the one computed from the one-shot `Campaign::run`
//! path on the same seed, and — for the seeds recorded in
//! `perfbench/expected.tsv` — with the recorded values.

use std::io::Read;
use std::path::Path;

use measure::checkpoint::fnv64;
use measure::{AggregateCell, Campaign, CampaignAggregates, ProbeRecord};

/// Streaming 64-bit FNV-1a, equal to `measure::checkpoint::fnv64` over
/// the concatenated input (pinned by [`self_test`]). Streaming keeps the
/// check from holding a whole output file in memory, which would distort
/// the peak-RSS metric.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// Fails loudly if the streaming hash ever drifts from the program's own.
pub fn self_test() {
    let sample: Vec<u8> = (0..4099u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut h = Fnv64::new();
    for chunk in sample.chunks(97) {
        h.update(chunk);
    }
    assert_eq!(
        h.get(),
        fnv64(&sample),
        "streaming FNV-1a disagrees with fnv64"
    );
}

/// What one campaign output must reproduce exactly. Floats are kept as
/// their fixed-precision renderings so equality is exact and the recorded
/// file round-trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub records: u64,
    pub output_fnv64: u64,
    pub sim_availability_pct: String,
    pub sim_p50_ms: String,
    pub sim_p95_ms: String,
}

impl Fingerprint {
    pub fn new(records: u64, output_fnv64: u64, overall: &AggregateCell) -> Fingerprint {
        let q = |p: f64| format!("{:.6}", overall.response.quantile(p).unwrap_or(0.0));
        Fingerprint {
            records,
            output_fnv64,
            sim_availability_pct: format!("{:.6}", overall.availability.availability() * 100.0),
            sim_p50_ms: q(0.5),
            sim_p95_ms: q(0.95),
        }
    }

    /// Fingerprint of an in-memory record vector whose JSONL digest is
    /// already known.
    pub fn of_records(campaign: &Campaign, records: &[ProbeRecord], digest: u64) -> Fingerprint {
        let overall = CampaignAggregates::of(campaign, records).overall();
        Fingerprint::new(records.len() as u64, digest, &overall)
    }

    /// The line format of `expected.tsv` after the seed, workload and arm
    /// columns.
    pub fn columns(&self) -> String {
        format!(
            "{}\t{:016x}\t{}\t{}\t{}",
            self.records,
            self.output_fnv64,
            self.sim_availability_pct,
            self.sim_p50_ms,
            self.sim_p95_ms
        )
    }
}

/// The JSONL digest of `records`, streamed record by record: equal to
/// `fnv64(CampaignResult::to_json_lines())` without building the string.
pub fn jsonl_digest(records: &[ProbeRecord]) -> u64 {
    let mut h = Fnv64::new();
    let mut line = String::with_capacity(1024);
    for r in records {
        line.clear();
        r.write_json_line(&mut line);
        line.push('\n');
        h.update(line.as_bytes());
    }
    h.get()
}

/// Digest of a file, streamed in fixed-size chunks.
pub fn file_digest(path: &Path) -> std::io::Result<(u64, u64)> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut h = Fnv64::new();
    let mut len = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok((h.get(), len));
        }
        len += n as u64;
        h.update(&buf[..n]);
    }
}

/// One line of `expected.tsv`.
#[derive(Debug, Clone)]
pub struct Expected {
    pub seed: u64,
    pub workload: String,
    pub arm: String,
    pub fingerprint: Fingerprint,
}

/// Parses `expected.tsv`: `#` comments, then tab-separated
/// `seed workload arm records fnv64 availability_pct p50_ms p95_ms`.
pub fn parse_expected(text: &str) -> Result<Vec<Expected>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 8 {
            return Err(format!(
                "expected.tsv line {}: {} columns, want 8",
                n + 1,
                cols.len()
            ));
        }
        let bad = |what: &str| format!("expected.tsv line {}: bad {what}", n + 1);
        out.push(Expected {
            seed: cols[0].parse().map_err(|_| bad("seed"))?,
            workload: cols[1].to_string(),
            arm: cols[2].to_string(),
            fingerprint: Fingerprint {
                records: cols[3].parse().map_err(|_| bad("records"))?,
                output_fnv64: u64::from_str_radix(cols[4], 16).map_err(|_| bad("fnv64"))?,
                sim_availability_pct: cols[5].to_string(),
                sim_p50_ms: cols[6].to_string(),
                sim_p95_ms: cols[7].to_string(),
            },
        });
    }
    Ok(out)
}
