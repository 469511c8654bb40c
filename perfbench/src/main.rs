//! Campaign benchmark for the measurement workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inmem_pipeline|sharded_longitudinal|scenario_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record --seed <n>
//! ```
//!
//! Run from the repository root. Each run repeats one workload for
//! `--seconds` wall seconds and checks every repetition's output against
//! the one-shot `Campaign::run` output for the same seed (and, for the
//! seeds recorded in `perfbench/expected.tsv`, against the recorded
//! fingerprints). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` reports the end-to-end metrics: `probes_per_s` (lower
//!   quartile of the repetitions' probes per wall second), `setup_s` (median over several fresh processes, from
//!   `main` to the first probe) and `peak_rss_mb` (VmHWM of this process,
//!   read before the reference run).
//! * `--trace 1` spends half the budget untraced and half traced, with
//!   spans recorded around each call into a layer's public functions, and
//!   reports the per-layer metrics; the spans are written to
//!   `.bench_out/`.
//! * `--record` prints the `expected.tsv` lines for `--seed`.
//!
//! Checkpoint directories live under `.bench_work/` and are removed on
//! exit.

// Wall-clock timing is the measurement itself.
#![allow(clippy::disallowed_methods)]

mod check;
mod env;
mod micro;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use measure::checkpoint::fnv64;

use check::{Expected, Fingerprint};
use trace::Tracer;
use workload::{Arm, Iteration, Kind};

const USAGE: &str =
    "usage: perfbench --workload <inmem_pipeline|sharded_longitudinal|scenario_mix> \
                     [--seed N] [--seconds S] [--trace 0|1] | --record [--seed N]";

/// Seed used when `--seed` is absent. `expected.tsv` records it and one
/// held-out seed.
const DEFAULT_SEED: u64 = 42;
/// Fresh processes whose set-up time makes up `setup_s`, this one
/// included.
const SETUP_SAMPLES: usize = 11;
/// Largest share of the traced wall clock the top-level spans may leave
/// uncovered.
const RECONCILE_TOLERANCE: f64 = 0.02;

const EXPECTED: &str = include_str!("../expected.tsv");

/// Every per-layer metric, in report order, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.generate_s", "s"),
    ("campaign.generate_s.doh_session", "s"),
    ("campaign.generate_s.dot_load", "s"),
    ("campaign.generate_s.doq_session", "s"),
    ("campaign.generate_s.do53_load", "s"),
    ("campaign.assemble_s", "s"),
    ("campaign.metrics_s", "s"),
    ("campaign.probes", "count"),
    ("results.jsonl_s", "s"),
    ("results.jsonl_bytes", "bytes"),
    ("results.jsonl_mb_per_s", "MB/s"),
    ("health.fold_s", "s"),
    ("health.drift_s", "s"),
    ("health.drift_findings", "count"),
    ("retry.attempts_per_probe", "ratio"),
    ("retry.success_per_attempt", "ratio"),
    ("session.reused_share", "ratio"),
    ("session.resumed_share", "ratio"),
    ("shard.step_ms.p50", "ms"),
    ("shard.step_ms.max", "ms"),
    ("shard.step_growth", "ratio"),
    ("shard.resume_validate_s", "s"),
    ("shard.assemble_s", "s"),
    ("shard.records_merged", "count"),
    ("shard.step_checkpoint_share", "ratio"),
    ("checkpoint.manifest_writes", "count"),
    ("checkpoint.manifest_bytes_written", "bytes"),
    ("checkpoint.manifest_final_bytes", "bytes"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.store_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.step_replay_s", "s"),
    ("dns_wire.encode_ns", "ns"),
    ("dns_wire.decode_ns", "ns"),
    ("netsim.route_ns", "ns"),
    ("netsim.path_sample_ns", "ns"),
    ("probe.oneshot_us.doh", "us"),
    ("probe.oneshot_us.dot", "us"),
    ("probe.oneshot_us.doq", "us"),
    ("probe.oneshot_us.do53", "us"),
    ("trace.wall_s", "s"),
    ("trace.top_level_share", "ratio"),
    ("trace.generate_share", "ratio"),
    ("trace.checkpoint_assemble_share", "ratio"),
    ("trace.untraced_probes_per_s", "probes/s"),
    ("trace.traced_probes_per_s", "probes/s"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.kind.is_none() && !args.record {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    check::self_test();
    if args.record {
        for kind in Kind::ALL {
            for (arm, fp) in reference(&workload::prepare(kind, args.seed)) {
                println!("{}\t{}\t{arm}\t{}", args.seed, kind.name(), fp.columns());
            }
        }
        return;
    }
    let kind = args.kind.expect("checked by parse_args");
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", kind.name(), std::process::id()));
    let code = if args.setup_only {
        let arms = workload::prepare(kind, args.seed);
        if kind == Kind::Sharded {
            measure::ShardedRunner::new(&arms[0].campaign, workload::SHARDS, work.join("setup"))
                .expect("empty checkpoint directory opens");
        }
        println!("{}", start.elapsed().as_secs_f64());
        0
    } else {
        run(&args, kind, start, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    std::process::exit(code);
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `probes_per_s`: the lower quartile of the repetitions' rates (probes per
/// wall second of each measured phase). A shared machine can alternate
/// between a fast and a slow speed for seconds at a time; nearly every run
/// visits the slow speed, so its lower quartile moves least from run to run
/// (the comparison with other statistics is in `BASELINE.md`).
fn lower_quartile_pps(its: &[&Iteration]) -> f64 {
    let mut rates: Vec<f64> = its.iter().map(|i| i.probes_per_s()).collect();
    if rates.is_empty() {
        return 0.0;
    }
    rates.sort_by(f64::total_cmp);
    let k = (rates.len() - 1) as f64 * 0.25;
    let (lo, frac) = (k.floor() as usize, k.fract());
    let hi = (lo + 1).min(rates.len() - 1);
    rates[lo] + (rates[hi] - rates[lo]) * frac
}

/// The expected fingerprint per arm, from the one-shot `Campaign::run`
/// path: `fnv64(to_json_lines())` and the aggregates of its records.
fn reference(arms: &[Arm]) -> Vec<(&'static str, Fingerprint)> {
    arms.iter()
        .map(|arm| {
            let result = arm.campaign.run();
            let digest = fnv64(result.to_json_lines().as_bytes());
            (
                arm.name,
                Fingerprint::of_records(&arm.campaign, &result.records, digest),
            )
        })
        .collect()
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats the workload until `budget` has passed (at least once).
fn repeat(
    kind: Kind,
    arms: &[Arm],
    work: &Path,
    budget: Duration,
    tr: &mut Tracer,
) -> Vec<Iteration> {
    let began = Instant::now();
    let mut out = Vec::new();
    loop {
        let dir = work.join(format!("run-{}-{}", tr.is_on() as u8, out.len()));
        let run = tr.next_run();
        let mut it = workload::iterate(kind, arms, &dir, tr);
        it.run = run;
        out.push(it);
        let _ = std::fs::remove_dir_all(&dir);
        if began.elapsed() >= budget {
            return out;
        }
    }
}

/// Set-up times of fresh processes running only the set-up.
fn setup_samples(kind: Kind, seed: u64, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    kind.name(),
                    "--seed",
                    &seed.to_string(),
                    "--setup-only",
                ])
                .output()
                .map_err(|e| format!("spawn set-up sample: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up sample exited with {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|_| "set-up sample printed no time".to_string())
        })
        .collect()
}

fn run(args: &Args, kind: Kind, start: Instant, work: &Path) -> i32 {
    let arms = workload::prepare(kind, args.seed);
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut off = Tracer::off();
    let untraced = repeat(kind, &arms, work, budget, &mut off);
    let setup_self = untraced[0]
        .t0
        .map_or(0.0, |t0| t0.duration_since(start).as_secs_f64());
    let mut tr = Tracer::on();
    let traced = if args.trace {
        repeat(kind, &arms, work, budget, &mut tr)
    } else {
        Vec::new()
    };
    let rss = peak_rss_mb();

    let mut problems: Vec<String> = Vec::new();
    let mut setup = vec![setup_self];
    if !args.trace {
        match setup_samples(kind, args.seed, SETUP_SAMPLES - 1) {
            Ok(s) => setup.extend(s),
            Err(e) => problems.push(e),
        }
    }

    // Output checks: every repetition against the one-shot reference, the
    // reference against the recorded fingerprints where this seed has any.
    let expected = reference(&arms);
    let mut iters: Vec<(bool, Iteration)> = untraced
        .into_iter()
        .map(|i| (false, i))
        .chain(traced.into_iter().map(|i| (true, i)))
        .collect();
    for (_, it) in iters.iter_mut() {
        if it.outputs.len() != expected.len() {
            it.errors.push("output arms missing".to_string());
        }
        for ((arm, got), (_, want)) in it.outputs.iter().zip(&expected) {
            if got != want {
                it.errors.push(format!(
                    "{arm}: output {got:?} differs from one-shot {want:?}"
                ));
            }
        }
    }
    match check::parse_expected(EXPECTED) {
        Err(e) => problems.push(e),
        Ok(recorded) => {
            let mine: Vec<&Expected> = recorded
                .iter()
                .filter(|e| e.seed == args.seed && e.workload == kind.name())
                .collect();
            if !mine.is_empty() {
                let same = mine.len() == expected.len()
                    && mine
                        .iter()
                        .zip(&expected)
                        .all(|(e, (arm, fp))| e.arm == *arm && e.fingerprint == *fp);
                if !same {
                    problems.push(format!(
                        "one-shot output for seed {} differs from expected.tsv",
                        args.seed
                    ));
                }
            }
        }
    }

    let attempted: u64 = iters.iter().map(|(_, i)| i.ops).sum();
    let failed: u64 = iters
        .iter()
        .filter(|(_, i)| !i.errors.is_empty())
        .map(|(_, i)| i.ops)
        .sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {}",
        kind.name(),
        args.seed,
        args.seconds
    );
    for (k, v) in env::record(work) {
        let _ = writeln!(out, "env {k}: {v}");
    }
    for (arm, fp) in &expected {
        let _ = writeln!(
            out,
            "fingerprint {arm}: {}",
            fp.columns().replace('\t', " ")
        );
    }
    for (traced, it) in &iters {
        let _ = writeln!(
            out,
            "{} repetition: {:.4} s, {} probes, {:.1} probes/s{}",
            if *traced { "traced" } else { "untraced" },
            it.secs,
            it.probes,
            it.probes_per_s(),
            if it.errors.is_empty() {
                String::new()
            } else {
                format!(", FAILED: {}", it.errors.join("; "))
            }
        );
    }
    // A failed repetition's timings are discarded.
    let valid = |traced: bool| -> Vec<&Iteration> {
        iters
            .iter()
            .filter(|(t, i)| *t == traced && i.errors.is_empty())
            .map(|(_, i)| i)
            .collect()
    };

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if args.trace {
        let layer = layers(kind, &arms, &valid(false), &valid(true), &tr, args.seed);
        if kind == Kind::Sharded {
            let _ = writeln!(
                out,
                "note: the traced repetitions replace run({}) with serial advance(1) steps and \
                 finish(); every step reloads and re-validates the manifest \
                 (checkpoint.step_replay_s), so trace.overhead_share compares different paths",
                workload::WORKERS
            );
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16} {:<9} base",
            "per-layer metric", "value", "unit"
        );
        for (name, unit) in PER_LAYER {
            let (value, base) = layer
                .rows
                .get(*name)
                .cloned()
                .unwrap_or((0.0, "not measured on this workload".to_string()));
            let _ = writeln!(out, "{name:<36} {value:>16.6} {unit:<9} {base}");
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        problems.extend(layer.problems);
        let spans = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            kind.name(),
            args.seed
        ));
        if std::fs::create_dir_all(".bench_out")
            .and_then(|_| std::fs::write(&spans, tr.to_jsonl()))
            .is_ok()
        {
            let _ = writeln!(
                out,
                "spans: {} ({} spans)",
                spans.display(),
                tr.spans().len()
            );
        }
    } else {
        let ok = valid(false);
        let ok: Vec<&Iteration> = if ok.is_empty() {
            iters.iter().map(|(_, i)| i).collect()
        } else {
            ok
        };
        metrics.push((
            "probes_per_s".into(),
            lower_quartile_pps(&ok),
            "probes/s".into(),
        ));
        metrics.push(("setup_s".into(), median(setup.clone()), "s".into()));
        metrics.push(("peak_rss_mb".into(), rss, "MB".into()));
        let _ = writeln!(
            out,
            "setup samples (s): {}",
            setup
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    for p in &problems {
        let _ = writeln!(out, "check FAILED: {p}");
    }
    let _ = writeln!(
        out,
        "failed_share {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = failed == 0 && problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    print!("{out}");
    println!("{json}");
    0
}

struct Layers {
    /// name → (value, base).
    rows: BTreeMap<String, (f64, String)>,
    problems: Vec<String>,
}

/// Per-layer metrics from the traced repetitions' spans and counts (the
/// median over repetitions), the untraced repetitions, and the micro-pass.
fn layers(
    kind: Kind,
    arms: &[Arm],
    untraced: &[&Iteration],
    traced: &[&Iteration],
    tr: &Tracer,
    seed: u64,
) -> Layers {
    let mut l = Layers {
        rows: BTreeMap::new(),
        problems: Vec::new(),
    };
    let reps = traced.len();
    if reps == 0 {
        l.problems
            .push("no traced repetition passed its checks".to_string());
        return l;
    }
    let own = tr.self_secs();
    let spans = tr.spans();
    let by_run = tr.self_by_name();
    let recon = tr.reconcile();
    let mut per_run: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &str, v: f64| per_run.entry(name.to_string()).or_default().push(v);
    for it in traced {
        let run = &it.run;
        let s = |name: &str| {
            by_run
                .get(run)
                .and_then(|m| m.get(name))
                .copied()
                .unwrap_or(0.0)
        };
        let c = |name: &str| it.counts.get(name).copied().unwrap_or(0.0);
        let (wall, top) = recon.get(run).copied().unwrap_or((0.0, 0.0));
        let gap = 1.0 - top / wall;
        // A NaN gap (no spans) fails too.
        if gap.is_nan() || gap.abs() > RECONCILE_TOLERANCE {
            l.problems.push(format!(
                "run {run}: top-level spans cover {:.2}% of the traced wall clock (tolerance {:.0}%)",
                100.0 * top / wall,
                100.0 * RECONCILE_TOLERANCE
            ));
        }
        push("trace.wall_s", wall);
        push("trace.top_level_share", top / wall);
        push("campaign.probes", it.probes as f64);
        match kind {
            Kind::Inmem | Kind::Mix => {
                let generate = s("campaign.generate");
                push("campaign.generate_s", generate);
                push("campaign.assemble_s", s("campaign.assemble"));
                push("campaign.metrics_s", s("campaign.metrics"));
                push("trace.generate_share", generate / wall);
                let attempts = c("retry.attempts");
                push("retry.attempts_per_probe", attempts / it.probes as f64);
                push("retry.success_per_attempt", c("retry.successes") / attempts);
            }
            Kind::Sharded => {}
        }
        match kind {
            Kind::Inmem => {
                let jsonl = s("results.jsonl");
                push("results.jsonl_s", jsonl);
                push("results.jsonl_bytes", c("results.jsonl_bytes"));
                push(
                    "results.jsonl_mb_per_s",
                    c("results.jsonl_bytes") / 1e6 / jsonl,
                );
                push("health.fold_s", s("health.fold"));
                push("health.drift_s", s("health.drift"));
                push("health.drift_findings", c("health.drift_findings"));
            }
            Kind::Mix => {
                for (i, arm) in arms.iter().enumerate() {
                    let generate: f64 = spans
                        .iter()
                        .zip(&own)
                        .filter(|(sp, _)| {
                            sp.run == *run
                                && sp.name == "campaign.generate"
                                && sp.index == Some(i as u32)
                        })
                        .map(|(_, o)| *o)
                        .sum();
                    push(&format!("campaign.generate_s.{}", arm.name), generate);
                }
                let probes = c("session.probes");
                push("session.reused_share", c("session.reused") / probes);
                push("session.resumed_share", c("session.resumed") / probes);
            }
            Kind::Sharded => {
                // Spans are recorded in step order.
                let ms: Vec<f64> = spans
                    .iter()
                    .filter(|sp| sp.run == *run && sp.name == "shard.advance")
                    .map(|sp| sp.secs() * 1e3)
                    .collect();
                let step_total = ms.iter().sum::<f64>() / 1e3;
                push("shard.step_ms.p50", median(ms.clone()));
                push("shard.step_ms.max", ms.iter().copied().fold(0.0, f64::max));
                push(
                    "shard.step_growth",
                    ms.last().copied().unwrap_or(0.0) / ms.first().copied().unwrap_or(1.0),
                );
                let validate = s("shard.resume_validate");
                let assemble = s("shard.finish");
                push("shard.resume_validate_s", validate);
                push("shard.assemble_s", assemble);
                push("shard.records_merged", c("shard.records_merged"));
                let replay = c("checkpoint.step_replay_s");
                push("shard.step_checkpoint_share", replay / step_total);
                push("checkpoint.step_replay_s", replay);
                push("checkpoint.load_s", c("checkpoint.load_s"));
                push("checkpoint.encode_s", c("checkpoint.encode_s"));
                push("checkpoint.store_s", c("checkpoint.store_s"));
                push(
                    "checkpoint.manifest_final_bytes",
                    c("checkpoint.manifest_final_bytes"),
                );
                push("health.drift_findings", c("health.drift_findings"));
                push(
                    "trace.checkpoint_assemble_share",
                    (replay + validate + assemble) / wall,
                );
            }
        }
    }
    let rep_base = format!("median of {reps} traced repetitions");
    for (name, values) in per_run {
        let base = match name.as_str() {
            "campaign.probes"
            | "results.jsonl_bytes"
            | "shard.records_merged"
            | "health.drift_findings" => "per repetition".to_string(),
            "retry.attempts_per_probe" => "attempts per probe, all arms".to_string(),
            "retry.success_per_attempt" => "successful probes per attempt, all arms".to_string(),
            "session.reused_share" | "session.resumed_share" => {
                "share of session-arm probes (doh_session, doq_session)".to_string()
            }
            "shard.step_ms.p50" | "shard.step_ms.max" | "shard.step_growth" => {
                format!("{} serial advance(1) steps; {rep_base}", workload::SHARDS)
            }
            "shard.step_checkpoint_share" | "checkpoint.step_replay_s" => {
                "load_or_init + Manifest::store replayed per step, outside the steps".to_string()
            }
            "checkpoint.load_s" | "checkpoint.encode_s" | "checkpoint.store_s" => {
                "one call on the final manifest".to_string()
            }
            "checkpoint.manifest_final_bytes" => "final manifest file".to_string(),
            "trace.checkpoint_assemble_share" => {
                "(step_replay + resume_validate + finish self) / traced wall".to_string()
            }
            _ => rep_base.clone(),
        };
        l.rows.insert(name, (median(values), base));
    }
    if kind == Kind::Sharded {
        let c = |name: &str| {
            median(
                untraced
                    .iter()
                    .map(|i| i.counts.get(name).copied().unwrap_or(0.0))
                    .collect(),
            )
        };
        let base = "ShardedOutcome.run of the resumed run(2), per untraced repetition".to_string();
        l.rows.insert(
            "checkpoint.manifest_writes".into(),
            (c("checkpoint.manifest_writes"), base.clone()),
        );
        l.rows.insert(
            "checkpoint.manifest_bytes_written".into(),
            (c("checkpoint.manifest_bytes_written"), base),
        );
    }
    let (u, t) = (lower_quartile_pps(untraced), lower_quartile_pps(traced));
    l.rows.insert(
        "trace.untraced_probes_per_s".into(),
        (
            u,
            format!("lower quartile of {} untraced repetitions", untraced.len()),
        ),
    );
    l.rows.insert(
        "trace.traced_probes_per_s".into(),
        (t, format!("lower quartile of {reps} traced repetitions")),
    );
    l.rows.insert(
        "trace.overhead_share".into(),
        (u / t - 1.0, "untraced / traced probes_per_s - 1".into()),
    );

    for (name, value, base) in micro::run(&arms[0].campaign, kind.protocols(), seed) {
        l.rows.insert(name, (value, base));
    }
    l
}
