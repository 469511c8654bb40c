//! The probe engine: one `dig`-style measurement of one resolver from one
//! vantage point — exactly the paper's §3.2 procedure:
//!
//! 1. perform a DNS query over the encrypted transport, measuring the
//!    end-to-end response time (fresh connection, as `dig` does);
//! 2. issue an ICMP echo probe and record the round-trip latency.
//!
//! Besides DoH (the paper's focus) the engine speaks Do53, DoT and DoQ —
//! "our tool enables researchers to issue traditional DNS, DoT, and DoH
//! queries".

use bytes::Bytes;
use catalog::ResolverEntry;
use dns_wire::{base64url, Message, MessageBuilder, Name, Rcode, RecordType};
use netsim::faults::{FaultEffects, FaultPlan, FaultTarget};
use netsim::{icmp, Arena, Host, Path, SimDuration, SimRng, SimTime};
use obs::{Nanos, Phase, SpanLog};
use resolver_sim::{AuthorityTree, ProbeHealth, ResolverInstance};
use transport::{
    doh_headers, FaultHooks, H2Connection, H2Request, HeaderField, QuicConfig, QuicConnection,
    SessionTicket, TcpConfig, TcpConnection, TlsConfig, TlsServerBehavior, TlsSession,
    TransportErrorKind,
};

use crate::context::{DomainTemplate, PairContext};
use crate::errors::ProbeErrorKind;
use crate::population::{LoadModel, PairLoad, SitePick};
use crate::results::{ConnectionMode, ProbeOutcome, ProbeTimings, Protocol};
use crate::retry::{RetryInfo, RetryPolicy};
use crate::session::{SessionConfig, SessionState};

/// Deterministic client-side cost of building and encoding a DNS query:
/// a fixed setup term plus a per-byte term. Microsecond-scale, so it shows
/// up in the phase breakdown without moving the calibrated response-time
/// distributions; crucially it draws nothing from the RNG, so enabling the
/// phase accounting cannot perturb a seeded run.
pub(crate) fn encode_cost(wire_len: usize) -> SimDuration {
    SimDuration::from_nanos(2_000 + 25 * wire_len as u64)
}

/// Deterministic client-side cost of decoding and validating a DNS
/// response. Slightly above the encode cost: parsing walks unknown input.
fn decode_cost(wire_len: usize) -> SimDuration {
    SimDuration::from_nanos(3_000 + 35 * wire_len as u64)
}

/// Records a codec phase as a span and returns the advanced clock.
fn record_codec_span(log: &mut SpanLog, t0: Nanos, phase: Phase, cost: SimDuration) -> Nanos {
    log.enter(t0, phase.name());
    let t = t0 + cost.as_nanos();
    log.exit(t, phase.name());
    t
}

/// How a probe starts its transport. Non-session campaigns always start
/// [`WarmStart::Cold`]; a live session layer maps the pair's
/// [`ConnectionMode`] decision onto a warm start.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WarmStart {
    /// Fresh connection, full handshake — the legacy fresh-`dig` path.
    Cold,
    /// Fresh transport connect plus an abbreviated handshake: TLS 1.3
    /// ticket resumption on TCP transports, 0-RTT on QUIC.
    Resumed { ticket: SessionTicket },
    /// Connection pulled from the keepalive pool: no connect, no
    /// handshake; the TCP RTT estimator is re-seeded from the pooled hint.
    Reused {
        ticket: SessionTicket,
        srtt_hint: SimDuration,
    },
}

impl WarmStart {
    fn is_reused(self) -> bool {
        matches!(self, WarmStart::Reused { .. })
    }

    /// TCP + TLS establishment for the TCP-carried transports (DoH, DoT):
    /// cold pays the full handshake pair; resumed pays the TCP handshake
    /// plus the ticket-abbreviated TLS flight; reused touches the wire not
    /// at all (the pooled connection is reconstructed from metadata).
    /// Advances `t` past whatever was paid. When `self` is `Cold` this is
    /// call-for-call identical to the legacy connect + handshake sequence.
    fn tcp_tls_setup(
        self,
        path: &Path,
        hooks: FaultHooks,
        rng: &mut SimRng,
        t: &mut Nanos,
        log: &mut SpanLog,
    ) -> Result<(TcpConnection, SimDuration, SimDuration), ProbeOutcome> {
        let ticket = match self {
            WarmStart::Cold => None,
            WarmStart::Resumed { ticket } => Some(ticket),
            WarmStart::Reused { srtt_hint, .. } => {
                return Ok((
                    TcpConnection::resumed(TcpConfig::default(), srtt_hint),
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                ))
            }
        };
        let (mut tcp, connect) = match TcpConnection::connect_traced(
            path,
            hooks.refuse_connect,
            rng,
            TcpConfig::default(),
            *t,
            log,
        ) {
            Ok(ok) => ok,
            Err(e) => {
                return Err(ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: e.elapsed,
                })
            }
        };
        *t += connect.as_nanos();
        let tls = match TlsSession::handshake_traced(
            &mut tcp,
            path,
            TlsConfig::default(),
            hooks.tls_behavior,
            ticket,
            rng,
            *t,
            log,
        ) {
            Ok(s) => s,
            Err(e) => {
                return Err(ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: connect + e.elapsed,
                })
            }
        };
        *t += tls.handshake_time.as_nanos();
        Ok((tcp, connect, tls.handshake_time))
    }

    /// QUIC establishment: cold pays the combined handshake; resumed sends
    /// 0-RTT (no handshake flight, no RNG draws — the first stream flight
    /// is amplification-padded by the connection); reused rides an open
    /// pooled connection, which behaves like 0-RTT minus the padding.
    fn quic_setup(
        self,
        path: &Path,
        rng: &mut SimRng,
        t: &mut Nanos,
        log: &mut SpanLog,
    ) -> Result<(QuicConnection, SimDuration), ProbeOutcome> {
        match self {
            WarmStart::Cold => {
                match QuicConnection::connect_traced(path, QuicConfig::default(), rng, *t, log) {
                    Ok((quic, connect)) => {
                        *t += connect.as_nanos();
                        Ok((quic, connect))
                    }
                    Err(e) => Err(ProbeOutcome::Failure {
                        kind: e.into(),
                        elapsed: e.elapsed,
                    }),
                }
            }
            WarmStart::Resumed { ticket } => Ok((
                QuicConnection::resume_zero_rtt(path, QuicConfig::default(), ticket),
                SimDuration::ZERO,
            )),
            WarmStart::Reused { ticket, .. } => {
                let mut quic = QuicConnection::resume_zero_rtt(path, QuicConfig::default(), ticket);
                quic.zero_rtt = false;
                Ok((quic, SimDuration::ZERO))
            }
        }
    }
}

/// What one probe yields: the outcome, the paired ICMP round trip, retry
/// accounting (iff the policy is enabled) and the final attempt's
/// connection mode (iff a session layer is live — a warm probe whose
/// retry fell back cold reports `Cold`).
pub(crate) type ProbeRun = (
    ProbeOutcome,
    Option<SimDuration>,
    Option<RetryInfo>,
    Option<ConnectionMode>,
);

/// Where each attempt of a probe is served from. Every variant is
/// RNG-free: picking a site never moves the probe stream.
enum SiteSelect<'a> {
    /// The pair's unloaded route: one site and path for every attempt.
    Static { site: usize, path: &'a Path },
    /// Load-sensitive selection through the pair's precomputed
    /// [`PairLoad`]: an overloaded nearest site spills the vantage to the
    /// next-nearest, and the pick carries the site's offered load and the
    /// hash-based shed decision.
    Loaded {
        load: &'a mut PairLoad,
        model: &'a LoadModel,
    },
    /// The reference twin of `Loaded`: every pick is recomputed from the
    /// model by [`LoadModel::pick_reference`]; `path` holds the last one.
    LoadedReference {
        model: &'a LoadModel,
        client: &'a Host,
        is_home: bool,
        path: Option<Path>,
    },
}

impl SiteSelect<'_> {
    /// The serving site at `now`, its load state and the path to it.
    fn pick(
        &mut self,
        target: &ProbeTarget,
        ftarget: &FaultTarget<'_>,
        now: SimTime,
    ) -> (SitePick, &Path) {
        match self {
            SiteSelect::Static { site, path } => (
                SitePick {
                    site: *site,
                    offered_qps: 0.0,
                    shed: false,
                },
                path,
            ),
            SiteSelect::Loaded { load, model } => {
                let pick = load.pick(model, ftarget, now);
                (pick, load.path(pick.site))
            }
            SiteSelect::LoadedReference {
                model,
                client,
                is_home,
                path,
            } => {
                let (pick, picked) = model.pick_reference(target, client, *is_home, ftarget, now);
                (pick, path.insert(picked))
            }
        }
    }
}

/// One attempt as the driver hands it to a protocol exchange: the
/// transport start, the serving site, and the site's path and transport
/// hooks shaped by the attempt's health and fault effects.
struct Attempt {
    warm: WarmStart,
    now: SimTime,
    site: usize,
    path: Path,
    hooks: FaultHooks,
    health: ProbeHealth,
    effects: FaultEffects,
}

impl Attempt {
    /// Outage states and link-layer faults shape the path; refused
    /// connections, broken TLS and HTTP-level rate limiting become
    /// transport hooks. The rate limit surfaces as a 429 on HTTP-carried
    /// protocols; `serve` folds it into a SERVFAIL elsewhere.
    fn shape(
        warm: WarmStart,
        now: SimTime,
        site: usize,
        path: &Path,
        health: ProbeHealth,
        effects: FaultEffects,
    ) -> Attempt {
        let mut path = path.clone();
        if health == ProbeHealth::Blackholed || effects.link_down {
            path.extra_loss = 1.0;
        }
        if effects.extra_loss > 0.0 {
            path.extra_loss = (path.extra_loss + effects.extra_loss).min(1.0);
        }
        path.extra_latency_ms += effects.extra_latency_ms;
        let hooks = FaultHooks {
            refuse_connect: health == ProbeHealth::Refusing,
            tls_behavior: match health {
                ProbeHealth::TlsBroken => TlsServerBehavior::Stall,
                ProbeHealth::BadCertificate => TlsServerBehavior::BadCertificate,
                _ => TlsServerBehavior::Normal,
            },
            http_status_override: effects.rate_limited.then_some(429),
        };
        Attempt {
            warm,
            now,
            site,
            path,
            hooks,
            health,
            effects,
        }
    }
}

/// A resolver as seen by the prober: catalog metadata plus live simulated
/// state.
#[derive(Debug)]
pub struct ProbeTarget {
    /// Catalog metadata.
    pub entry: ResolverEntry,
    /// Simulated deployment (owns per-site caches and engines).
    pub instance: ResolverInstance,
}

impl ProbeTarget {
    /// Instantiates a target from a catalog entry.
    pub fn from_entry(entry: ResolverEntry) -> Self {
        let instance = entry.instantiate();
        ProbeTarget { entry, instance }
    }
}

/// Probe-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Protocol to measure.
    pub protocol: Protocol,
    /// ICMP echo timeout.
    pub ping_timeout: SimDuration,
    /// Use DoH GET (RFC 8484 §4.1) rather than POST.
    pub doh_get: bool,
    /// Pad queries to 128 octets (RFC 8467) on encrypted transports.
    pub padding: bool,
    /// Client retry schedule. [`RetryPolicy::none`] (the default) keeps
    /// the probe single-attempt and its output byte-identical to the
    /// pre-retry tool.
    pub retry: RetryPolicy,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            protocol: Protocol::DoH,
            ping_timeout: SimDuration::from_secs(1),
            doh_get: true,
            padding: true,
            retry: RetryPolicy::none(),
        }
    }
}

/// The probe engine. Holds the authoritative hierarchy all resolvers
/// recurse against.
#[derive(Debug)]
pub struct Prober {
    authorities: AuthorityTree,
}

impl Default for Prober {
    fn default() -> Self {
        Self::new()
    }
}

impl Prober {
    /// Creates a prober with the standard authority tree.
    pub fn new() -> Self {
        Prober {
            authorities: AuthorityTree::standard(),
        }
    }

    /// Creates a prober resolving against a custom authority tree (e.g.
    /// zones loaded from files via [`resolver_sim::zonefile`]).
    pub fn with_authorities(authorities: AuthorityTree) -> Self {
        Prober { authorities }
    }

    /// Runs one measurement: the DNS probe plus the paired ICMP ping.
    ///
    /// `is_home` marks residential vantage points, which some resolvers
    /// serve over worse peering (the catalog's `home_extra_ms`).
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &self,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        now: SimTime,
        is_home: bool,
        cfg: ProbeConfig,
        rng: &mut SimRng,
    ) -> (ProbeOutcome, Option<SimDuration>) {
        // A disabled log allocates nothing and costs one branch per
        // recording site, so the untraced path stays the hot path.
        let mut log = SpanLog::disabled();
        self.probe_traced(client, target, domain, now, is_home, cfg, rng, &mut log)
    }

    /// [`probe`](Self::probe) with span tracing: every phase of the probe
    /// is recorded into `log` as a span in simulated time. Tracing never
    /// touches the RNG, so a traced run produces bit-identical outcomes to
    /// an untraced one under the same seed.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_traced(
        &self,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        now: SimTime,
        is_home: bool,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> (ProbeOutcome, Option<SimDuration>) {
        let (outcome, ping, _) = self.probe_with_faults_traced(
            client,
            target,
            domain,
            now,
            is_home,
            cfg,
            &FaultPlan::EMPTY,
            rng,
            log,
        );
        (outcome, ping)
    }

    /// One measurement under a fault plan, with per-attempt retry
    /// accounting, through the per-probe reference path;
    /// [`probe`](Self::probe) is this with the empty plan.
    ///
    /// Each attempt re-resolves the plan at the attempt's start time and
    /// re-samples the resolver's health, so a transient window can end
    /// between attempts — that is exactly the recovery the paper's `dig`
    /// retries provide. The returned [`RetryInfo`] is `Some` iff the
    /// configured policy is [enabled](RetryPolicy::enabled).
    #[allow(clippy::too_many_arguments)]
    pub fn probe_with_faults(
        &self,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        now: SimTime,
        is_home: bool,
        cfg: ProbeConfig,
        faults: &FaultPlan,
        rng: &mut SimRng,
    ) -> (ProbeOutcome, Option<SimDuration>, Option<RetryInfo>) {
        let mut log = SpanLog::disabled();
        self.probe_with_faults_traced(
            client, target, domain, now, is_home, cfg, faults, rng, &mut log,
        )
    }

    /// [`probe_with_faults`](Self::probe_with_faults) with span tracing.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_with_faults_traced(
        &self,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        now: SimTime,
        is_home: bool,
        cfg: ProbeConfig,
        faults: &FaultPlan,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> (ProbeOutcome, Option<SimDuration>, Option<RetryInfo>) {
        let (outcome, ping, info, _) = self.probe_reference(
            client, target, domain, now, is_home, cfg, faults, None, None, rng, log,
        );
        (outcome, ping, info)
    }

    /// The per-probe reference path: routes the pair, matches the fault
    /// plan and builds every wire from scratch for each probe. A live
    /// `load` model recomputes each attempt's site from the model
    /// ([`LoadModel::pick_reference`]); a live `session` starts attempts
    /// warm. [`probe_pair`](Self::probe_pair) is held to this byte for
    /// byte by the differential suites.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_reference(
        &self,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        now: SimTime,
        is_home: bool,
        cfg: ProbeConfig,
        faults: &FaultPlan,
        load: Option<&LoadModel>,
        session: Option<(&mut SessionState, &SessionConfig)>,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeRun {
        let (site, mut path) = target.instance.route(client);
        if is_home {
            path.extra_latency_ms += target.entry.home_extra_ms;
        }
        let sites = match load {
            Some(model) => SiteSelect::LoadedReference {
                model,
                client,
                is_home,
                path: None,
            },
            None => SiteSelect::Static { site, path: &path },
        };
        let ftarget = FaultTarget {
            resolver: target.entry.hostname,
            region: target.entry.region(),
            vantage: &client.label,
        };
        Self::drive_probe(
            target,
            &ftarget,
            sites,
            session,
            now,
            cfg,
            rng,
            log,
            |t| faults.effects_at(t, &ftarget),
            |a, target, rng, log| self.dns_probe(a, client, target, domain, cfg, rng, log),
        )
    }

    /// One campaign probe over the pair's prebuilt [`PairContext`] — the
    /// fast path. Behaviour and RNG consumption are byte-identical to
    /// [`probe_reference`](Self::probe_reference): every hoisted quantity
    /// is RNG-free and every cached wire is a pure function of
    /// pair-constant inputs. A live `load` picks each attempt's site
    /// through the pair's [`PairLoad`]. Pinned by the `arena_differential`,
    /// `load_differential` and `session_differential` suites and the
    /// golden fixtures.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_pair(
        &self,
        ctx: &mut PairContext,
        load: Option<(&mut PairLoad, &LoadModel)>,
        session: Option<(&mut SessionState, &SessionConfig)>,
        target: &mut ProbeTarget,
        domain_idx: usize,
        now: SimTime,
        cfg: ProbeConfig,
        faults: &FaultPlan,
        rng: &mut SimRng,
    ) -> ProbeRun {
        let PairContext {
            client,
            site,
            path,
            ftarget,
            scope_mask,
            domains,
            arena,
        } = ctx;
        let tmpl = &mut domains[domain_idx];
        let sites = match load {
            Some((load, model)) => SiteSelect::Loaded { load, model },
            None => SiteSelect::Static { site: *site, path },
        };
        Self::drive_probe(
            target,
            ftarget,
            sites,
            session,
            now,
            cfg,
            rng,
            &mut SpanLog::disabled(),
            |t| faults.effects_at_masked(t, ftarget, scope_mask),
            |a, target, rng, log| self.dns_probe_ctx(a, client, target, tmpl, cfg, arena, rng, log),
        )
    }

    /// The one probe driver behind both entry points. `sites` says where
    /// each attempt is served from, `session` how its transport starts,
    /// and `exchange` runs the per-protocol exchange — the template-backed
    /// fast one or the from-scratch reference one.
    ///
    /// RNG order, which every golden fixture depends on: the paired ping,
    /// then the once-per-probe session-schedule draw, then per attempt
    /// fault effects → site pick and load overlay → health → session
    /// decision → exchange → session update. Site picks, load overlays
    /// and session decisions draw nothing from the probe stream.
    #[allow(clippy::too_many_arguments)]
    fn drive_probe(
        target: &mut ProbeTarget,
        ftarget: &FaultTarget<'_>,
        mut sites: SiteSelect<'_>,
        session: Option<(&mut SessionState, &SessionConfig)>,
        now: SimTime,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
        effects_at: impl Fn(SimTime) -> FaultEffects,
        mut exchange: impl FnMut(&Attempt, &mut ProbeTarget, &mut SimRng, &mut SpanLog) -> ProbeOutcome,
    ) -> ProbeRun {
        // Paired ICMP probe (§3.1 "Latency"). Pings travel the base path:
        // like the paper's tooling, the ICMP companion is a reachability
        // signal, not a fault-injection subject.
        let (_, ping_path) = sites.pick(target, ftarget, now);
        let ping = icmp::ping(ping_path, target.instance.icmp, cfg.ping_timeout, rng).rtt();
        match ping {
            Some(rtt) => log.instant(now.as_nanos() + rtt.as_nanos(), "icmp_echo_reply"),
            None => log.instant(now.as_nanos(), "icmp_filtered"),
        }

        // One schedule draw per probe, before any attempt: the stream
        // position is the probe ordinal, independent of outcomes.
        let mut session = session.map(|(state, scfg)| {
            let forced_cold = state.draw_forced_cold(scfg);
            (state, forced_cold)
        });
        let mut last_mode = None;
        let (outcome, info) = Self::run_attempts(cfg.retry, now, rng, |attempt_now, rng| {
            let mut effects = effects_at(attempt_now);
            let (pick, path) = sites.pick(target, ftarget, attempt_now);
            // A shed attempt rides the rate-limit machinery: HTTP 429 on
            // DoH, SERVFAIL on the bare transports.
            effects.offered_load_qps = pick.offered_qps;
            effects.rate_limited |= pick.shed;
            let health = Self::effective_health(target, attempt_now, &effects, rng);
            let warm = match &mut session {
                Some((state, forced_cold)) => {
                    let healthy = Self::connection_healthy(health, &effects);
                    let mode =
                        state.decide(attempt_now, cfg.protocol, pick.site, healthy, *forced_cold);
                    last_mode = Some(mode);
                    Self::warm_start(state, mode)
                }
                None => WarmStart::Cold,
            };
            let attempt = Attempt::shape(warm, attempt_now, pick.site, path, health, effects);
            let outcome = exchange(&attempt, target, rng, log);
            if let (Some((state, _)), Some(mode)) = (&mut session, last_mode) {
                Self::update_session(state, cfg.retry, &attempt, cfg.protocol, mode, &outcome);
            }
            outcome
        });
        (outcome, ping, info, last_mode)
    }

    /// Samples the resolver's health for one attempt and applies the
    /// plan-driven overrides: an injected site outage blackholes the
    /// service outright; an expired certificate surfaces unless the
    /// service is unreachable anyway.
    fn effective_health(
        target: &ProbeTarget,
        attempt_now: SimTime,
        effects: &FaultEffects,
        rng: &mut SimRng,
    ) -> ProbeHealth {
        let mut health = target.instance.sample_health_at(attempt_now, rng);
        if effects.site_outage {
            health = ProbeHealth::Blackholed;
        } else if effects.bad_certificate && health != ProbeHealth::Blackholed {
            health = ProbeHealth::BadCertificate;
        }
        health
    }

    /// The per-probe retry loop of [`drive_probe`](Self::drive_probe):
    /// runs `attempt` under `policy`, accumulating elapsed time and backoff
    /// waits so later attempts see later fault-plan windows.
    fn run_attempts(
        policy: RetryPolicy,
        now: SimTime,
        rng: &mut SimRng,
        mut attempt: impl FnMut(SimTime, &mut SimRng) -> ProbeOutcome,
    ) -> (ProbeOutcome, Option<RetryInfo>) {
        let mut attempts = 0u32;
        let mut attempt_errors: Vec<ProbeErrorKind> = Vec::new();
        // Simulated time since probe start: failed attempts and backoff
        // waits accumulate here, so retries see later plan windows.
        let mut offset = SimDuration::ZERO;
        let mut prev_backoff = SimDuration::ZERO;

        loop {
            attempts += 1;
            let attempt_now = now + offset;
            let outcome = attempt(attempt_now, rng);

            // Apply the per-attempt timeout: a "successful" exchange that
            // outlives the client's patience is a timeout from the
            // client's point of view, exactly as with `dig`.
            let attempt_result = match outcome {
                ProbeOutcome::Success { timings, .. }
                    if policy
                        .attempt_timeout
                        .is_some_and(|to| timings.total() > to) =>
                {
                    Err((
                        ProbeErrorKind::QueryTimeout,
                        // detlint:allow(unwrap, the match guard checked attempt_timeout is Some)
                        policy.attempt_timeout.expect("guard checked"),
                    ))
                }
                ProbeOutcome::Success {
                    timings,
                    cache_hit,
                    site,
                } => Ok((timings, cache_hit, site)),
                ProbeOutcome::Failure { kind, elapsed } => {
                    let spent = match policy.attempt_timeout {
                        Some(to) => elapsed.min(to),
                        None => elapsed,
                    };
                    Err((kind, spent))
                }
            };

            match attempt_result {
                Ok((timings, cache_hit, site)) => {
                    let ttlb = offset + timings.total();
                    let info = RetryInfo {
                        attempts,
                        attempt_errors,
                        ttfb: ttlb.saturating_sub(timings.dns_decode),
                        ttlb,
                    };
                    return (
                        ProbeOutcome::Success {
                            timings,
                            cache_hit,
                            site,
                        },
                        policy.enabled().then_some(info),
                    );
                }
                Err((kind, spent)) => {
                    attempt_errors.push(kind);
                    if attempts >= policy.tries {
                        let elapsed = offset + spent;
                        let info = RetryInfo {
                            attempts,
                            attempt_errors,
                            ttfb: elapsed,
                            ttlb: elapsed,
                        };
                        return (
                            ProbeOutcome::Failure { kind, elapsed },
                            policy.enabled().then_some(info),
                        );
                    }
                    // Burned attempt plus the (possibly jittered) wait.
                    prev_backoff = policy.backoff_after(attempts, prev_backoff, rng);
                    offset = offset + spent + prev_backoff;
                }
            }
        }
    }

    /// True when the sampled health and fault effects would let a client
    /// establish (or keep) a transport connection. Any connection-layer
    /// fault — blackhole/outage, refused, broken TLS, expired certificate,
    /// link down — invalidates all warm session state before the attempt
    /// runs. `HttpError` is connection-healthy: the transport works, only
    /// the application layer misbehaves, so warm connections survive it.
    fn connection_healthy(health: ProbeHealth, effects: &FaultEffects) -> bool {
        !(matches!(
            health,
            ProbeHealth::Blackholed
                | ProbeHealth::Refusing
                | ProbeHealth::TlsBroken
                | ProbeHealth::BadCertificate
        ) || effects.link_down)
    }

    /// Maps the session layer's decision onto the transport start. Ticket
    /// identities never influence timing (the TLS model distinguishes only
    /// `Some`/`None`), so the zero ticket stands in for a pooled QUIC
    /// connection that outlived its ticket.
    fn warm_start(session: &SessionState, mode: ConnectionMode) -> WarmStart {
        match mode {
            ConnectionMode::Cold => WarmStart::Cold,
            ConnectionMode::Resumed => WarmStart::Resumed {
                ticket: session.ticket().unwrap_or(SessionTicket { id: 0 }),
            },
            ConnectionMode::Reused => WarmStart::Reused {
                ticket: session.ticket().unwrap_or(SessionTicket { id: 0 }),
                srtt_hint: session.pool_srtt_hint().unwrap_or(SimDuration::ZERO),
            },
        }
    }

    /// Applies one attempt's outcome to the session state, mirroring
    /// [`run_attempts`](Self::run_attempts)' attempt-timeout conversion: an
    /// exchange that outlives the client's patience is a failure from the
    /// client's point of view, and the client tears the connection down
    /// with it.
    fn update_session(
        session: &mut SessionState,
        policy: RetryPolicy,
        attempt: &Attempt,
        protocol: Protocol,
        mode: ConnectionMode,
        outcome: &ProbeOutcome,
    ) {
        match outcome {
            ProbeOutcome::Success { timings, .. }
                if policy
                    .attempt_timeout
                    .is_none_or(|to| timings.total() <= to) =>
            {
                session.on_success(attempt.now, protocol, attempt.site, mode, timings.connect);
            }
            _ => session.on_failure(),
        }
    }

    /// Context-path twin of [`dns_probe`](Self::dns_probe), dispatching
    /// the shaped attempt to the template-backed protocol probes. ODoH
    /// falls through to the reference path — its per-probe KEM entropy
    /// draw leaves nothing pair-constant to hoist.
    #[allow(clippy::too_many_arguments)]
    fn dns_probe_ctx(
        &self,
        a: &Attempt,
        client: &Host,
        target: &mut ProbeTarget,
        tmpl: &mut DomainTemplate,
        cfg: ProbeConfig,
        arena: &mut Arena,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        match cfg.protocol {
            Protocol::DoH => self.doh_probe_ctx(a, target, tmpl, arena, rng, log),
            Protocol::DoT => self.dot_probe_ctx(a, target, tmpl, arena, rng, log),
            Protocol::Do53 => self.do53_probe_ctx(a, target, tmpl, arena, rng, log),
            Protocol::DoQ => self.doq_probe_ctx(a, target, tmpl, arena, rng, log),
            Protocol::ODoH => self.odoh_probe(a, client, target, &tmpl.name, cfg, rng, log),
        }
    }

    /// [`serve`](Self::serve) against the pair's response-variant cache:
    /// the resolver engine runs exactly as on the reference path (same RNG
    /// draws), but the response message is only *assembled and encoded*
    /// the first time each (shed, rcode, answers) shape appears. Returns
    /// the variant index instead of wire bytes.
    fn serve_cached(
        &self,
        target: &mut ProbeTarget,
        tmpl: &mut DomainTemplate,
        a: &Attempt,
        http_layer: bool,
        rng: &mut SimRng,
        arena: &mut Arena,
    ) -> (SimDuration, bool, usize) {
        let (server_time, resolution) = target.instance.server_mut(a.site).handle_query_loaded(
            &tmpl.name,
            RecordType::A,
            &self.authorities,
            a.now,
            a.effects.slowdown,
            a.effects.offered_load_qps,
            rng,
        );
        let shed = a.effects.servfail || (!http_layer && a.effects.rate_limited);
        let rcode = if shed {
            Rcode::ServFail
        } else {
            resolution.rcode
        };
        let variant = match tmpl.find_variant(shed, rcode, &resolution.records) {
            Some(i) => i,
            None => tmpl.add_variant(shed, rcode, resolution.records, arena),
        };
        (server_time, resolution.cache_hit, variant)
    }

    /// [`doh_probe`](Self::doh_probe) over cached wire lengths: the query
    /// encode, DoH URL, HPACK request frames and response frames are all
    /// template lookups; the transport legs (the only RNG consumers) run
    /// unchanged with identical byte counts, so outcomes and span traces
    /// are byte-identical to the reference path.
    fn doh_probe_ctx(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        tmpl: &mut DomainTemplate,
        arena: &mut Arena,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        let dns_encode = tmpl.dns_encode;
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);

        let (mut tcp, connect, tls_time) =
            match a.warm.tcp_tls_setup(&a.path, a.hooks, rng, &mut t, log) {
                Ok(ok) => ok,
                Err(fail) => return fail,
            };

        let (server_time, cache_hit, variant) =
            self.serve_cached(target, tmpl, a, true, rng, arena);
        let base_status = if a.health == ProbeHealth::HttpError {
            500
        } else {
            200
        };
        let http_status = a.hooks.http_status(base_status);
        // detlint:allow(unwrap, dns_probe_ctx only dispatches DoH when the template was built for DoH)
        let doh = tmpl.doh.as_ref().expect("DoH template");
        // A follow-up request on a kept-alive connection skips the preface
        // and benefits from warm HPACK state; the response length is
        // stream-id-independent, so the cold cache serves both.
        let req_len = if a.warm.is_reused() {
            doh.req_len_reused
        } else {
            doh.req_len
        };
        let resp_len = tmpl.resp_len_for(variant, http_status);

        // Both the HTTP/1.1 and HTTP/2 reference branches bottom out in
        // this same traced TCP exchange with the same span pattern; only
        // the byte counts differ, and those are cached above.
        let out =
            match tcp.request_response_traced(&a.path, req_len, resp_len, server_time, rng, t, log)
            {
                Ok(out) => out,
                Err(e) => {
                    return ProbeOutcome::Failure {
                        kind: e.into(),
                        elapsed: connect + tls_time + e.elapsed,
                    }
                }
            };
        let query_time = out.elapsed;
        t += query_time.as_nanos();

        let body_len = tmpl.variants[variant].dns_response.len();
        let dns_decode = decode_cost(body_len);
        record_codec_span(log, t, Phase::DnsDecode, dns_decode);
        let timings = ProbeTimings::from_legs(
            dns_encode,
            connect,
            tls_time,
            query_time,
            server_time,
            dns_decode,
        );
        if http_status != 200 {
            return ProbeOutcome::Failure {
                kind: if http_status == 429 {
                    ProbeErrorKind::RateLimited
                } else {
                    ProbeErrorKind::HttpStatus
                },
                elapsed: timings.total(),
            };
        }
        match tmpl.variants[variant].decoded_rcode {
            Some(rcode) => Self::check_rcode(rcode, timings, cache_hit, a.site),
            None => ProbeOutcome::Failure {
                kind: ProbeErrorKind::DnsError,
                elapsed: timings.total(),
            },
        }
    }

    /// [`dot_probe`](Self::dot_probe) over the query template. The RFC
    /// 7858 length-prefix framing adds exactly 2 octets per message, so
    /// the framed sizes are computed without materializing the frames.
    fn dot_probe_ctx(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        tmpl: &mut DomainTemplate,
        arena: &mut Arena,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        let dns_encode = tmpl.dns_encode;
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);

        let (mut tcp, connect, tls_time) =
            match a.warm.tcp_tls_setup(&a.path, a.hooks, rng, &mut t, log) {
                Ok(ok) => ok,
                Err(fail) => return fail,
            };
        let (server_time, cache_hit, variant) =
            self.serve_cached(target, tmpl, a, false, rng, arena);
        if a.health == ProbeHealth::HttpError {
            let out = tcp.request_response_traced(
                &a.path,
                2 + tmpl.query_wire.len(),
                2 + 12,
                server_time,
                rng,
                t,
                log,
            );
            return match out {
                Ok(o) => ProbeOutcome::Failure {
                    kind: ProbeErrorKind::DnsError,
                    elapsed: connect + tls_time + o.elapsed,
                },
                Err(e) => ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: connect + tls_time + e.elapsed,
                },
            };
        }
        let resp_len = tmpl.variants[variant].dns_response.len();
        match tcp.request_response_traced(
            &a.path,
            2 + tmpl.query_wire.len(),
            2 + resp_len,
            server_time,
            rng,
            t,
            log,
        ) {
            Ok(out) => {
                t += out.elapsed.as_nanos();
                let dns_decode = decode_cost(resp_len);
                record_codec_span(log, t, Phase::DnsDecode, dns_decode);
                let timings = ProbeTimings::from_legs(
                    dns_encode,
                    connect,
                    tls_time,
                    out.elapsed,
                    server_time,
                    dns_decode,
                );
                Self::check_rcode(tmpl.variants[variant].rcode, timings, cache_hit, a.site)
            }
            Err(e) => ProbeOutcome::Failure {
                kind: e.into(),
                elapsed: connect + tls_time + e.elapsed,
            },
        }
    }

    /// [`do53_probe`](Self::do53_probe) over the query template.
    fn do53_probe_ctx(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        tmpl: &mut DomainTemplate,
        arena: &mut Arena,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        let dead = matches!(
            a.health,
            ProbeHealth::Refusing | ProbeHealth::TlsBroken | ProbeHealth::BadCertificate
        );
        let mut path = a.path.clone();
        if dead {
            path.extra_loss = 1.0;
        }
        let dns_encode = tmpl.dns_encode;
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);
        let (server_time, cache_hit, variant) =
            self.serve_cached(target, tmpl, a, false, rng, arena);
        let resp_len = tmpl.variants[variant].dns_response.len();
        let policy = RetryPolicy::dig_defaults().as_flight_policy();
        match transport::exchange_traced(
            &path,
            tmpl.query_wire.len(),
            resp_len,
            server_time,
            policy,
            TransportErrorKind::RequestTimeout,
            rng,
            t,
            log,
        ) {
            Ok(out) => {
                t += out.elapsed.as_nanos();
                let dns_decode = decode_cost(resp_len);
                record_codec_span(log, t, Phase::DnsDecode, dns_decode);
                let timings = ProbeTimings::from_legs(
                    dns_encode,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    out.elapsed,
                    server_time,
                    dns_decode,
                );
                if a.health == ProbeHealth::HttpError {
                    return ProbeOutcome::Failure {
                        kind: ProbeErrorKind::DnsError,
                        elapsed: timings.total(),
                    };
                }
                Self::check_rcode(tmpl.variants[variant].rcode, timings, cache_hit, a.site)
            }
            Err(e) => ProbeOutcome::Failure {
                kind: ProbeErrorKind::QueryTimeout,
                elapsed: e.elapsed,
            },
        }
    }

    /// [`doq_probe`](Self::doq_probe) over the query template.
    fn doq_probe_ctx(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        tmpl: &mut DomainTemplate,
        arena: &mut Arena,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        if a.hooks.refuse_connect {
            let rtt = a
                .path
                .sample_rtt(1200, 60, rng)
                .unwrap_or(SimDuration::from_millis(300));
            log.instant(a.now.as_nanos() + rtt.as_nanos(), "connection_refused");
            return ProbeOutcome::Failure {
                kind: ProbeErrorKind::ConnectionRefused,
                elapsed: rtt,
            };
        }
        let dns_encode = tmpl.dns_encode;
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);
        let (mut quic, connect) = match a.warm.quic_setup(&a.path, rng, &mut t, log) {
            Ok(ok) => ok,
            Err(fail) => return fail,
        };
        if a.hooks.tls_behavior == TlsServerBehavior::BadCertificate {
            // QUIC folds TLS 1.3 into its handshake: the certificate
            // arrives with the combined connect flight, so the client pays
            // the connect round trip and then aborts — same shape as the
            // TCP-carried transports.
            log.instant(t, "certificate_rejected");
            return ProbeOutcome::Failure {
                kind: ProbeErrorKind::CertificateError,
                elapsed: connect,
            };
        }
        let (server_time, cache_hit, variant) =
            self.serve_cached(target, tmpl, a, false, rng, arena);
        let resp_len = tmpl.variants[variant].dns_response.len();
        match quic.stream_exchange_traced(
            &a.path,
            2 + tmpl.query_wire.len(),
            2 + resp_len,
            server_time,
            rng,
            t,
            log,
        ) {
            Ok(out) => {
                t += out.elapsed.as_nanos();
                let dns_decode = decode_cost(resp_len);
                record_codec_span(log, t, Phase::DnsDecode, dns_decode);
                let timings = ProbeTimings::from_legs(
                    dns_encode,
                    connect,
                    SimDuration::ZERO,
                    out.elapsed,
                    server_time,
                    dns_decode,
                );
                if a.health == ProbeHealth::HttpError {
                    return ProbeOutcome::Failure {
                        kind: ProbeErrorKind::DnsError,
                        elapsed: timings.total(),
                    };
                }
                Self::check_rcode(tmpl.variants[variant].rcode, timings, cache_hit, a.site)
            }
            Err(e) => ProbeOutcome::Failure {
                kind: e.into(),
                elapsed: connect + e.elapsed,
            },
        }
    }

    /// Dispatches the shaped attempt to the from-scratch protocol probes.
    #[allow(clippy::too_many_arguments)]
    fn dns_probe(
        &self,
        a: &Attempt,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        match cfg.protocol {
            Protocol::DoH => self.doh_probe(a, target, domain, cfg, rng, log),
            Protocol::DoT => self.dot_probe(a, target, domain, cfg, rng, log),
            Protocol::Do53 => self.do53_probe(a, target, domain, cfg, rng, log),
            Protocol::DoQ => self.doq_probe(a, target, domain, cfg, rng, log),
            Protocol::ODoH => self.odoh_probe(a, client, target, domain, cfg, rng, log),
        }
    }

    /// Builds the query message (id 0 per RFC 8484 cache friendliness).
    pub(crate) fn build_query(&self, domain: &Name, cfg: ProbeConfig, encrypted: bool) -> Message {
        let mut b = MessageBuilder::query(
            if encrypted { 0 } else { 0x2b2b },
            domain.clone(),
            RecordType::A,
        )
        .recursion_desired(true)
        .edns_udp_size(1232);
        if cfg.padding && encrypted {
            b = b.padding_to(128);
        }
        b.build()
    }

    /// Runs the server side and builds the DNS response message bytes.
    ///
    /// `http_layer` says whether the carrying protocol has an HTTP layer:
    /// there an injected rate limit surfaces as a 429 before any DNS
    /// payload matters, while on bare transports (Do53/DoT/DoQ) the
    /// overloaded frontend sheds load by answering SERVFAIL instead.
    fn serve(
        &self,
        target: &mut ProbeTarget,
        query: &Message,
        domain: &Name,
        a: &Attempt,
        http_layer: bool,
        rng: &mut SimRng,
    ) -> (SimDuration, bool, Rcode, Vec<u8>) {
        let (server_time, resolution) = target.instance.server_mut(a.site).handle_query_loaded(
            domain,
            RecordType::A,
            &self.authorities,
            a.now,
            a.effects.slowdown,
            a.effects.offered_load_qps,
            rng,
        );
        let shed = a.effects.servfail || (!http_layer && a.effects.rate_limited);
        let rcode = if shed {
            Rcode::ServFail
        } else {
            resolution.rcode
        };
        let mut response = MessageBuilder::response_to(query, rcode)
            .recursion_available(true)
            .build();
        if !shed {
            for rdata in &resolution.records {
                response.answers.push(dns_wire::ResourceRecord::new(
                    domain.clone(),
                    300,
                    rdata.clone(),
                ));
            }
        }
        // detlint:allow(unwrap, responses assembled by the simulated resolver are well-formed)
        let wire = response.encode().expect("response encodes");
        (server_time, resolution.cache_hit, rcode, wire)
    }

    fn check_rcode(
        rcode: Rcode,
        timings: ProbeTimings,
        cache_hit: bool,
        site: usize,
    ) -> ProbeOutcome {
        if rcode.is_success() {
            ProbeOutcome::Success {
                timings,
                cache_hit,
                site,
            }
        } else {
            ProbeOutcome::Failure {
                kind: ProbeErrorKind::DnsError,
                elapsed: timings.total(),
            }
        }
    }

    fn doh_probe(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        domain: &Name,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        // Encode the query first: the phase timeline starts with the
        // client-side codec work. Building the message draws no randomness,
        // so hoisting it above the transport legs leaves the RNG stream —
        // and therefore every calibrated distribution — untouched.
        let query = self.build_query(domain, cfg, true);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        let dns_encode = encode_cost(query_wire.len());
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);

        // TCP + TLS (skipped entirely on a pooled connection).
        let (mut tcp, connect, tls_time) =
            match a.warm.tcp_tls_setup(&a.path, a.hooks, rng, &mut t, log) {
                Ok(ok) => ok,
                Err(fail) => return fail,
            };

        // Build the HTTP/2 request with real wire bytes.
        let (http_path, body) = if cfg.doh_get {
            (
                format!(
                    "{}?dns={}",
                    target.entry.doh_path,
                    base64url::encode(&query_wire)
                ),
                Bytes::new(),
            )
        } else {
            (
                target.entry.doh_path.to_string(),
                Bytes::from(query_wire.clone()),
            )
        };
        let req = H2Request {
            headers: doh_headers(target.entry.hostname, &http_path, !cfg.doh_get, body.len()),
            body,
        };

        // Server side. The authoritative rcode travels inside the encoded
        // response; the client re-derives it by decoding the HTTP body.
        let (server_time, cache_hit, _rcode, dns_response) =
            self.serve(target, &query, domain, a, true, rng);
        let base_status = if a.health == ProbeHealth::HttpError {
            500
        } else {
            200
        };
        let http_status = a.hooks.http_status(base_status);
        let content_type = HeaderField::new("content-type", "application/dns-message");

        // HTTP/1.1-only servers don't offer h2 in their ALPN; the client
        // falls back to serialised HTTP/1.1 over the same TLS connection.
        let (status, body, query_time) = if target.entry.http1_only {
            let req_wire = transport::h1_encode_request(&req.headers, &req.body);
            let resp_wire =
                transport::h1_encode_response(http_status, &[content_type], &dns_response);
            let out = match tcp.request_response_traced(
                &a.path,
                req_wire.len(),
                resp_wire.len(),
                server_time,
                rng,
                t,
                log,
            ) {
                Ok(out) => out,
                Err(e) => {
                    return ProbeOutcome::Failure {
                        kind: e.into(),
                        elapsed: connect + tls_time + e.elapsed,
                    }
                }
            };
            match transport::h1_parse_response(&resp_wire) {
                Ok(resp) => (resp.status, resp.body, out.elapsed),
                Err(e) => {
                    return ProbeOutcome::Failure {
                        kind: e.into(),
                        elapsed: connect + tls_time + out.elapsed,
                    }
                }
            }
        } else {
            let mut h2 = H2Connection::new();
            if a.warm.is_reused() {
                // A pooled connection already carried one request: burn an
                // encode so the HPACK tables are warm and the preface is
                // spent — the round trip below then produces exactly the
                // follow-up request the fast path's `req_len_reused` cached.
                let _ = h2.encode_request(&req);
            }
            let result = h2.round_trip_traced(
                &mut tcp,
                &a.path,
                &req,
                |sid, enc| {
                    H2Connection::encode_response(
                        enc,
                        sid,
                        http_status,
                        std::slice::from_ref(&content_type),
                        &dns_response,
                    )
                },
                server_time,
                rng,
                t,
                log,
            );
            match result {
                Ok((resp, elapsed)) => (resp.status, resp.body, elapsed),
                Err(e) => {
                    return ProbeOutcome::Failure {
                        kind: e.into(),
                        elapsed: connect + tls_time + e.elapsed,
                    }
                }
            }
        };
        t += query_time.as_nanos();

        let dns_decode = decode_cost(body.len());
        record_codec_span(log, t, Phase::DnsDecode, dns_decode);
        let timings = ProbeTimings::from_legs(
            dns_encode,
            connect,
            tls_time,
            query_time,
            server_time,
            dns_decode,
        );
        if status != 200 {
            return ProbeOutcome::Failure {
                kind: if status == 429 {
                    ProbeErrorKind::RateLimited
                } else {
                    ProbeErrorKind::HttpStatus
                },
                elapsed: timings.total(),
            };
        }
        // Decode and validate the DNS payload.
        match Message::decode(&body) {
            Ok(msg) => Self::check_rcode(msg.rcode(), timings, cache_hit, a.site),
            Err(_) => ProbeOutcome::Failure {
                kind: ProbeErrorKind::DnsError,
                elapsed: timings.total(),
            },
        }
    }

    fn dot_probe(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        domain: &Name,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        let query = self.build_query(domain, cfg, true);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        let dns_encode = encode_cost(query_wire.len());
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);

        let (mut tcp, connect, tls_time) =
            match a.warm.tcp_tls_setup(&a.path, a.hooks, rng, &mut t, log) {
                Ok(ok) => ok,
                Err(fail) => return fail,
            };
        let (server_time, cache_hit, rcode, dns_response) =
            self.serve(target, &query, domain, a, false, rng);
        if a.health == ProbeHealth::HttpError {
            // DoT has no HTTP layer; the analogous failure is a ServFail.
            let out = tcp.request_response_traced(
                &a.path,
                2 + query_wire.len(),
                2 + 12,
                server_time,
                rng,
                t,
                log,
            );
            return match out {
                Ok(o) => ProbeOutcome::Failure {
                    kind: ProbeErrorKind::DnsError,
                    elapsed: connect + tls_time + o.elapsed,
                },
                Err(e) => ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: connect + tls_time + e.elapsed,
                },
            };
        }
        // RFC 7858: each DNS message is TCP-framed with a length prefix.
        // detlint:allow(unwrap, probe queries are far below the 64 KiB TCP framing limit)
        let framed_query = dns_wire::tcp_frame::frame(&query_wire).expect("query frames");
        // detlint:allow(unwrap, simulated responses are far below the 64 KiB TCP framing limit)
        let framed_response = dns_wire::tcp_frame::frame(&dns_response).expect("response frames");
        match tcp.request_response_traced(
            &a.path,
            framed_query.len(),
            framed_response.len(),
            server_time,
            rng,
            t,
            log,
        ) {
            Ok(out) => {
                t += out.elapsed.as_nanos();
                let dns_decode = decode_cost(dns_response.len());
                record_codec_span(log, t, Phase::DnsDecode, dns_decode);
                let timings = ProbeTimings::from_legs(
                    dns_encode,
                    connect,
                    tls_time,
                    out.elapsed,
                    server_time,
                    dns_decode,
                );
                Self::check_rcode(rcode, timings, cache_hit, a.site)
            }
            Err(e) => ProbeOutcome::Failure {
                kind: e.into(),
                elapsed: connect + tls_time + e.elapsed,
            },
        }
    }

    fn do53_probe(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        domain: &Name,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        // Plain DNS has no connection; refused/TLS failures manifest as
        // silence (dig retries then times out).
        let dead = matches!(
            a.health,
            ProbeHealth::Refusing | ProbeHealth::TlsBroken | ProbeHealth::BadCertificate
        );
        let mut path = a.path.clone();
        if dead {
            path.extra_loss = 1.0;
        }
        let query = self.build_query(domain, cfg, false);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        let dns_encode = encode_cost(query_wire.len());
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);
        let (server_time, cache_hit, rcode, dns_response) =
            self.serve(target, &query, domain, a, false, rng);
        // The datagram-level retransmit schedule is `dig`'s: one home for
        // the constants, shared with the probe-level retry layer.
        let policy = RetryPolicy::dig_defaults().as_flight_policy();
        match transport::exchange_traced(
            &path,
            query_wire.len(),
            dns_response.len(),
            server_time,
            policy,
            TransportErrorKind::RequestTimeout,
            rng,
            t,
            log,
        ) {
            Ok(out) => {
                t += out.elapsed.as_nanos();
                let dns_decode = decode_cost(dns_response.len());
                record_codec_span(log, t, Phase::DnsDecode, dns_decode);
                let timings = ProbeTimings::from_legs(
                    dns_encode,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    out.elapsed,
                    server_time,
                    dns_decode,
                );
                if a.health == ProbeHealth::HttpError {
                    return ProbeOutcome::Failure {
                        kind: ProbeErrorKind::DnsError,
                        elapsed: timings.total(),
                    };
                }
                Self::check_rcode(rcode, timings, cache_hit, a.site)
            }
            Err(e) => ProbeOutcome::Failure {
                kind: ProbeErrorKind::QueryTimeout,
                elapsed: e.elapsed,
            },
        }
    }

    /// Oblivious DoH (RFC 9230): the query is sealed to the target's key
    /// and carried through a relay. The client pays a cold DoH transaction
    /// to its nearest relay plus one relay→target round trip (relays hold
    /// warm connections to targets) plus the target's processing.
    #[allow(clippy::too_many_arguments)]
    fn odoh_probe(
        &self,
        a: &Attempt,
        client: &Host,
        target: &mut ProbeTarget,
        domain: &Name,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        use dns_wire::odoh;
        use netsim::AccessProfile;

        let relay = catalog::relays::nearest_relay(&client.location);
        // Client → relay leg inherits the client's access network.
        let client_relay = Path::between(
            client.location,
            client.access,
            relay.city.point,
            AccessProfile::datacenter(),
        );
        // Relay → target leg between datacenters; target outages blackhole it.
        let target_city = target.instance.servers[a.site].location();
        let mut relay_target = Path::between(
            relay.city.point,
            AccessProfile::datacenter(),
            target_city.point,
            AccessProfile::datacenter(),
        );
        if a.health == ProbeHealth::Blackholed {
            relay_target.extra_loss = 1.0;
        }

        // Seal the query to the target's key configuration.
        let key = odoh::TargetKey::from_seed(netsim::rng::derive_seed(
            0x0D0A_0D0A,
            target.entry.hostname,
        ));
        let query = self.build_query(domain, cfg, true);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        let kem_entropy = (rng.uniform() * u64::MAX as f64) as u64;
        let sealed_query = odoh::seal_query(&key, &query_wire, kem_entropy);
        // detlint:allow(unwrap, sealed ODoH messages built here are well-formed by construction)
        let sealed_query_wire = sealed_query.encode().expect("odoh encodes");
        // The encode phase covers building the query and sealing it to the
        // target's key (the sealed message is what goes on the wire).
        let dns_encode = encode_cost(sealed_query_wire.len());
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);

        // Connect to the relay (TCP + TLS).
        let refused_relay = false; // relays are modelled reliable
        let (mut tcp, connect) = match TcpConnection::connect_traced(
            &client_relay,
            refused_relay,
            rng,
            TcpConfig::default(),
            t,
            log,
        ) {
            Ok(ok) => ok,
            Err(e) => {
                return ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: e.elapsed,
                }
            }
        };
        t += connect.as_nanos();
        let tls_behavior = TlsServerBehavior::Normal;
        let tls = match TlsSession::handshake_traced(
            &mut tcp,
            &client_relay,
            TlsConfig::default(),
            tls_behavior,
            None,
            rng,
            t,
            log,
        ) {
            Ok(s) => s,
            Err(e) => {
                return ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: connect + e.elapsed,
                }
            }
        };
        t += tls.handshake_time.as_nanos();

        // Target side: resolve and seal the response. The rcode reaches
        // the client inside the sealed response.
        let (server_time, cache_hit, _rcode, dns_response) =
            self.serve(target, &query, domain, a, true, rng);
        let (_plain, kem) = match odoh::open_query(&key, &sealed_query) {
            Ok(ok) => ok,
            Err(_) => {
                return ProbeOutcome::Failure {
                    kind: ProbeErrorKind::DnsError,
                    elapsed: connect + tls.handshake_time,
                }
            }
        };
        let sealed_response = odoh::seal_response(&key, &kem, &dns_response);
        // detlint:allow(unwrap, sealed ODoH messages built here are well-formed by construction)
        let sealed_response_wire = sealed_response.encode().expect("odoh encodes");

        // Relay forwards over its warm target connection: one round trip.
        let relay_forward =
            match relay_target.sample_rtt(sealed_query_wire.len(), sealed_response_wire.len(), rng)
            {
                Some(rtt) => rtt + server_time,
                None => {
                    // Relay retries once, then reports 502 to the client after
                    // a 2-second upstream timeout.
                    match relay_target.sample_rtt(
                        sealed_query_wire.len(),
                        sealed_response_wire.len(),
                        rng,
                    ) {
                        Some(rtt) => SimDuration::from_secs(2) + rtt + server_time,
                        None => {
                            let elapsed = connect + tls.handshake_time + SimDuration::from_secs(4);
                            return ProbeOutcome::Failure {
                                kind: ProbeErrorKind::HttpStatus,
                                elapsed,
                            };
                        }
                    }
                }
            };

        // Client ↔ relay HTTP exchange, with the relay's forwarding time as
        // its "server time".
        let req = H2Request {
            headers: {
                let mut h = doh_headers(relay.hostname, "/proxy", true, sealed_query_wire.len());
                h.push(HeaderField::new(
                    "content-type",
                    "application/oblivious-dns-message",
                ));
                h
            },
            body: Bytes::from(sealed_query_wire),
        };
        // A rate-limited target answers the relay with a 429, which the
        // relay forwards to the client.
        let http_status = if a.effects.rate_limited {
            429
        } else if a.health == ProbeHealth::HttpError {
            500
        } else {
            200
        };
        let mut h2 = H2Connection::new();
        let result = h2.round_trip_traced(
            &mut tcp,
            &client_relay,
            &req,
            |sid, enc| {
                H2Connection::encode_response(
                    enc,
                    sid,
                    http_status,
                    &[HeaderField::new(
                        "content-type",
                        "application/oblivious-dns-message",
                    )],
                    &sealed_response_wire,
                )
            },
            relay_forward,
            rng,
            t,
            log,
        );
        let (resp, query_time) = match result {
            Ok(ok) => ok,
            Err(e) => {
                return ProbeOutcome::Failure {
                    kind: e.into(),
                    elapsed: connect + tls.handshake_time + e.elapsed,
                }
            }
        };
        t += query_time.as_nanos();
        // The decode phase covers decapsulating the sealed response and
        // parsing the DNS message inside it.
        let dns_decode = decode_cost(resp.body.len());
        record_codec_span(log, t, Phase::DnsDecode, dns_decode);
        // Through a relay, everything past the client↔relay wire exchange —
        // the relay→target leg plus the target's own processing — is
        // "server" time from the client's point of view.
        let timings = ProbeTimings::from_legs(
            dns_encode,
            connect,
            tls.handshake_time,
            query_time,
            relay_forward,
            dns_decode,
        );
        if resp.status != 200 {
            return ProbeOutcome::Failure {
                kind: if resp.status == 429 {
                    ProbeErrorKind::RateLimited
                } else {
                    ProbeErrorKind::HttpStatus
                },
                elapsed: timings.total(),
            };
        }
        // Client decapsulates and validates the DNS payload.
        let opened = dns_wire::odoh::ObliviousMessage::decode(&resp.body)
            .and_then(|m| odoh::open_response(&key, &kem, &m))
            .and_then(|plain| Message::decode(&plain));
        match opened {
            Ok(msg) => Self::check_rcode(msg.rcode(), timings, cache_hit, a.site),
            Err(_) => ProbeOutcome::Failure {
                kind: ProbeErrorKind::DnsError,
                elapsed: timings.total(),
            },
        }
    }

    fn doq_probe(
        &self,
        a: &Attempt,
        target: &mut ProbeTarget,
        domain: &Name,
        cfg: ProbeConfig,
        rng: &mut SimRng,
        log: &mut SpanLog,
    ) -> ProbeOutcome {
        if a.hooks.refuse_connect {
            // QUIC: a closed port answers with ICMP unreachable ≈ one RTT.
            let rtt = a
                .path
                .sample_rtt(1200, 60, rng)
                .unwrap_or(SimDuration::from_millis(300));
            log.instant(a.now.as_nanos() + rtt.as_nanos(), "connection_refused");
            return ProbeOutcome::Failure {
                kind: ProbeErrorKind::ConnectionRefused,
                elapsed: rtt,
            };
        }
        let query = self.build_query(domain, cfg, true);
        // detlint:allow(unwrap, queries built by build_query are well-formed; encoding cannot fail)
        let query_wire = query.encode().expect("query encodes");
        let dns_encode = encode_cost(query_wire.len());
        let mut t = record_codec_span(log, a.now.as_nanos(), Phase::DnsEncode, dns_encode);
        let (mut quic, connect) = match a.warm.quic_setup(&a.path, rng, &mut t, log) {
            Ok(ok) => ok,
            Err(fail) => return fail,
        };
        if a.hooks.tls_behavior == TlsServerBehavior::BadCertificate {
            // QUIC folds TLS 1.3 into its handshake: the certificate
            // arrives with the combined connect flight, so the client pays
            // the connect round trip and then aborts — same shape as the
            // TCP-carried transports.
            log.instant(t, "certificate_rejected");
            return ProbeOutcome::Failure {
                kind: ProbeErrorKind::CertificateError,
                elapsed: connect,
            };
        }
        let (server_time, cache_hit, rcode, dns_response) =
            self.serve(target, &query, domain, a, false, rng);
        match quic.stream_exchange_traced(
            &a.path,
            2 + query_wire.len(),
            2 + dns_response.len(),
            server_time,
            rng,
            t,
            log,
        ) {
            Ok(out) => {
                t += out.elapsed.as_nanos();
                let dns_decode = decode_cost(dns_response.len());
                record_codec_span(log, t, Phase::DnsDecode, dns_decode);
                // The QUIC handshake folds transport and crypto setup into
                // one leg, so `tls_handshake` is structurally zero.
                let timings = ProbeTimings::from_legs(
                    dns_encode,
                    connect,
                    SimDuration::ZERO,
                    out.elapsed,
                    server_time,
                    dns_decode,
                );
                if a.health == ProbeHealth::HttpError {
                    return ProbeOutcome::Failure {
                        kind: ProbeErrorKind::DnsError,
                        elapsed: timings.total(),
                    };
                }
                Self::check_rcode(rcode, timings, cache_hit, a.site)
            }
            Err(e) => ProbeOutcome::Failure {
                kind: e.into(),
                elapsed: connect + e.elapsed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::resolvers;
    use netsim::geo::cities;
    use netsim::{AccessProfile, HostId};

    fn client() -> Host {
        Host::in_city(
            HostId(0),
            "ec2-ohio",
            cities::COLUMBUS_OH,
            AccessProfile::cloud_vm(),
        )
    }

    fn target(hostname: &str) -> ProbeTarget {
        ProbeTarget::from_entry(resolvers::find(hostname).unwrap())
    }

    fn domain() -> Name {
        Name::parse("google.com").unwrap()
    }

    #[test]
    fn doh_probe_of_mainstream_succeeds_fast() {
        let prober = Prober::new();
        let mut t = target("dns.google");
        let mut rng = SimRng::from_seed(1);
        let mut times = Vec::new();
        for i in 0..50 {
            let (outcome, ping) = prober.probe(
                &client(),
                &mut t,
                &domain(),
                SimTime::from_nanos(i * 3_600_000_000_000),
                false,
                ProbeConfig::default(),
                &mut rng,
            );
            if let Some(rt) = outcome.response_time() {
                times.push(rt.as_millis_f64());
            }
            if let Some(p) = ping {
                assert!(p.as_millis_f64() < 60.0, "ping {p}");
            }
        }
        assert!(times.len() >= 48, "mainstream should almost always succeed");
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[times.len() / 2];
        // Cold DoH ≈ 3 round trips Ohio→Chicago/Ashburn ≈ 20-50 ms.
        assert!((10.0..60.0).contains(&median), "median {median}");
    }

    #[test]
    fn remote_unicast_resolver_is_much_slower() {
        let prober = Prober::new();
        let mut near = target("dns.google");
        let mut far = target("dns.bebasid.com"); // Bandung, Indonesia
        let mut rng = SimRng::from_seed(2);
        let mut near_median = Vec::new();
        let mut far_median = Vec::new();
        for i in 0..40 {
            let now = SimTime::from_nanos(i * 3_600_000_000_000);
            let (o, _) = prober.probe(
                &client(),
                &mut near,
                &domain(),
                now,
                false,
                ProbeConfig::default(),
                &mut rng,
            );
            if let Some(rt) = o.response_time() {
                near_median.push(rt.as_millis_f64());
            }
            let (o, _) = prober.probe(
                &client(),
                &mut far,
                &domain(),
                now,
                false,
                ProbeConfig::default(),
                &mut rng,
            );
            if let Some(rt) = o.response_time() {
                far_median.push(rt.as_millis_f64());
            }
        }
        near_median.sort_by(|a, b| a.partial_cmp(b).unwrap());
        far_median.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (n, f) = (
            near_median[near_median.len() / 2],
            far_median[far_median.len() / 2],
        );
        assert!(f > n * 5.0, "near {n} ms vs far {f} ms");
    }

    #[test]
    fn icmp_filtered_resolver_has_no_ping() {
        let prober = Prober::new();
        let mut t = target("dns.njal.la");
        let mut rng = SimRng::from_seed(3);
        let (_, ping) = prober.probe(
            &client(),
            &mut t,
            &domain(),
            SimTime::ZERO,
            false,
            ProbeConfig::default(),
            &mut rng,
        );
        assert_eq!(ping, None);
    }

    #[test]
    fn mostly_down_resolver_yields_connection_errors() {
        let prober = Prober::new();
        let mut t = target("chewbacca.meganerd.nl");
        let mut rng = SimRng::from_seed(4);
        let mut failures = 0;
        let mut conn_failures = 0;
        for i in 0..60 {
            let (outcome, _) = prober.probe(
                &client(),
                &mut t,
                &domain(),
                SimTime::from_nanos(i * 3_600_000_000_000),
                false,
                ProbeConfig::default(),
                &mut rng,
            );
            if let ProbeOutcome::Failure { kind, elapsed } = outcome {
                failures += 1;
                if kind.is_connection_failure() {
                    conn_failures += 1;
                }
                assert!(elapsed > SimDuration::ZERO);
            }
        }
        assert!(failures > 40, "mostly-down should mostly fail: {failures}");
        assert!(
            conn_failures * 10 > failures * 8,
            "errors should be dominated by connection failures: {conn_failures}/{failures}"
        );
    }

    #[test]
    fn home_extra_latency_applies_only_at_home() {
        let prober = Prober::new();
        let mut rng = SimRng::from_seed(5);
        let cfg = ProbeConfig::default();
        let mut t = target("dns.twnic.tw");
        let home_client = Host::in_city(
            HostId(1),
            "home-1",
            cities::CHICAGO,
            AccessProfile::home_cable(),
        );
        let mut home_times = Vec::new();
        let mut cloud_times = Vec::new();
        for i in 0..30 {
            let now = SimTime::from_nanos(i * 3_600_000_000_000);
            let (o, _) = prober.probe(&home_client, &mut t, &domain(), now, true, cfg, &mut rng);
            if let Some(rt) = o.response_time() {
                home_times.push(rt.as_millis_f64());
            }
            let (o, _) = prober.probe(&client(), &mut t, &domain(), now, false, cfg, &mut rng);
            if let Some(rt) = o.response_time() {
                cloud_times.push(rt.as_millis_f64());
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let hm = med(&mut home_times);
        let cm = med(&mut cloud_times);
        // 70 ms extra one-way over 3 round trips = several hundred ms more.
        assert!(hm > cm + 200.0, "home {hm} vs cloud {cm}");
    }

    #[test]
    fn all_protocols_succeed_against_healthy_target() {
        let prober = Prober::new();
        let mut rng = SimRng::from_seed(6);
        for protocol in [Protocol::Do53, Protocol::DoT, Protocol::DoH, Protocol::DoQ] {
            let mut t = target("dns.quad9.net");
            let cfg = ProbeConfig {
                protocol,
                ..ProbeConfig::default()
            };
            let mut successes = 0;
            for i in 0..20 {
                let (o, _) = prober.probe(
                    &client(),
                    &mut t,
                    &domain(),
                    SimTime::from_nanos(i * 3_600_000_000_000),
                    false,
                    cfg,
                    &mut rng,
                );
                if o.is_success() {
                    successes += 1;
                }
            }
            assert!(successes >= 18, "{protocol}: {successes}/20");
        }
    }

    #[test]
    fn do53_is_fastest_cold_doh_slowest() {
        // Böttger et al.'s ordering: DNS < DoT ≈ DoH on cold connections.
        let prober = Prober::new();
        let mut rng = SimRng::from_seed(7);
        let mut medians = std::collections::HashMap::new();
        for protocol in [Protocol::Do53, Protocol::DoT, Protocol::DoH] {
            let mut t = target("dns.google");
            let cfg = ProbeConfig {
                protocol,
                ..ProbeConfig::default()
            };
            let mut times = Vec::new();
            for i in 0..60 {
                let (o, _) = prober.probe(
                    &client(),
                    &mut t,
                    &domain(),
                    SimTime::from_nanos(i * 3_600_000_000_000),
                    false,
                    cfg,
                    &mut rng,
                );
                if let Some(rt) = o.response_time() {
                    times.push(rt.as_millis_f64());
                }
            }
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            medians.insert(protocol, times[times.len() / 2]);
        }
        assert!(
            medians[&Protocol::Do53] < medians[&Protocol::DoT],
            "do53 {} vs dot {}",
            medians[&Protocol::Do53],
            medians[&Protocol::DoT]
        );
        assert!(
            medians[&Protocol::Do53] * 2.0 < medians[&Protocol::DoH],
            "cold DoH should cost ≈3x a UDP exchange"
        );
    }

    #[test]
    fn http1_only_resolver_probes_succeed() {
        let prober = Prober::new();
        let mut t = target("ibksturm.synology.me"); // http1_only, flaky
        assert!(t.entry.http1_only);
        let mut rng = SimRng::from_seed(12);
        let mut ok = 0;
        for i in 0..30 {
            let (o, _) = prober.probe(
                &client(),
                &mut t,
                &domain(),
                SimTime::from_nanos(i * 3_600_000_000_000),
                false,
                ProbeConfig::default(),
                &mut rng,
            );
            if o.is_success() {
                ok += 1;
            }
        }
        // Flaky health: most but not all succeed, over HTTP/1.1.
        assert!(ok >= 20, "{ok}/30");
    }

    #[test]
    fn odoh_cost_depends_on_target_distance() {
        // Near target (Frankfurt client, Amsterdam target + Amsterdam
        // relay): the relay hop is pure overhead. Far target (Ohio client):
        // the cold handshakes terminate at the nearby relay, whose *warm*
        // connection crosses the ocean once — so ODoH can beat cold direct
        // DoH. Both regimes are asserted.
        let prober = Prober::new();
        let mut med = std::collections::HashMap::new();
        for (case, city, access) in [
            ("near", cities::FRANKFURT, AccessProfile::cloud_vm()),
            ("far", cities::COLUMBUS_OH, AccessProfile::cloud_vm()),
        ] {
            let probe_client = Host::in_city(HostId(0), "c", city, access);
            for protocol in [Protocol::DoH, Protocol::ODoH] {
                let mut t = target("odoh-target.alekberg.net");
                let mut rng = SimRng::from_seed(8);
                let cfg = ProbeConfig {
                    protocol,
                    ..ProbeConfig::default()
                };
                let mut times = Vec::new();
                for i in 0..40 {
                    let (o, _) = prober.probe(
                        &probe_client,
                        &mut t,
                        &domain(),
                        SimTime::from_nanos(i * 3_600_000_000_000),
                        false,
                        cfg,
                        &mut rng,
                    );
                    if let Some(rt) = o.response_time() {
                        times.push(rt.as_millis_f64());
                    }
                }
                assert!(times.len() >= 35, "{case}/{protocol}: {} ok", times.len());
                times.sort_by(|a, b| a.partial_cmp(b).unwrap());
                med.insert((case, protocol), times[times.len() / 2]);
            }
        }
        assert!(
            med[&("near", Protocol::ODoH)] > med[&("near", Protocol::DoH)] + 1.0,
            "near: odoh {} vs doh {}",
            med[&("near", Protocol::ODoH)],
            med[&("near", Protocol::DoH)]
        );
        assert!(
            med[&("far", Protocol::ODoH)] < med[&("far", Protocol::DoH)],
            "far: odoh {} vs doh {}",
            med[&("far", Protocol::ODoH)],
            med[&("far", Protocol::DoH)]
        );
    }

    #[test]
    fn odoh_blackholed_target_surfaces_as_http_error() {
        let prober = Prober::new();
        let mut t = target("chewbacca.meganerd.nl"); // mostly blackholed
        let mut rng = SimRng::from_seed(9);
        let cfg = ProbeConfig {
            protocol: Protocol::ODoH,
            ..ProbeConfig::default()
        };
        let mut http_errors = 0;
        for i in 0..40 {
            let (o, _) = prober.probe(
                &client(),
                &mut t,
                &domain(),
                SimTime::from_nanos(i * 3_600_000_000_000),
                false,
                cfg,
                &mut rng,
            );
            if let ProbeOutcome::Failure { kind, .. } = o {
                if kind == ProbeErrorKind::HttpStatus {
                    http_errors += 1;
                }
            }
        }
        // Through a relay, a dead target looks like a 5xx from the relay.
        assert!(http_errors > 10, "{http_errors}/40 relay 5xx");
    }

    #[test]
    fn deterministic_probes() {
        let prober = Prober::new();
        let run = |seed: u64| {
            let mut t = target("dns.google");
            let mut rng = SimRng::from_seed(seed);
            let (o, p) = prober.probe(
                &client(),
                &mut t,
                &domain(),
                SimTime::ZERO,
                false,
                ProbeConfig::default(),
                &mut rng,
            );
            (o, p)
        };
        assert_eq!(run(11), run(11));
    }
}
