//! The open-loop serving engine: N simulated cores issuing against one
//! shared structure, arbitrated in simulated time.
//!
//! The engine owns the issue loop the paper's closed-loop benchmarks
//! never needed: requests arrive on an open-loop schedule (fixed at
//! generation time), are assigned round-robin to cores, and each core
//! advances its in-flight operation one phase at a time. The core with
//! the *earliest ready time* always moves next — either its clock (an
//! op in flight) or its next request's arrival, whichever is later —
//! so cross-core interleavings are exactly the ones simulated time
//! dictates, and a fixed `(config, seed)` always produces the identical
//! schedule, op stream, and latency table.
//!
//! Latency is **sojourn time** (completion minus *arrival*, not minus
//! issue): a request that waits behind a counter-overflow
//! re-encryption storm pays that wait in its p99/p999, which is the
//! whole point of driving the structures open-loop.

use supermem::sim::{Config, Observer, Telemetry};
use supermem::{Scheme, System};

use crate::service::{Service, StepResult, StructureKind};
use crate::traffic::{ReqKind, Request, TrafficGen, TrafficSpec};

/// Base address of the served structure's persistent region.
pub const REGION_BASE: u64 = 0x10_0000;

/// A serve configuration the engine refused.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Core count outside 1..=64.
    Cores(usize),
    /// `read_pct` above 100.
    ReadPct(u8),
    /// Zero requests.
    Requests,
    /// Zero hash buckets.
    Buckets,
    /// Zero keyspace.
    Keyspace,
    /// The region cannot hold one node per mutating request.
    Region {
        /// Bytes the configuration needs.
        need: u64,
        /// Bytes the region holds.
        have: u64,
    },
    /// The underlying machine configuration is invalid.
    Machine(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Cores(n) => write!(f, "core count {n} outside 1..=64"),
            ServeError::ReadPct(p) => write!(f, "read percentage {p} above 100"),
            ServeError::Requests => f.write_str("request count must be positive"),
            ServeError::Buckets => f.write_str("hash bucket count must be positive"),
            ServeError::Keyspace => f.write_str("keyspace must be positive"),
            ServeError::Region { need, have } => {
                write!(
                    f,
                    "region too small: need {need} B for nodes, have {have} B"
                )
            }
            ServeError::Machine(e) => write!(f, "invalid machine config: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything one serving run needs: machine, structure, and traffic.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Secure-memory scheme the machine runs.
    pub scheme: Scheme,
    /// Structure being served.
    pub structure: StructureKind,
    /// Simulated cores issuing requests.
    pub cores: usize,
    /// Total requests across all cores.
    pub requests: u64,
    /// Percentage of requests that are reads.
    pub read_pct: u8,
    /// Zipfian skew (0.0 uniform, 0.99 YCSB-hot).
    pub zipf_theta: f64,
    /// Distinct keys.
    pub keyspace: u64,
    /// Mean Poisson inter-arrival gap in cycles (0 = backlogged).
    pub mean_gap: u64,
    /// Master seed (traffic schedule + machine).
    pub seed: u64,
    /// Interleaved memory channels.
    pub channels: usize,
    /// Hash bucket count (hash structure only).
    pub hash_buckets: u64,
    /// Persistent region bytes for the structure + nodes.
    pub region_len: u64,
    /// Fail this bank at time zero and serve through the loss
    /// (degraded mode: shadow verification is skipped because poisoned
    /// reads legitimately diverge).
    pub degraded_bank: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            scheme: Scheme::SuperMem,
            structure: StructureKind::Stack,
            cores: 4,
            requests: 64,
            read_pct: 50,
            zipf_theta: 0.99,
            keyspace: 64,
            mean_gap: 200,
            seed: 1,
            channels: 1,
            hash_buckets: 16,
            region_len: 1 << 22,
            degraded_bank: None,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration without running it.
    ///
    /// # Errors
    ///
    /// The first [`ServeError`] found.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.cores == 0 || self.cores > 64 {
            return Err(ServeError::Cores(self.cores));
        }
        if self.read_pct > 100 {
            return Err(ServeError::ReadPct(self.read_pct));
        }
        if self.requests == 0 {
            return Err(ServeError::Requests);
        }
        if self.structure == StructureKind::Hash && self.hash_buckets == 0 {
            return Err(ServeError::Buckets);
        }
        if self.keyspace == 0 {
            return Err(ServeError::Keyspace);
        }
        // Metadata + slots + buckets + one node line per mutating
        // request (every non-read allocates at most one node), plus the
        // queue sentinel.
        let buckets = if self.structure == StructureKind::Hash {
            (self.hash_buckets * 8).div_ceil(64) * 64
        } else {
            0
        };
        let need = 128 + 64 * self.cores as u64 + buckets + 64 * (self.requests + 1);
        if self.region_len < need {
            return Err(ServeError::Region {
                need,
                have: self.region_len,
            });
        }
        self.machine_config()
            .validate()
            .map_err(|e| ServeError::Machine(e.to_string()))?;
        Ok(())
    }

    /// The simulator configuration this serve run builds.
    pub fn machine_config(&self) -> Config {
        let mut cfg = self
            .scheme
            .apply(Config::default())
            .with_channels(self.channels);
        cfg.cores = self.cores;
        cfg.seed = self.seed;
        cfg
    }

    fn traffic_spec(&self) -> TrafficSpec {
        TrafficSpec {
            requests: self.requests,
            read_pct: self.read_pct,
            zipf_theta: self.zipf_theta,
            keyspace: self.keyspace,
            mean_gap: self.mean_gap,
            seed: self.seed ^ 0xC0FF_EE00_5EED,
            removes: self.structure != StructureKind::Hash,
        }
    }
}

/// Tail-latency table and run evidence from one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scheme served under.
    pub scheme: Scheme,
    /// Structure served.
    pub structure: StructureKind,
    /// Cores that issued.
    pub cores: usize,
    /// Requests completed (always equals the configured count).
    pub completed: u64,
    /// Failed CAS attempts + helping steps across all cores.
    pub retries: u64,
    /// Order-sensitive digest of the per-core op streams
    /// (core, seq, op, key, result) — equal digests mean identical
    /// linearization histories.
    pub digest: u64,
    /// Simulated cycle the last core finished (after the drain).
    pub total_cycles: u64,
    /// Median sojourn latency (cycles).
    pub p50: u64,
    /// 99th-percentile sojourn latency.
    pub p99: u64,
    /// 99.9th-percentile sojourn latency.
    pub p999: u64,
    /// Mean sojourn latency.
    pub mean: f64,
    /// Worst-case sojourn latency.
    pub max: u64,
    /// Requests completed per core.
    pub per_core: Vec<u64>,
    /// Pages re-encrypted by minor-counter overflow during the run.
    pub reencryptions: u64,
    /// Poisoned reads served (degraded mode).
    pub poisoned_reads: u64,
    /// Writes dropped at a failed bank (degraded mode).
    pub dropped_writes: u64,
    /// Whether the persistent structure was verified against the
    /// shadow model (skipped in degraded mode).
    pub verified: bool,
    /// Full telemetry (per-core histograms, breakdowns) for JSON
    /// emission.
    pub telemetry: Telemetry,
}

/// Same avalanche mix as the persistent checksums; used for the op
/// digest.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn op_code(kind: ReqKind) -> u64 {
    match kind {
        ReqKind::Update => 1,
        ReqKind::Remove => 2,
        ReqKind::Read => 3,
    }
}

/// One core's issue state inside the arbitration loop.
struct CoreLane {
    queue: std::collections::VecDeque<Request>,
    /// Arrival cycle and kind/key of the op in flight.
    in_flight: Option<(u64, ReqKind, u64)>,
    issued: u64,
    completed: u64,
}

/// Runs a serving experiment.
///
/// # Errors
///
/// [`ServeError`] if the configuration is invalid.
///
/// # Panics
///
/// Panics if (in strict mode) the structure diverges from its shadow
/// model — that is a simulator bug, not a configuration error.
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    let (report, _) = run_serve_observed(cfg, Vec::new())?;
    Ok(report)
}

/// Runs a serving experiment with extra observers attached (e.g. the
/// crash-consistency [`Checker`](supermem::Checker)); returns them
/// after the run for inspection.
///
/// # Errors
///
/// [`ServeError`] if the configuration is invalid.
// Justified panics: the four `expect`s below assert open-loop scheduler
// bookkeeping invariants (each message names its own); a failure is an
// engine bug, not an input condition the caller could handle.
#[allow(clippy::disallowed_methods)]
pub fn run_serve_observed(
    cfg: &ServeConfig,
    observers: Vec<Box<dyn Observer>>,
) -> Result<(ServeReport, Vec<Box<dyn Observer>>), ServeError> {
    cfg.validate()?;
    let mut sys = System::new(cfg.machine_config());

    // Initialize the structure single-threaded on core 0, then drain so
    // the measured phase starts from a durable, quiescent machine.
    sys.set_active_core(0);
    let mut svc = Service::new(
        &mut sys,
        cfg.structure,
        REGION_BASE,
        cfg.region_len,
        cfg.cores,
        cfg.hash_buckets,
    );
    sys.checkpoint();
    if let Some(bank) = cfg.degraded_bank {
        sys.controller_mut().mark_bank_failed(bank);
        svc.set_strict(false);
    }
    sys.reset_stats();
    sys.attach_observer(Box::new(Telemetry::default()));
    for obs in observers {
        sys.attach_observer(obs);
    }

    // Round-robin request assignment: global arrival order is preserved
    // within each core's FIFO lane.
    let mut lanes: Vec<CoreLane> = (0..cfg.cores)
        .map(|_| CoreLane {
            queue: std::collections::VecDeque::new(),
            in_flight: None,
            issued: 0,
            completed: 0,
        })
        .collect();
    for (i, req) in TrafficGen::new(&cfg.traffic_spec()).enumerate() {
        lanes[i % cfg.cores].queue.push_back(req);
    }

    let mut digest = 0x00D1_6E57_u64;
    let mut remaining = cfg.requests;
    while remaining > 0 {
        // The earliest-ready core moves next (ties to the lowest core).
        let mut pick: Option<(u64, usize)> = None;
        for (c, lane) in lanes.iter().enumerate() {
            let ready = match (&lane.in_flight, lane.queue.front()) {
                (Some(_), _) => sys.core_now(c),
                (None, Some(r)) => sys.core_now(c).max(r.at),
                (None, None) => continue,
            };
            if pick.is_none_or(|(t, _)| ready < t) {
                pick = Some((ready, c));
            }
        }
        let (_, core) = pick.expect("remaining > 0 implies a ready core");
        sys.set_active_core(core);
        let lane = &mut lanes[core];
        if lane.in_flight.is_none() {
            let req = lane.queue.pop_front().expect("picked lane has a request");
            // An idle core sleeps until the arrival; its clock only
            // moves through memory ops otherwise.
            sys.advance_core_to(core, req.at);
            lane.in_flight = Some((req.at, req.kind, req.key));
            lane.issued += 1;
            svc.start_op(&mut sys, core, &req);
            continue;
        }
        if let StepResult::Done { result } = svc.step(&mut sys, core) {
            let (arrival, kind, key) = lanes[core].in_flight.take().expect("op was in flight");
            let end = sys.core_now(core);
            sys.record_txn(arrival, end);
            lanes[core].completed += 1;
            remaining -= 1;
            for w in [
                core as u64,
                lanes[core].completed,
                op_code(kind),
                key,
                result.unwrap_or(0),
            ] {
                digest = mix(digest ^ w);
            }
        }
    }

    sys.checkpoint();
    let verified = cfg.degraded_bank.is_none();
    if verified {
        svc.verify(&mut sys)
            .unwrap_or_else(|e| panic!("served structure diverged from its shadow: {e}"));
    }

    let stats = sys.stats().clone();
    let mut telemetry = None;
    let mut rest = Vec::new();
    for mut obs in sys.take_observers() {
        if telemetry.is_none() {
            if let Some(t) = obs.as_any_mut().downcast_mut::<Telemetry>() {
                telemetry = Some(std::mem::take(t));
                continue;
            }
        }
        rest.push(obs);
    }
    let telemetry = telemetry.expect("telemetry was attached");
    let h = &telemetry.txn_latency;
    let report = ServeReport {
        scheme: cfg.scheme,
        structure: cfg.structure,
        cores: cfg.cores,
        completed: svc.completed(),
        retries: svc.retries(),
        digest,
        total_cycles: sys.max_now(),
        p50: h.p50(),
        p99: h.p99(),
        p999: h.p999(),
        mean: h.mean(),
        max: h.max(),
        per_core: lanes.iter().map(|l| l.completed).collect(),
        reencryptions: stats.pages_reencrypted,
        poisoned_reads: stats.poisoned_reads,
        dropped_writes: stats.dropped_writes,
        verified,
        telemetry,
    };
    Ok((report, rest))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn quick(structure: StructureKind) -> ServeConfig {
        ServeConfig {
            structure,
            requests: 40,
            cores: 3,
            mean_gap: 100,
            region_len: 1 << 18,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn validation_rejects_malformed_configs() {
        let mut c = quick(StructureKind::Stack);
        c.cores = 0;
        assert_eq!(c.validate(), Err(ServeError::Cores(0)));
        let mut c = quick(StructureKind::Stack);
        c.read_pct = 101;
        assert_eq!(c.validate(), Err(ServeError::ReadPct(101)));
        let mut c = quick(StructureKind::Hash);
        c.hash_buckets = 0;
        assert_eq!(c.validate(), Err(ServeError::Buckets));
        let mut c = quick(StructureKind::Stack);
        c.region_len = 1024;
        assert!(matches!(c.validate(), Err(ServeError::Region { .. })));
        let mut c = quick(StructureKind::Stack);
        c.requests = 0;
        assert_eq!(c.validate(), Err(ServeError::Requests));
    }

    #[test]
    fn every_structure_serves_and_verifies() {
        for kind in StructureKind::ALL {
            let report = run_serve(&quick(kind)).unwrap();
            assert_eq!(report.completed, 40, "{kind}");
            assert!(report.verified, "{kind}");
            assert_eq!(report.per_core.iter().sum::<u64>(), 40, "{kind}");
            assert!(
                report.p50 <= report.p99 && report.p99 <= report.p999,
                "{kind}"
            );
            assert!(report.p999 <= report.max, "{kind}");
            assert!(report.total_cycles > 0, "{kind}");
        }
    }

    #[test]
    fn same_seed_same_digest_and_tail_table() {
        let cfg = quick(StructureKind::Queue);
        let a = run_serve(&cfg).unwrap();
        let b = run_serve(&cfg).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!((a.p50, a.p99, a.p999, a.max), (b.p50, b.p99, b.p999, b.max));
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn different_seeds_change_the_schedule() {
        let mut cfg = quick(StructureKind::Stack);
        let a = run_serve(&cfg).unwrap();
        cfg.seed = 99;
        let b = run_serve(&cfg).unwrap();
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn contended_cores_actually_retry() {
        // Backlogged write-only traffic on one hot structure must
        // produce CAS contention across 4 cores.
        let cfg = ServeConfig {
            structure: StructureKind::Stack,
            cores: 4,
            requests: 80,
            read_pct: 0,
            mean_gap: 0,
            region_len: 1 << 18,
            ..ServeConfig::default()
        };
        let report = run_serve(&cfg).unwrap();
        assert!(
            report.retries > 0,
            "no CAS contention at 4 backlogged cores"
        );
        assert!(report.verified);
    }

    #[test]
    fn degraded_mode_serves_through_bank_loss() {
        let cfg = ServeConfig {
            degraded_bank: Some(0),
            ..quick(StructureKind::Stack)
        };
        let report = run_serve(&cfg).unwrap();
        assert_eq!(report.completed, 40, "degraded service must keep answering");
        assert!(!report.verified, "degraded runs skip shadow verification");
        assert!(
            report.poisoned_reads > 0 || report.dropped_writes > 0,
            "bank 0 holds the structure, the fault must bite"
        );
    }

    #[test]
    fn single_core_open_loop_respects_arrivals() {
        let cfg = ServeConfig {
            cores: 1,
            requests: 10,
            mean_gap: 10_000,
            ..quick(StructureKind::Queue)
        };
        let report = run_serve(&cfg).unwrap();
        // Widely spaced arrivals: total time is dominated by the last
        // arrival, and per-op sojourn stays near raw service time.
        assert!(report.total_cycles > 9 * 5_000, "idle warp missing");
        assert_eq!(report.completed, 10);
    }
}
