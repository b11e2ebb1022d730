//! `serve-tail`: the serving engine's shared hash on 4 simulated cores,
//! 4,096 Zipf-0.99 keys, 50% reads, open-loop Poisson arrivals in
//! simulated time, stepped up a rate ladder. The only workload with
//! contending cores (coherence, CAS retries, queueing); re-encryption
//! storms set its p999.
//!
//! One batch is one pass up the ladder, each pass with its own traffic
//! seed. The window pools the first passes, so the tail figures rest on
//! several independent traffic draws rather than one.

use supermem::sim::{Observer, Stats};
use supermem::Scheme;
use supermem_serve::{run_serve_observed, ServeConfig, ServeReport, StructureKind};

use super::{mix, Batch, Observed, Sim, Size, Workload};
use crate::stats::nearest_rank;
use crate::trace::{span, take_observer, EventCount, Tracer, TxnLog};

/// Mean inter-arrival gaps, in cycles, from light to overloaded load.
const LADDER: [u64; 6] = [8000, 6000, 5000, 4000, 3000, 2000];
const LADDER_NAMES: [&str; 6] = [
    "serve.p99_cycles.gap8000",
    "serve.p99_cycles.gap6000",
    "serve.p99_cycles.gap5000",
    "serve.p99_cycles.gap4000",
    "serve.p99_cycles.gap3000",
    "serve.p99_cycles.gap2000",
];
/// The step whose latencies are the end-to-end figures.
const NOMINAL: usize = 3;
/// The p99 limit a sustainable rate must meet, in cycles.
const P99_LIMIT: u64 = 4000;
const CORES: usize = 4;
const BUCKETS: u64 = 1024;

fn p99(lat: &[u64]) -> u64 {
    let mut lat = lat.to_vec();
    lat.sort_unstable();
    nearest_rank(&lat, 99, 100)
}

/// Latencies of the last tenth of requests by arrival, from an
/// `(arrival, latency)` log in any order: a backlog that is still
/// growing shows in their p99 even when the whole step's p99 passes.
fn last_tenth(log: &[(u64, u64)]) -> Vec<u64> {
    let mut by_arrival = log.to_vec();
    by_arrival.sort_unstable();
    by_arrival[log.len() - log.len().div_ceil(10)..]
        .iter()
        .map(|&(_, l)| l)
        .collect()
}

/// The highest rate, in requests per million cycles, of a ladder step
/// `(gap, p99, last-tenth p99)` whose two p99s both meet `limit`; 0 if
/// none does.
fn max_rate(steps: &[(u64, u64, u64)], limit: u64) -> f64 {
    steps
        .iter()
        .filter(|&&(_, p99, tail)| p99 <= limit && tail <= limit)
        .map(|&(gap, _, _)| 1e6 / gap as f64)
        .fold(0.0, f64::max)
}

/// The engine hands its caller no `Stats`; rebuild the counters the
/// metrics read from its event-stream telemetry.
fn derived_stats(r: &ServeReport) -> Stats {
    let b = &r.telemetry.breakdown;
    Stats {
        nvm_data_writes: b.data_writes_issued,
        nvm_counter_writes: b.counter_writes_issued,
        nvm_data_reads: b.reads - b.read_forwards,
        nvm_counter_reads: b.counter_cache_misses,
        counter_writes_coalesced: b.coalesced,
        counter_cache_hits: b.counter_cache_hits,
        counter_cache_misses: b.counter_cache_misses,
        wq_stall_cycles: b.wq_stall_cycles,
        wq_full_events: b.wq_stalls,
        wq_read_forwards: b.read_forwards,
        sfence_ops: b.sfences,
        pages_reencrypted: r.reencryptions,
        txn_commits: b.txns,
        bank_writes: r.telemetry.banks.banks().iter().map(|k| k.writes).collect(),
        ..Stats::default()
    }
}

/// One serving run's result.
struct Run {
    report: ServeReport,
    /// `(arrival, latency)` per request, in commit order.
    log: Vec<(u64, u64)>,
    /// Probe events counted (traced pass only).
    events: u64,
}

/// One ladder step's latencies, pooled over the window's passes.
#[derive(Debug, Clone, Default)]
struct Pooled {
    all: Vec<u64>,
    tail: Vec<u64>,
}

pub struct ServeTail {
    seed: u64,
    requests: u64,
    window_passes: u64,
    tr: Option<Tracer>,
    passes: u64,
    steps: Vec<Pooled>,
    /// The nominal step over the window's passes.
    sim: Sim,
    obs: Observed,
    retries: u64,
    /// Op digests of every step run, folded.
    digest: u64,
}

impl ServeTail {
    fn run(&mut self, gap: u64, requests: u64, seed: u64) -> Result<Run, String> {
        let cfg = ServeConfig {
            scheme: Scheme::SuperMem,
            structure: StructureKind::Hash,
            cores: CORES,
            requests,
            read_pct: 50,
            zipf_theta: 0.99,
            keyspace: 4096,
            mean_gap: gap,
            seed,
            hash_buckets: BUCKETS,
            // Room for one node line per request plus the bucket array.
            region_len: (64 * (requests + 2 + CORES as u64) + BUCKETS * 8).next_multiple_of(4096),
            ..ServeConfig::default()
        };
        let mut observers: Vec<Box<dyn Observer>> = vec![Box::new(TxnLog::default())];
        if self.tr.is_some() {
            observers.push(Box::new(EventCount::default()));
        }
        let (report, mut observers) = span(&mut self.tr, "serve.run", || {
            run_serve_observed(&cfg, observers)
        })
        .map_err(|e| format!("serve gap {gap}: {e}"))?;
        let log = take_observer::<TxnLog>(&mut observers)
            .unwrap_or_default()
            .0;
        if !report.verified || report.completed != requests || log.len() as u64 != requests {
            return Err(format!("serve gap {gap}: incomplete or unverified run"));
        }
        let events = take_observer::<EventCount>(&mut observers).map_or(0, |e| e.0);
        Ok(Run {
            report,
            log,
            events,
        })
    }
}

impl Workload for ServeTail {
    fn window_batches(size: Size) -> u64 {
        size.pick(3, 2)
    }

    fn setup(seed: u64, size: Size, tr: Option<Tracer>) -> Result<Self, String> {
        let mut me = Self {
            seed,
            requests: size.pick(20_000, 10),
            window_passes: Self::window_batches(size),
            tr: None,
            passes: 0,
            steps: vec![Pooled::default(); LADDER.len()],
            sim: Sim::default(),
            obs: Observed::default(),
            retries: 0,
            digest: 0,
        };
        // Warm-up, untraced: one step at the nominal rate.
        me.run(LADDER[NOMINAL], me.requests, mix(!seed))?;
        me.tr = tr;
        Ok(me)
    }

    fn batch(&mut self) -> Batch {
        let seed = mix(self.seed ^ self.passes.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let in_window = self.passes < self.window_passes;
        let per_step = self.requests;
        let mut failed = 0;
        for (i, gap) in LADDER.into_iter().enumerate() {
            let Ok(Run {
                report,
                log,
                events,
            }) = self.run(gap, per_step, seed)
            else {
                failed += per_step;
                continue;
            };
            self.digest = mix(self.digest ^ report.digest);
            if !in_window {
                continue;
            }
            let pooled = &mut self.steps[i];
            pooled.all.extend(log.iter().map(|&(_, l)| l));
            pooled.tail.extend(last_tenth(&log));
            if i == NOMINAL {
                self.sim.ops += report.completed;
                self.sim.lat.extend(log.iter().map(|&(_, l)| l));
                self.sim.cycles += report.total_cycles;
                self.sim.stats.merge(&derived_stats(&report));
                self.obs.add(&report.telemetry, events);
                self.retries += report.retries;
            }
        }
        self.passes += 1;
        Batch {
            ops: per_step * LADDER.len() as u64,
            failed,
        }
    }

    fn window(&mut self) -> (Sim, Observed) {
        let mut sim = self.sim.clone();
        if self.steps.iter().any(|s| s.all.is_empty()) {
            return (sim, self.obs.clone()); // a failed step; already counted
        }
        let ladder: Vec<(u64, u64, u64)> = LADDER
            .iter()
            .zip(&self.steps)
            .map(|(&gap, s)| (gap, p99(&s.all), p99(&s.tail)))
            .collect();
        for (name, &(_, p99, _)) in LADDER_NAMES.into_iter().zip(&ladder) {
            sim.extra.push((name, p99 as f64));
        }
        sim.extra
            .push(("serve.max_rate_per_mcyc", max_rate(&ladder, P99_LIMIT)));
        sim.extra.push((
            "serve.retries_per_kreq",
            self.retries as f64 * 1e3 / sim.ops as f64,
        ));
        sim.digest = self.digest;
        (sim, self.obs.clone())
    }

    fn finish(mut self) -> (Result<Sim, String>, Option<Tracer>) {
        let sim = Sim {
            ops: self.passes * self.requests * LADDER.len() as u64,
            digest: self.digest,
            ..Sim::default()
        };
        (Ok(sim), self.tr.take())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // the expected values are exact
mod tests {
    use super::*;

    #[test]
    fn max_rate_takes_the_fastest_step_meeting_both_limits() {
        // (gap, p99, last-tenth p99)
        let ladder = [
            (8000, 1_900, 1_800),
            (6000, 2_200, 2_300),
            (5000, 3_600, 3_900),
            (4000, 3_900, 7_000), // passes overall, but its backlog grows
            (3000, 17_600, 30_000),
            (2000, 32_800, 60_000),
        ];
        assert_eq!(max_rate(&ladder, 4000), 200.0);
        assert_eq!(max_rate(&ladder, 1000), 0.0, "no step meets the limit");
        assert_eq!(max_rate(&ladder, 100_000), 500.0);
        assert_eq!(max_rate(&[(5000, 4000, 4000)], 4000), 200.0, "inclusive");
    }

    #[test]
    fn a_growing_backlog_fails_only_the_tail_check() {
        // 1,000 requests; the 9 slow ones (under 1%) all arrive last.
        let mut log: Vec<(u64, u64)> = (0..1000).map(|i| (i, 10)).collect();
        for entry in &mut log[991..] {
            entry.1 = 5_000;
        }
        log.reverse(); // commit order need not be arrival order
        let all: Vec<u64> = log.iter().map(|&(_, l)| l).collect();
        let tail = last_tenth(&log);
        assert_eq!(tail.len(), 100);
        assert_eq!(p99(&all), 10);
        assert_eq!(p99(&tail), 5_000);
        assert_eq!(max_rate(&[(4000, p99(&all), p99(&tail))], 4000), 0.0);
    }
}
