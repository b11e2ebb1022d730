//! Turns passes into metric values, checks them against the catalogue,
//! and prints them.

use std::collections::BTreeMap;

use crate::json::{number, quote};
use crate::metrics::{self, Metric};
use crate::stats::{self, median, nearest_rank, top_quarter_median};
use crate::trace::{Call, Tracer};
use crate::workloads::{Observed, Pass, Sim};

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Values {
    let mut v = Values::new();
    v.insert("ops_per_s", top_quarter_median(&pass.batch_rates));
    v.insert("setup_s", median(&pass.setup_s));
    v.insert("peak_rss_mb", pass.peak_rss_mb);
    let w = &pass.window;
    let mut lat = w.lat.clone();
    lat.sort_unstable();
    let p999 = if lat.is_empty() {
        0
    } else {
        nearest_rank(&lat, 999, 1000)
    };
    v.insert("sim_op_cycles_mean", stats::mean(&lat));
    v.insert("sim_op_cycles_p999", p999 as f64);
    let s = &w.stats;
    let writes = s.nvm_data_writes + s.nvm_counter_writes + s.nvm_tree_writes;
    v.insert("nvm_writes_per_op", per(writes, w.ops));
    v
}

fn per(count: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        count as f64 / base as f64
    }
}

/// The per-layer metrics of a traced pass. `overhead_pct` compares its
/// throughput with the untraced pass over the same batches.
pub fn per_layer(traced: &Pass, overhead_pct: f64) -> Values {
    let mut v: Values = metrics::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        assert!(v.insert(name, value).is_some(), "undeclared metric {name}");
    };
    set("trace.overhead_pct", overhead_pct);
    if let Some(tr) = &traced.tracer {
        host_layers(tr, traced.attempted, &mut set);
    }
    sim_layers(&traced.window, &traced.observed, &mut set);
    v
}

fn host_layers(tr: &Tracer, attempted: u64, set: &mut impl FnMut(&'static str, f64)) {
    set("workloads.step_self_us", tr.op_self_us());
    for (call, ns, calls) in [
        (Call::Read, "system.read_ns", "system.read_calls_per_op"),
        (Call::Write, "system.write_ns", "system.write_calls_per_op"),
        (Call::Clwb, "system.clwb_ns", "system.clwb_calls_per_op"),
        (
            Call::Sfence,
            "system.sfence_ns",
            "system.sfence_calls_per_op",
        ),
    ] {
        let agg = tr.fine(call);
        set(ns, agg.mean_ns());
        set(calls, per(agg.calls, tr.ops()));
    }
    for (span, name, scale) in [
        ("system.new", "system.new_ms", 1e6),
        ("workloads.build", "workloads.build_ms", 1e6),
        ("system.checkpoint", "system.checkpoint_ms", 1e6),
        ("workloads.verify", "workloads.verify_ms", 1e6),
        ("system.crash_image", "system.crash_image_us", 1e3),
        ("persist.recover_image", "persist.recover_image_us", 1e3),
        ("kv.recover", "kv.recover_us", 1e3),
    ] {
        set(name, tr.coarse(span).mean_ns() / scale);
    }
    set(
        "serve.request_us",
        per(tr.coarse("serve.run").ns, attempted) / 1e3,
    );
}

fn sim_layers(w: &Sim, o: &Observed, set: &mut impl FnMut(&'static str, f64)) {
    let s = &w.stats;
    let ops = w.ops;
    let ratio = |a: u64, b: u64| per(a, b);
    let core_side = s.l1_hits + s.l2_hits + s.l3_hits + s.mem_accesses;
    set("cache.l1_hit_ratio", ratio(s.l1_hits, core_side));
    set(
        "cache.l2_hit_ratio",
        ratio(s.l2_hits, core_side - s.l1_hits),
    );
    set(
        "cache.l3_hit_ratio",
        ratio(s.l3_hits, s.l3_hits + s.mem_accesses),
    );
    set("cache.mem_accesses_per_op", per(s.mem_accesses, ops));
    set("probe.events_per_op", per(o.events, ops));
    set(
        "memctrl.counter_cache_hit_ratio",
        ratio(
            s.counter_cache_hits,
            s.counter_cache_hits + s.counter_cache_misses,
        ),
    );
    set(
        "memctrl.cwc_coalesced_ratio",
        ratio(
            s.counter_writes_coalesced,
            s.counter_writes_coalesced + s.nvm_counter_writes,
        ),
    );
    set(
        "memctrl.flush_counter_fetch_cycles",
        per(o.counter_fetch_cycles, o.flushes),
    );
    set(
        "memctrl.flush_crypto_cycles",
        per(o.crypto_cycles, o.flushes),
    );
    set(
        "memctrl.flush_queue_admission_cycles",
        per(o.queue_admission_cycles, o.flushes),
    );
    set(
        "memctrl.wq_stall_cycles_per_op",
        per(s.wq_stall_cycles, ops),
    );
    set("memctrl.wq_full_per_kop", per(s.wq_full_events * 1000, ops));
    set("memctrl.wq_occupancy_max", o.wq_occupancy_max as f64);
    set(
        "memctrl.wq_read_forwards_per_op",
        per(s.wq_read_forwards, ops),
    );
    set(
        "memctrl.reencryptions_per_mop",
        per(s.pages_reencrypted * 1_000_000, ops),
    );
    set(
        "system.sfence_stall_cycles_per_op",
        per(o.sfence_stall_cycles, ops),
    );
    set("nvm.data_writes_per_op", per(s.nvm_data_writes, ops));
    set("nvm.counter_writes_per_op", per(s.nvm_counter_writes, ops));
    set("nvm.tree_writes_per_op", per(s.nvm_tree_writes, ops));
    set("nvm.data_reads_per_op", per(s.nvm_data_reads, ops));
    set("nvm.counter_reads_per_op", per(s.nvm_counter_reads, ops));
    let busiest = o.bank_busy_cycles.iter().copied().max().unwrap_or(0);
    set("nvm.bank_busy_max_ratio", per(busiest, w.cycles));
    let banks = s.bank_writes.len() as u64;
    let total: u64 = s.bank_writes.iter().sum();
    let most = s.bank_writes.iter().copied().max().unwrap_or(0);
    set("nvm.bank_write_skew", per(most * banks, total));
    set(
        "integrity.updates_per_op",
        per(s.tree_updates_enqueued, ops),
    );
    set(
        "integrity.propagations_per_op",
        per(s.tree_propagations, ops),
    );
    set("integrity.evictions_per_op", per(s.tree_evictions, ops));
    set(
        "integrity.coalesced_ratio",
        ratio(s.tree_updates_coalesced, s.tree_updates_enqueued),
    );
    for &(name, value) in &w.extra {
        set(name, value);
    }
}

/// One finished run, ready to print.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The catalogue table this run reports.
    fn table(&self) -> &'static [Metric] {
        if self.traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }

    /// Prints one JSON line per metric, then the summary line, which is
    /// always the last line of standard output.
    pub fn print(&self) {
        let head = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{}",
            quote(&self.workload),
            self.seed,
            u8::from(self.traced)
        );
        let line = |name: &str, value: f64, unit: &str| {
            println!(
                "{head},\"metric\":{},\"value\":{},\"unit\":{}}}",
                quote(name),
                number(value),
                quote(unit)
            );
        };
        for m in self.table() {
            line(m.name, self.values[m.name], m.unit);
        }
        line(
            "fail_ratio",
            per(self.failed, self.attempted.max(1)),
            "ratio",
        );
        let body: Vec<String> = self
            .table()
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(self.values[m.name]),
                    quote(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
