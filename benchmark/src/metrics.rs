//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` mirrors these tables; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by the untraced run (`--trace 0`) of every workload. Host
/// metrics are wall-clock; `sim_*` and `nvm_*` are simulated and repeat
/// exactly for a given (code, seed).
pub const END_TO_END: &[Metric] = &[
    e2e("ops_per_s", "op/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("sim_op_cycles_mean", "cycles", Lower, 0.15),
    e2e("sim_op_cycles_p999", "cycles", Lower, 0.15),
    e2e("nvm_writes_per_op", "writes/op", Lower, 0.10),
];

/// Reported by the traced run (`--trace 1`) of every workload. A layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[Metric] = &[
    // Host time, measured around the benchmark's own calls into each
    // layer's public functions.
    layer("trace.overhead_pct", "%", Lower),
    layer("workloads.step_self_us", "us", Lower),
    layer("system.read_ns", "ns", Lower),
    layer("system.write_ns", "ns", Lower),
    layer("system.clwb_ns", "ns", Lower),
    layer("system.sfence_ns", "ns", Lower),
    layer("system.read_calls_per_op", "calls/op", Lower),
    layer("system.write_calls_per_op", "calls/op", Lower),
    layer("system.clwb_calls_per_op", "calls/op", Lower),
    layer("system.sfence_calls_per_op", "calls/op", Lower),
    layer("system.new_ms", "ms", Lower),
    layer("workloads.build_ms", "ms", Lower),
    layer("system.checkpoint_ms", "ms", Lower),
    layer("workloads.verify_ms", "ms", Lower),
    layer("system.crash_image_us", "us", Lower),
    layer("persist.recover_image_us", "us", Lower),
    layer("kv.recover_us", "us", Lower),
    layer("serve.request_us", "us", Lower),
    layer("probe.events_per_op", "events/op", Lower),
    // Simulated counters from `Stats` and `Telemetry`.
    layer("cache.l1_hit_ratio", "ratio", Higher),
    layer("cache.l2_hit_ratio", "ratio", Higher),
    layer("cache.l3_hit_ratio", "ratio", Higher),
    layer("cache.mem_accesses_per_op", "accesses/op", Lower),
    layer("memctrl.counter_cache_hit_ratio", "ratio", Higher),
    layer("memctrl.cwc_coalesced_ratio", "ratio", Higher),
    layer("memctrl.flush_counter_fetch_cycles", "cycles/flush", Lower),
    layer("memctrl.flush_crypto_cycles", "cycles/flush", Lower),
    layer(
        "memctrl.flush_queue_admission_cycles",
        "cycles/flush",
        Lower,
    ),
    layer("memctrl.wq_stall_cycles_per_op", "cycles/op", Lower),
    layer("memctrl.wq_full_per_kop", "events/kop", Lower),
    layer("memctrl.wq_occupancy_max", "entries", Lower),
    layer("memctrl.wq_read_forwards_per_op", "reads/op", Higher),
    layer("memctrl.reencryptions_per_mop", "pages/Mop", Lower),
    layer("system.sfence_stall_cycles_per_op", "cycles/op", Lower),
    layer("nvm.data_writes_per_op", "writes/op", Lower),
    layer("nvm.counter_writes_per_op", "writes/op", Lower),
    layer("nvm.tree_writes_per_op", "writes/op", Lower),
    layer("nvm.data_reads_per_op", "reads/op", Lower),
    layer("nvm.counter_reads_per_op", "reads/op", Lower),
    layer("nvm.bank_busy_max_ratio", "ratio", Lower),
    layer("nvm.bank_write_skew", "ratio", Lower),
    layer("integrity.updates_per_op", "updates/op", Lower),
    layer("integrity.propagations_per_op", "walks/op", Lower),
    layer("integrity.evictions_per_op", "walks/op", Lower),
    layer("integrity.coalesced_ratio", "ratio", Higher),
    layer("persist.recovery_cycles", "cycles", Lower),
    layer("kv.wal_bytes_per_op", "B/op", Lower),
    layer("kv.snapshots_per_kop", "snaps/kop", Lower),
    layer("serve.retries_per_kreq", "retries/kreq", Lower),
    layer("serve.p99_cycles.gap8000", "cycles", Lower),
    layer("serve.p99_cycles.gap6000", "cycles", Lower),
    layer("serve.p99_cycles.gap5000", "cycles", Lower),
    layer("serve.p99_cycles.gap4000", "cycles", Lower),
    layer("serve.p99_cycles.gap3000", "cycles", Lower),
    layer("serve.p99_cycles.gap2000", "cycles", Lower),
    layer("serve.max_rate_per_mcyc", "req/Mcycle", Higher),
    layer("grid.supermem_vs_unsec", "ratio", Lower),
    layer("grid.wt_vs_unsec", "ratio", Lower),
];

/// The declared metric called `name`, in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use std::collections::HashSet;

    /// A metric name: starts with a letter or digit, then at most 63 more
    /// of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    fn better(b: Better) -> &'static str {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    #[test]
    fn names_and_units_respect_the_charset() {
        for bad in ["", ".lead", "sp ace", "uni\u{e9}", &"x".repeat(65), "a/b"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ops_per_s", "serve.p99_cycles.gap8000", "9lives", "a-b"] {
            assert!(valid_name(good), "{good:?}");
        }
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn end_to_end_bounds_are_legal_and_setup_is_widest() {
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(b <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` at the repository root declares exactly this
    /// catalogue.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, table: &[Metric]| {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), m.name);
                assert_eq!(field("unit"), m.unit, "{}", m.name);
                assert_eq!(field("better"), better(m.better), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
