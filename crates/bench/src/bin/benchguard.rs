//! Hot-path regression guard: re-runs the memory-controller micro
//! benchmarks (observers disabled, as in production figure runs) and
//! fails when any exceeds its committed reference in
//! `results/BENCH_sweep.json` by more than `SUPERMEM_BENCH_TOLERANCE`
//! (default 4x — generous on purpose; this catches gross regressions
//! like an always-active probe layer, not minor jitter).

use std::hint::black_box;
use std::process::ExitCode;

use supermem::cache::CacheHierarchy;
use supermem::campaign::{Case, Fault, Verdict};
use supermem::memctrl::{ChannelSet, MemoryController};
use supermem::nvm::addr::LineAddr;
use supermem::nvm::NvmStore;
use supermem::persist::{PMem, RecoveredMemory};
use supermem::sim::{Config, SplitMix64};
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, Scheme, System};
use supermem_bench::guard::{check, extract_after_ns, tolerance, GuardCheck};
use supermem_bench::machine;
use supermem_bench::micro::Harness;
use supermem_kv::{crc32, kv_campaign};
use supermem_lincheck::{lincheck, LincheckConfig};
use supermem_serve::{run_serve, ServeConfig, StructureKind};

fn baseline_json() -> String {
    let path = std::env::var("SUPERMEM_BENCH_BASELINE").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_sweep.json"
        )
        .to_owned()
    });
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read bench baseline {path}: {e}"))
}

fn main() -> ExitCode {
    let baseline = baseline_json();
    let tol = match tolerance() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("benchguard: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut h = Harness::new("benchguard");

    for scheme in [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem] {
        let cfg = scheme.apply(Config::default());
        let mut mc = MemoryController::new(&cfg);
        let mut t = 0u64;
        let mut i = 0u64;
        h.bench(&format!("flush_line/{scheme}"), || {
            let line = LineAddr((i % 64) * 64);
            i += 1;
            t = mc.flush_line(black_box(line), [i as u8; 64], t);
            t
        });
    }
    {
        // The streaming-tree hot path: SuperMem flush with the integrity
        // tree armed at frontier L1, so every counter write runs
        // note_counter_write's pending-cache coalescing and the
        // propagation/node-append machinery rides the queue. Guards the
        // tree-update cost added to the per-flush path.
        let mut cfg = Scheme::SuperMem.apply(Config::default());
        cfg.integrity_tree = true;
        cfg.persisted_levels = Some(1);
        let mut mc = MemoryController::new(&cfg);
        let mut t = 0u64;
        let mut i = 0u64;
        h.bench("flush_line/SuperMem-tree", || {
            let line = LineAddr((i % 64) * 64);
            i += 1;
            t = mc.flush_line(black_box(line), [i as u8; 64], t);
            t
        });
    }
    {
        // A saturated write queue, the steady-write shape: each
        // "transaction" flushes 1 KiB (16 lines) on each of two distinct
        // pages of a 32 MiB region, all at one cycle, then fences on the
        // last retire. Two bursts outrun the 8 banks, so the queue stays
        // full and most flushes wait on the issue pick. The entries
        // above cycle 64 lines of one page and never fill the queue.
        let cfg = Scheme::SuperMem.apply(Config::default());
        let page = cfg.page_bytes;
        let pages = (32 << 20) / page;
        let mut mc = MemoryController::new(&cfg);
        let (mut t, mut fence) = (0u64, 0u64);
        let mut i = 0u64;
        h.bench("flush_line/SuperMem-saturated", || {
            // Page of burst i/16: a large odd stride visits every page.
            let burst = i / 16;
            let line = LineAddr((burst * 2_731 % pages) * page + (i % 16) * 64);
            i += 1;
            fence = fence.max(mc.flush_line(black_box(line), [i as u8; 64], t));
            if i.is_multiple_of(32) {
                t = fence;
            }
            fence
        });
        let full_per_flush = mc.stats().wq_full_events as f64 / i as f64;
        assert!(
            full_per_flush > 0.5,
            "saturated entry no longer saturates the queue ({full_per_flush:.2} full events per flush)"
        );
    }
    {
        // The sharded front end, flushing round-robin across 4 channels
        // (line address strides whole pages, so the channel selector
        // exercises the interleave path on every call).
        let cfg = Scheme::SuperMem.apply(Config::default().with_channels(4));
        let page = cfg.page_bytes;
        let mut set = ChannelSet::new(&cfg);
        let mut t = 0u64;
        let mut i = 0u64;
        h.bench("flush_line/SuperMem-ch4", || {
            let line = LineAddr((i % 4) * page + (i / 4 % 16) * 64);
            i += 1;
            t = set.flush_line(black_box(line), [i as u8; 64], t);
            t
        });
    }
    {
        let cfg = Scheme::SuperMem.apply(Config::default());
        let mut mc = MemoryController::new(&cfg);
        let mut t = 0;
        for i in 0..64u64 {
            t = mc.flush_line(LineAddr(i * 64), [i as u8; 64], t);
        }
        t = mc.finish(t);
        let mut i = 0u64;
        h.bench("read_line/SuperMem", || {
            let line = LineAddr((i % 64) * 64);
            i += 1;
            let (data, done) = mc.read_line(black_box(line), t);
            t = done;
            data
        });
    }
    {
        // The cache hierarchy alone, in an array build's shape: each
        // iteration write-allocates the next line of an 8 MiB region on
        // the default 8-core machine (a load that misses every level, the
        // inclusive fill with its victims, the store). Each pass over the
        // region starts from a fresh, cold hierarchy.
        const LINES: u64 = (8 << 20) / 64;
        let cfg = Config::default();
        let mut caches = CacheHierarchy::new(&cfg);
        let mut i = 0u64;
        h.bench("cache/write_allocate_8MiB", || {
            if i.is_multiple_of(LINES) {
                caches = CacheHierarchy::new(&cfg);
            }
            let line = LineAddr(i % LINES * 64);
            i += 1;
            if caches.load(0, black_box(line)).data.is_none() {
                black_box(caches.fill(0, line, [0; 64]));
            }
            caches.store(0, line, [i as u8; 64])
        });
    }
    {
        // Verification's read path: System::peek of one line at a time
        // over a checkpointed 8 MiB SuperMem array, so every line comes
        // from NVM and is decrypted under the counter cache's counters.
        const LINES: u64 = (8 << 20) / 64;
        let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
        for l in 0..LINES {
            sys.write(l * 64, &[l as u8; 64]);
        }
        sys.checkpoint();
        let mut i = 0u64;
        let mut buf = [0u8; 64];
        h.bench("system/peek", || {
            sys.peek(black_box(i % LINES * 64), &mut buf);
            i += 1;
            buf[0]
        });
    }
    {
        // The NVM store alone, in steady-write's access shape: every
        // line of a 32 MiB region already written, then a write and a
        // checked read per iteration in seeded random line order.
        const LINES: u64 = (32 << 20) / 64;
        let mut store = NvmStore::new();
        for i in 0..LINES {
            store.write_data(LineAddr(i * 64), [i as u8; 64]);
        }
        let mut order: Vec<u64> = (0..LINES).collect();
        SplitMix64::new(0x5EED).shuffle(&mut order);
        let mut i = 0usize;
        h.bench("nvm_store/32MiB", || {
            let line = LineAddr(order[i % order.len()] * 64);
            i += 1;
            store.write_data(black_box(line), [i as u8; 64]);
            store.read_data_checked(black_box(line))
        });
    }

    {
        // The serving engine end to end: 4 cores, 64 open-loop requests
        // against one shared stack, shadow-verified. Guards the
        // arbitration loop + CAS retry path + per-core telemetry on top
        // of the ordinary flush machinery.
        let cfg = ServeConfig {
            requests: 64,
            region_len: 1 << 18,
            ..ServeConfig::default()
        };
        h.bench("serve/SuperMem-c4", || {
            black_box(run_serve(black_box(&cfg)).expect("serve config is valid"))
        });

        // The simulated p99 of the same configuration is a pure function
        // of (config, seed): guard it for *exact* equality, so a timing
        // or protocol change that shifts the serving tail must update
        // the committed baseline deliberately.
        let r = run_serve(&cfg).expect("serve config is valid");
        let want = extract_after_ns(&baseline, "serve/SuperMem-c4-p99cyc")
            .unwrap_or_else(|| panic!("no serve/SuperMem-c4-p99cyc reference in baseline"));
        #[allow(clippy::float_cmp)] // u64 cycles round-trip exactly through f64
        if r.p99 as f64 != want {
            eprintln!(
                "benchguard: serve p99 drifted: measured {} cycles, committed {want} \
                 (deterministic value — a real change must update BENCH_sweep.json)",
                r.p99
            );
            return ExitCode::FAILURE;
        }
        println!("serve/SuperMem-c4-p99cyc  exact {} cycles  ok", r.p99);
    }

    {
        // The durable-linearizability model checker on its largest
        // exhaustive CI config (queue, 2 cores x 3 mixed ops, crash
        // after every persist-relevant step: 440 schedules, ~10k crash
        // points). Guards the explorer's clone-per-node, crash-image
        // replay, and dedup costs — the CI lincheck job's 60 s budget
        // rests on this staying cheap.
        let cfg = LincheckConfig::mixed(StructureKind::Queue, 2, 3);
        h.bench("lincheck/queue-2x3", || {
            let r = lincheck(black_box(&cfg));
            assert!(r.violation.is_none(), "lincheck violation in benchguard");
            black_box(r.stats.crash_points)
        });
    }

    {
        // KV recovery wall clock: one full crash-torture case end to
        // end — format the WAL+snapshot store, run the 10-op workload,
        // crash mid-run, rebuild the machine image, run the checksummed
        // recovery (paranoid double pass), and classify against the
        // oracle. The full 1,764-injection kvtorture figure and the CI
        // kv job both rest on this staying in the low milliseconds.
        let campaign = kv_campaign(&[Scheme::SuperMem], &[1]);
        let case = Case {
            cell: campaign.cells[0].clone(),
            fault: Fault::None,
            point: 15,
            seed: 1,
        };
        h.bench("kv/recover-case", || {
            let r = campaign.run_case(black_box(&case));
            assert!(
                r.verdict != Verdict::Silent,
                "silent KV corruption in benchguard"
            );
            black_box(r.verdict)
        });
    }

    {
        // The checksum of one 24 KiB snapshot payload, the size the
        // crash-recover benchmark's store writes and recovery re-checks
        // several times per crash (both slots in discovery, then the
        // state digest). Guards the carry-less-multiply CRC-32 path.
        let mut payload = vec![0u8; 24 * 1024];
        SplitMix64::new(0x24C0).fill_bytes(&mut payload);
        h.bench("kv/crc32_24KiB", || crc32(black_box(&payload)));
    }

    {
        // One crash-image recovery in the crash-recover benchmark's
        // shape: SuperMem with the streaming tree persisting level 1
        // over the default 4,096-page tree, 320 pages touched (40 leaf
        // groups), then image the machine and rebuild, audit and
        // root-check the tree. Guards the fresh-tree template that
        // spares every recovery the all-zero leaf derivation.
        let cfg = Scheme::SuperMem
            .apply(Config::default())
            .with_integrity_tree(true)
            .with_persisted_levels(Some(1));
        let page = cfg.page_bytes;
        let mut sys = System::new(cfg.clone());
        for p in 0..320u64 {
            sys.persist(p * page, &p.to_le_bytes());
        }
        h.bench("recover_image/SuperMem-L1", || {
            let image = sys.machine_crash_now();
            let rec = RecoveredMemory::from_machine_image_checked(black_box(&cfg), image)
                .expect("clean image recovers");
            black_box(rec.recovery_cycles())
        });
    }

    {
        // Wall-clock guard for a whole large run on the widest committed
        // configuration: 8 channels, array workload, 40 transactions per
        // iteration. This is the figure-suite shape (front end + barrier
        // engine + crypto + drain fast path together), so it catches
        // regressions the per-call microbenchmarks above cannot see,
        // e.g. a barrier that stops skipping quiescent channels.
        let cfg = machine(Scheme::SuperMem).with_channels(8);
        let spec = WorkloadSpec::new(WorkloadKind::Array).with_txns(40);
        h.bench("single_run/SuperMem-ch8-large", || {
            let exp = Experiment::new(black_box(cfg.clone()), black_box(spec.clone()));
            black_box(exp.expect("valid run").run_single())
        });
    }

    let checks: Vec<GuardCheck> = h
        .results()
        .iter()
        .map(|r| {
            let reference = extract_after_ns(&baseline, &r.name)
                .unwrap_or_else(|| panic!("no after_ns reference for {} in baseline", r.name));
            check(&r.name, reference, r.ns_per_iter, tol)
        })
        .collect();

    let mut failed = false;
    for c in &checks {
        let verdict = if c.passed() { "ok" } else { "REGRESSED" };
        println!(
            "{:<22} measured {:>8.1} ns/iter  reference {:>7.1}  limit {:>8.1} ({tol}x)  {verdict}",
            c.name, c.measured_ns, c.reference_ns, c.limit_ns
        );
        failed |= !c.passed();
    }
    if failed {
        eprintln!("benchguard: hot-path regression detected (see REGRESSED rows)");
        return ExitCode::FAILURE;
    }
    println!(
        "benchguard: all {} hot-path benchmarks within tolerance",
        checks.len()
    );
    ExitCode::SUCCESS
}
