//! Battery/ADR-domain cost per scheme (the paper's §1 motivation and
//! §7 conclusion): "the battery backup for supporting the large counter
//! cache is expensive and occupies large chip areas. Modern processor
//! vendors only provide a small battery backup for the ADR with the
//! small persistent domain of tens of entries in the write queue."
//!
//! This figure computes the bytes each scheme requires the battery to
//! drain on a power failure, from the Table 2 configuration.

use super::prelude::*;

pub fn report(_: &mut Runs, _: u64) -> Report {
    let cfg = Config::default();
    let wq_bytes = cfg.write_queue_entries as u64 * (cfg.line_bytes + 9); // payload + addr + flag
    let register_bytes = 2 * cfg.line_bytes; // the Figure 7 staging register
    let rsr_bytes = 20; // 32-bit page + 64-bit old major + 64 done bits (§3.4.4)

    let mut t =
        table("scheme | write queue | counter cache | extras | battery domain | vs SuperMem");
    let mut supermem_total = 0u64;
    for (scheme, cc_backed, extras, note) in [
        (Scheme::Unsec, 0u64, 0u64, "-"),
        (
            Scheme::SuperMem,
            0,
            register_bytes + rsr_bytes,
            "register + RSR",
        ),
        (
            Scheme::WriteBackIdeal,
            cfg.counter_cache_bytes,
            0,
            "whole counter cache",
        ),
        (Scheme::Osiris, 0, 0, "recovery instead of battery"),
    ] {
        let total = wq_bytes + cc_backed + extras;
        if scheme == Scheme::SuperMem {
            supermem_total = total;
        }
        let ratio = if supermem_total > 0 {
            format!("{:.1}x", total as f64 / supermem_total as f64)
        } else {
            "-".into()
        };
        t.row(vec![
            scheme.name().into(),
            format!("{wq_bytes} B"),
            if cc_backed > 0 {
                format!("{} KiB", cc_backed / 1024)
            } else {
                "-".into()
            },
            if extras > 0 {
                format!("{extras} B ({note})")
            } else {
                note.into()
            },
            format!("{total} B"),
            ratio,
        ]);
    }
    let mut rep = Report::new("battery");
    rep.section("ADR battery domain per scheme (Table 2 configuration)", t);
    rep.footnote("The ideal WB needs the battery to drain the entire 256 KiB counter");
    rep.footnote("cache; SuperMem adds only a 2-line register and the 20-byte RSR to");
    rep.footnote("the write queue every vendor already protects.");
    rep
}
