//! Bit-write study: full-line counter mode vs DEUCE dual-counter
//! encryption vs unencrypted NVM (§6 related-work context).
//!
//! SuperMem reduces write *requests*; DEUCE reduces written *bits* (PCM
//! write energy and cell wear scale with flipped bits, and unmodified
//! cells cost nothing). Full-line counter mode re-randomizes the whole
//! 64-byte line on every write (~256 flipped bits); DEUCE leaves
//! untouched words' ciphertext bit-identical. This harness replays each
//! workload's flush stream through three functional data paths and
//! counts the flips.

use std::collections::{HashMap, HashSet};

use supermem::crypto::deuce::{DeuceEngine, DeuceMeta};
use supermem::crypto::{deuce::bit_flips, EncryptionEngine};
use supermem::trace::TraceEvent;

use super::prelude::*;

#[derive(Default)]
struct Flips {
    unsec: u64,
    ctr: u64,
    deuce: u64,
    writes: u64,
}

fn replay_flips(trace: &[TraceEvent]) -> Flips {
    let ctr_engine = EncryptionEngine::new([1; 16]);
    let deuce_engine = DeuceEngine::new([2; 16]);
    // Volatile plaintext (the CPU caches), per line.
    let mut plain: HashMap<u64, [u8; 64]> = HashMap::new();
    let mut dirty: HashSet<u64> = HashSet::new();
    // Persistent state per path.
    let mut nvm_plain: HashMap<u64, [u8; 64]> = HashMap::new();
    let mut nvm_ctr: HashMap<u64, ([u8; 64], u64)> = HashMap::new();
    let mut nvm_deuce: HashMap<u64, ([u8; 64], DeuceMeta, [u8; 64])> = HashMap::new();
    let mut out = Flips::default();

    for event in trace {
        match event {
            TraceEvent::Write { addr, bytes } => {
                for (i, &b) in bytes.iter().enumerate() {
                    let a = addr + i as u64;
                    let line = a & !63;
                    plain.entry(line).or_insert([0; 64])[(a - line) as usize] = b;
                    dirty.insert(line);
                }
            }
            TraceEvent::Clwb { addr, len } => {
                if *len == 0 {
                    continue;
                }
                let first = addr & !63;
                let last = (addr + len - 1) & !63;
                let mut line = first;
                loop {
                    if dirty.remove(&line) {
                        let new_plain = plain[&line];
                        out.writes += 1;

                        // Unsec: bits that actually changed in plaintext.
                        let old = nvm_plain.insert(line, new_plain).unwrap_or([0; 64]);
                        out.unsec += bit_flips(&old, &new_plain) as u64;

                        // Full-line counter mode: fresh pad every write.
                        let (old_cipher, minor) =
                            nvm_ctr.get(&line).copied().unwrap_or(([0; 64], 0));
                        let new_cipher =
                            ctr_engine.encrypt_line(&new_plain, line, 0, (minor % 127 + 1) as u8);
                        out.ctr += bit_flips(&old_cipher, &new_cipher) as u64;
                        nvm_ctr.insert(line, (new_cipher, minor + 1));

                        // DEUCE: dual-counter, word-granular.
                        let entry = nvm_deuce.entry(line).or_insert((
                            [0; 64],
                            DeuceMeta::default(),
                            [0; 64],
                        ));
                        let (old_cipher, meta, old_plain_stored) = entry;
                        let had_old = meta.count > 0;
                        let old_plain_copy = *old_plain_stored;
                        let new_cipher = deuce_engine.write(
                            meta,
                            line,
                            had_old.then_some(&old_plain_copy),
                            &new_plain,
                        );
                        out.deuce += bit_flips(old_cipher, &new_cipher) as u64;
                        *old_cipher = new_cipher;
                        *old_plain_stored = new_plain;
                    }
                    if line == last {
                        break;
                    }
                    line += 64;
                }
            }
            _ => {}
        }
    }
    out
}

pub fn report(_: &mut Runs, n: u64) -> Report {
    // One job per workload: record the flush stream, then replay it
    // through the three functional data paths.
    let rows = sweep(&ALL_KINDS, |kind| {
        let spec = WorkloadSpec::new(*kind)
            .with_txns(n)
            .with_array_footprint(1 << 20);
        let trace = Experiment::new(machine(Scheme::Unsec), spec)
            .unwrap_or_else(|e| panic!("{e}"))
            .record_trace();
        let f = replay_flips(&trace);
        let per = |v: u64| v as f64 / f.writes.max(1) as f64;
        vec![
            kind.name().to_owned(),
            f.writes.to_string(),
            format!("{:.0}", per(f.unsec)),
            format!("{:.0}", per(f.ctr)),
            format!("{:.0}", per(f.deuce)),
            format!("{:.2}x", f.deuce as f64 / f.ctr.max(1) as f64),
        ]
    });

    let mut t = table(
        "workload | line writes | Unsec bits/write | CTR bits/write | DEUCE bits/write | \
         DEUCE vs CTR",
    );
    for row in rows {
        t.row(row);
    }
    let mut rep = Report::new("bitwrites");
    rep.section("Bits flipped per 64-byte line write (512 bits max)", t);
    rep.footnote("Full-line counter mode pays ~256 flips per write regardless of the");
    rep.footnote("store; DEUCE's word-granular dual counters approach the plaintext");
    rep.footnote("cost — the §6 'reduce the writes of encrypted data' line of work,");
    rep.footnote("orthogonal to SuperMem's request-count reduction.");
    rep
}
