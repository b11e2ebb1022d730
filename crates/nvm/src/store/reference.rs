#![cfg(test)]
//! The six-map store this module's paged layout replaced, kept as the
//! reference model for the differential test in `super::tests`.
//!
//! Every line lives in a hash map keyed by address: data, counters,
//! tree, tags and the two wear maps. Behaviour is the layout-independent
//! contract `NvmStore` must reproduce, with one fix: `data_wear` reads
//! the physical slot the line maps to under wear leveling, which is where
//! `write_data` charges the wear.

use supermem_sim::{FxHashMap, SplitMix64};

use super::WearReport;
use crate::addr::{LineAddr, PageId};
use crate::fault::{FaultClass, FaultCounters, FaultPlan, FaultSpec, MediaError, LINE_BITS};
use crate::wearlevel::StartGap;
use crate::{LineData, LINE_BYTES};

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapStore {
    data: FxHashMap<u64, LineData>,
    counters: FxHashMap<u64, LineData>,
    tree: FxHashMap<u64, LineData>,
    tags: FxHashMap<u64, u64>,
    data_wear: FxHashMap<u64, u64>,
    counter_wear: FxHashMap<u64, u64>,
    wear_leveling: Option<StartGap>,
    faults: Option<FaultPlan>,
}

impl MapStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn read_data(&self, line: LineAddr) -> LineData {
        debug_assert_eq!(line.0 % LINE_BYTES as u64, 0, "unaligned line address");
        self.data.get(&line.0).copied().unwrap_or([0; LINE_BYTES])
    }

    pub fn enable_wear_leveling(&mut self, lines: u64, psi: u64) {
        self.wear_leveling = Some(StartGap::new(lines, psi));
    }

    pub fn write_data(&mut self, line: LineAddr, bytes: LineData) {
        debug_assert_eq!(line.0 % LINE_BYTES as u64, 0, "unaligned line address");
        if let Some(plan) = &mut self.faults {
            if !plan.admit_data_write(line) {
                return;
            }
        }
        match &mut self.wear_leveling {
            Some(sg) => {
                let slot = sg.map(line.0 / LINE_BYTES as u64);
                *self.data_wear.entry(slot).or_insert(0) += 1;
                if let Some(mv) = sg.note_write() {
                    // The relocation itself writes one more physical slot.
                    *self.data_wear.entry(mv.to).or_insert(0) += 1;
                }
            }
            None => {
                *self.data_wear.entry(line.0).or_insert(0) += 1;
            }
        }
        self.data.insert(line.0, bytes);
    }

    pub fn read_counter(&self, page: PageId) -> LineData {
        self.counters
            .get(&page.0)
            .copied()
            .unwrap_or([0; LINE_BYTES])
    }

    pub fn write_counter(&mut self, page: PageId, bytes: LineData) {
        if let Some(plan) = &mut self.faults {
            if !plan.admit_counter_write(page) {
                return;
            }
        }
        *self.counter_wear.entry(page.0).or_insert(0) += 1;
        self.counters.insert(page.0, bytes);
    }

    pub fn read_tree(&self, line: u64) -> LineData {
        self.tree.get(&line).copied().unwrap_or([0; LINE_BYTES])
    }

    pub fn write_tree(&mut self, line: u64, bytes: LineData) {
        if let Some(plan) = &mut self.faults {
            if !plan.admit_tree_write(line) {
                return;
            }
        }
        self.tree.insert(line, bytes);
    }

    pub fn write_tag(&mut self, line: LineAddr, tag: u64) {
        self.tags.insert(line.0, tag);
    }

    pub fn read_tag(&self, line: LineAddr) -> u64 {
        self.tags.get(&line.0).copied().unwrap_or(0)
    }

    pub fn data_lines(&self) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self.data.keys().map(|&a| LineAddr(a)).collect();
        v.sort_unstable();
        v
    }

    pub fn counter_lines(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.counters.keys().map(|&p| PageId(p)).collect();
        v.sort_unstable();
        v
    }

    pub fn tree_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.tree.keys().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn data_lines_touched(&self) -> usize {
        self.data.len()
    }

    pub fn tree_lines_touched(&self) -> usize {
        self.tree.len()
    }

    pub fn counter_lines_touched(&self) -> usize {
        self.counters.len()
    }

    pub fn wear_report(&self) -> WearReport {
        WearReport {
            max_data_wear: self.data_wear.values().copied().max().unwrap_or(0),
            max_counter_wear: self.counter_wear.values().copied().max().unwrap_or(0),
            total_data_writes: self.data_wear.values().sum(),
            total_counter_writes: self.counter_wear.values().sum(),
        }
    }

    pub fn data_wear(&self, line: LineAddr) -> u64 {
        let key = match &self.wear_leveling {
            Some(sg) => sg.map(line.0 / LINE_BYTES as u64),
            None => line.0,
        };
        self.data_wear.get(&key).copied().unwrap_or(0)
    }

    pub fn counter_wear(&self, page: PageId) -> u64 {
        self.counter_wear.get(&page.0).copied().unwrap_or(0)
    }

    pub fn absorb(&mut self, other: MapStore) {
        self.data.extend(other.data);
        self.counters.extend(other.counters);
        self.tree.extend(other.tree);
        self.tags.extend(other.tags);
        for (k, v) in other.data_wear {
            *self.data_wear.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.counter_wear {
            *self.counter_wear.entry(k).or_insert(0) += v;
        }
        if other.faults.is_some() {
            self.faults = other.faults;
        }
    }

    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(FaultPlan::counters)
            .unwrap_or_default()
    }

    pub fn read_data_checked(&mut self, line: LineAddr) -> Result<LineData, MediaError> {
        let stored = self.data.get(&line.0).copied().unwrap_or([0; LINE_BYTES]);
        match &mut self.faults {
            None => Ok(stored),
            Some(plan) => plan.filter_data_read(line, stored),
        }
    }

    pub fn read_counter_checked(&mut self, page: PageId) -> Result<LineData, MediaError> {
        let stored = self
            .counters
            .get(&page.0)
            .copied()
            .unwrap_or([0; LINE_BYTES]);
        match &mut self.faults {
            None => Ok(stored),
            Some(plan) => plan.filter_counter_read(page, stored),
        }
    }

    pub fn read_tree_checked(&mut self, line: u64) -> Result<LineData, MediaError> {
        let stored = self.tree.get(&line).copied().unwrap_or([0; LINE_BYTES]);
        match &mut self.faults {
            None => Ok(stored),
            Some(plan) => plan.filter_tree_read(line, stored),
        }
    }

    pub fn strike_tree_fault(&mut self, spec: FaultSpec) -> Option<u64> {
        if spec.class.is_power_event() {
            return None;
        }
        let lines = self.tree_lines();
        if lines.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(spec.seed ^ 0x3EE5_7A1D);
        let mut plan = self.faults.take().unwrap_or_else(|| FaultPlan::new(spec));
        let line = lines[rng.next_below(lines.len() as u64) as usize];
        match spec.class {
            FaultClass::BitFlip | FaultClass::StuckAt => {
                // Stuck cells degenerate to a single wrong bit on the
                // read path for metadata lines: both are correctable.
                let bit = rng.next_below(LINE_BITS as u64) as usize;
                plan.flip_tree_bit(line, bit);
            }
            FaultClass::DoubleFlip => {
                let bit1 = rng.next_below(LINE_BITS as u64) as usize;
                let mut bit2 = rng.next_below(LINE_BITS as u64 - 1) as usize;
                if bit2 >= bit1 {
                    bit2 += 1;
                }
                plan.flip_tree_bit(line, bit1);
                plan.flip_tree_bit(line, bit2);
            }
            FaultClass::TransientRead => {
                let times = 1 + rng.next_below(4) as u32;
                plan.fail_tree_reads(line, times);
            }
            FaultClass::Torn | FaultClass::BankFail => unreachable!("power-event class"),
        }
        self.faults = Some(plan);
        Some(line)
    }

    pub fn tamper_tree_line(&mut self, seed: u64) -> Option<u64> {
        let lines = self.tree_lines();
        if lines.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(seed ^ 0x7A3B_9D11);
        let line = lines[rng.next_below(lines.len() as u64) as usize];
        let mut bytes = self.read_tree(line);
        // Flip one whole byte so the forged digest differs but the line
        // still looks like ordinary ECC-clean media.
        let byte = rng.next_below(LINE_BYTES as u64) as usize;
        bytes[byte] ^= 0xA5;
        self.tree.insert(line, bytes);
        Some(line)
    }

    pub fn strike_faults(&mut self, spec: FaultSpec) {
        if spec.class.is_power_event() {
            return;
        }
        let data = self.data_lines();
        let ctrs = self.counter_lines();
        let mut rng = SplitMix64::new(spec.seed ^ 0x57A1_4EBF);
        let mut plan = self.faults.take().unwrap_or_else(|| FaultPlan::new(spec));
        let total = data.len() + ctrs.len();
        if total > 0 {
            match spec.class {
                FaultClass::StuckAt => {
                    // Stuck cells are modeled for data lines only.
                    if !data.is_empty() {
                        let line = data[rng.next_below(data.len() as u64) as usize];
                        let bit = rng.next_below(LINE_BITS as u64) as usize;
                        let stored = self.read_data(line);
                        let forced = stored[bit / 8] >> (bit % 8) & 1 == 0;
                        plan.stick_data_cell(line, bit, forced);
                    }
                }
                FaultClass::BitFlip | FaultClass::DoubleFlip => {
                    let bit1 = rng.next_below(LINE_BITS as u64) as usize;
                    // Second bit distinct from the first.
                    let mut bit2 = rng.next_below(LINE_BITS as u64 - 1) as usize;
                    if bit2 >= bit1 {
                        bit2 += 1;
                    }
                    let double = spec.class == FaultClass::DoubleFlip;
                    let idx = rng.next_below(total as u64) as usize;
                    if idx < data.len() {
                        plan.flip_data_bit(data[idx], bit1);
                        if double {
                            plan.flip_data_bit(data[idx], bit2);
                        }
                    } else {
                        let page = ctrs[idx - data.len()];
                        plan.flip_counter_bit(page, bit1);
                        if double {
                            plan.flip_counter_bit(page, bit2);
                        }
                    }
                }
                FaultClass::TransientRead => {
                    // 1..=4 failures: seeds above the retry budget (3)
                    // exercise the poison/detect path too.
                    let times = 1 + rng.next_below(4) as u32;
                    let idx = rng.next_below(total as u64) as usize;
                    if idx < data.len() {
                        plan.fail_data_reads(data[idx], times);
                    } else {
                        plan.fail_counter_reads(ctrs[idx - data.len()], times);
                    }
                }
                FaultClass::Torn | FaultClass::BankFail => unreachable!("power-event class"),
            }
        }
        self.faults = Some(plan);
    }
}
