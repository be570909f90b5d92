//! Tournament branch predictor (Table 1 of the paper).
//!
//! A local predictor (2048-entry local-history table feeding a 2048-entry
//! pattern table), a global predictor (8192-entry gshare-style pattern
//! table), a 2048-entry chooser, and a 2048-entry BTB. The simulated core
//! only executes correct-path operations, so the predictor's job is to
//! decide *whether the front end would have stalled*: a mispredicted (or
//! BTB-missing taken) branch blocks fetch until the branch resolves.

/// Geometry of the tournament predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchPredictorParams {
    /// Entries in the local history table / local pattern table.
    pub local_entries: usize,
    /// Entries in the global pattern table.
    pub global_entries: usize,
    /// Entries in the chooser table.
    pub chooser_entries: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// Bits of local history kept per branch.
    pub local_history_bits: u32,
}

impl BranchPredictorParams {
    /// The paper's tournament predictor: 2048-entry local, 8192-entry
    /// global, 2048-entry chooser, 2048-entry BTB.
    pub fn paper() -> Self {
        BranchPredictorParams {
            local_entries: 2048,
            global_entries: 8192,
            chooser_entries: 2048,
            btb_entries: 2048,
            local_history_bits: 10,
        }
    }
}

impl Default for BranchPredictorParams {
    fn default() -> Self {
        BranchPredictorParams::paper()
    }
}

/// Tournament predictor state.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    params: BranchPredictorParams,
    local_history: Vec<u16>,
    local_pht: Vec<u8>,
    global_pht: Vec<u8>,
    chooser: Vec<u8>,
    btb: Vec<(u32, u64)>,
    global_history: u64,
    /// Branches predicted.
    pub predictions: u64,
    /// Mispredictions (direction wrong or taken-target unknown).
    pub mispredictions: u64,
}

#[inline]
fn ctr_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

#[inline]
fn ctr_taken(c: u8) -> bool {
    c >= 2
}

impl BranchPredictor {
    /// Creates a predictor with weakly-not-taken initial state.
    pub fn new(params: BranchPredictorParams) -> Self {
        assert!(params.local_entries.is_power_of_two());
        assert!(params.global_entries.is_power_of_two());
        assert!(params.chooser_entries.is_power_of_two());
        assert!(params.btb_entries.is_power_of_two());
        BranchPredictor {
            local_history: vec![0; params.local_entries],
            local_pht: vec![1; params.local_entries],
            global_pht: vec![1; params.global_entries],
            chooser: vec![2; params.chooser_entries],
            btb: vec![(u32::MAX, 0); params.btb_entries],
            global_history: 0,
            predictions: 0,
            mispredictions: 0,
            params,
        }
    }

    /// Predicts and immediately trains on the actual outcome, returning
    /// whether the front end predicted this branch correctly (direction and,
    /// for taken branches, target).
    pub fn predict_and_update(&mut self, pc: u32, taken: bool, target: u64) -> bool {
        self.predictions += 1;
        let p = self.params;

        let li = (pc as usize) & (p.local_entries - 1);
        let lhist = self.local_history[li] as usize & (p.local_entries - 1);
        let local_pred = ctr_taken(self.local_pht[lhist]);

        let gi = ((self.global_history as usize) ^ (pc as usize)) & (p.global_entries - 1);
        let global_pred = ctr_taken(self.global_pht[gi]);

        let ci = (pc as usize) & (p.chooser_entries - 1);
        let use_global = ctr_taken(self.chooser[ci]);
        let dir_pred = if use_global { global_pred } else { local_pred };

        // BTB: a predicted-taken branch with an unknown target still
        // redirects late — count it as a misprediction.
        let bi = (pc as usize) & (p.btb_entries - 1);
        let btb_hit = self.btb[bi].0 == pc && self.btb[bi].1 == target;

        let correct = dir_pred == taken && (!taken || btb_hit);

        // Train chooser toward whichever component was right.
        if local_pred != global_pred {
            ctr_update(&mut self.chooser[ci], global_pred == taken);
        }
        ctr_update(&mut self.local_pht[lhist], taken);
        ctr_update(&mut self.global_pht[gi], taken);
        self.local_history[li] =
            ((self.local_history[li] << 1) | taken as u16) & ((1 << p.local_history_bits) - 1);
        self.global_history = (self.global_history << 1) | taken as u64;
        if taken {
            self.btb[bi] = (pc, target);
        }

        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Misprediction rate over all predictions so far.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new(BranchPredictorParams::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_loop_becomes_predictable() {
        let mut bp = BranchPredictor::default();
        let mut correct_late = 0;
        for i in 0..1000 {
            let c = bp.predict_and_update(0x400, true, 0x100);
            if i >= 100 && c {
                correct_late += 1;
            }
        }
        assert_eq!(correct_late, 900, "steady-state loop branch is perfect");
    }

    #[test]
    fn alternating_pattern_is_learned() {
        let mut bp = BranchPredictor::default();
        let mut correct_late = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            let c = bp.predict_and_update(0x500, taken, 0x200);
            if i >= 1000 && c {
                correct_late += 1;
            }
        }
        assert!(
            correct_late > 950,
            "local history should capture alternation, got {correct_late}/1000"
        );
    }

    #[test]
    fn random_data_dependent_branch_mispredicts() {
        // A pseudo-random direction stream can't be predicted well.
        let mut bp = BranchPredictor::default();
        let mut x = 0x12345678u64;
        let mut wrong = 0;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 62) & 1 == 1;
            if !bp.predict_and_update(0x600, taken, 0x300) {
                wrong += 1;
            }
        }
        assert!(
            wrong > 1000,
            "random branches should mispredict often, got {wrong}/4000"
        );
    }

    #[test]
    fn distinct_pcs_do_not_destructively_alias() {
        let mut bp = BranchPredictor::default();
        for _ in 0..500 {
            bp.predict_and_update(0x10, true, 0x1);
            bp.predict_and_update(0x20, false, 0x2);
        }
        assert!(bp.predict_and_update(0x10, true, 0x1));
        assert!(bp.predict_and_update(0x20, false, 0x2));
    }
}
