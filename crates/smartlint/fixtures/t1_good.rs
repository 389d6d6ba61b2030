//! Call-path clean fixture: the same chain advances the simulated clock, a
//! pure function of explicit state.

pub struct System {
    now_cycles: u64,
}

impl System {
    pub fn run_epoch(&mut self) {
        self.now_cycles = advance(self.now_cycles);
    }
}

fn advance(now: u64) -> u64 {
    now.saturating_add(1)
}
