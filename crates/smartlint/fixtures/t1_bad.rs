//! Call-path fixture: a two-hop call chain from a simulation root to a
//! wall-clock sink; its one D2 finding carries the chain.

pub struct System;

impl System {
    pub fn run_epoch(&mut self) {
        sense();
    }
}

fn sense() {
    stamp();
}

fn stamp() {
    let _ = std::time::Instant::now();
}
