//! Unused-suppression fixture: both annotations name real skeleton passes
//! but match no diagnostic, so the default suppression check must report
//! them — the standalone comment (targeting the next code line) and the
//! trailing one (targeting its own line) alike.

pub fn quiet_dist(comm: &Communicator, x: f64) -> f64 {
    // analyze::allow(deadlock_check): fixture — nothing deadlocks here.
    let y = comm.allreduce_sum(x); // analyze::allow(protocol_match): fixture — no rank branch.
    y
}
