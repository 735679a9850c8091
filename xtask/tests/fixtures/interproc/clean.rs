//! Interprocedural clean fixture: code that does everything right stays
//! silent under `collective_order`.
//!
//! * collectives issued unconditionally on every rank (no rank-divergent
//!   control flow above them);
//! * a communicator backend branching on rank inside its own collective
//!   (that is the collective, not a call site).

pub fn round_clean(comm: &Communicator, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for v in x {
        acc += v;
    }
    unconditional_reduce(comm, acc)
}

fn unconditional_reduce(comm: &Communicator, x: f64) -> f64 {
    comm.allreduce_sum(x)
}

pub struct Backend {
    rank: usize,
}

impl Backend {
    pub fn broadcast(&self, x: f64) -> f64 {
        let rank = self.rank;
        if rank == 0 {
            self.barrier();
        }
        x
    }
}
