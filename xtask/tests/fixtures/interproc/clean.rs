//! Interprocedural clean fixture: hot paths that do everything right stay
//! silent under every graph pass.
//!
//! * collectives issued unconditionally on every rank (no rank-divergent
//!   control flow above them);
//! * per-iteration buffers routed through the sanctioned scratch-pool
//!   surface (`take`/`recycle`), whose warm-up allocation neither fires nor
//!   propagates;
//! * no nondeterminism source anywhere on the hot path;
//! * a communicator backend branching on rank inside its own collective
//!   (that is the collective, not a call site).

pub struct Pool {
    free: Vec<Vec<f64>>,
}

impl Pool {
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        self.free.pop().unwrap_or_else(|| vec![0.0; n])
    }

    pub fn recycle(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }
}

pub fn round_clean(comm: &Communicator, pool: &mut Pool, n: usize) -> f64 {
    let mut acc = 0.0;
    for _ in 0..n {
        let buf = pool.take(8);
        acc += buf[0];
        pool.recycle(buf);
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
