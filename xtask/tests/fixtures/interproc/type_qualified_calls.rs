//! Type-qualified calls link only to `fn`s of that type's `impl` blocks: a
//! `Vec::new(` call must not reach this file's `Reducer::new`, which issues
//! a collective, while `Reducer::new(` must.

pub struct Reducer {
    total: f64,
}

impl Reducer {
    pub fn new(comm: &Communicator) -> Reducer {
        comm.barrier();
        Reducer { total: 0.0 }
    }
}

/// A rank-local buffer: std's `Vec::new` issues no collective.
pub fn rank_local_buffer(rank: usize) -> usize {
    if rank == 0 {
        let v: Vec<f64> = Vec::new();
        return v.len();
    }
    0
}

/// Only rank 0 builds the reducer, so only rank 0 enters its barrier.
pub fn rank_guarded_reducer(comm: &Communicator, rank: usize) -> f64 {
    if rank == 0 {
        return Reducer::new(comm).total;
    }
    0.0
}
