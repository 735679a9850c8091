//! TT-structured linear solvers.
//!
//! Implements TT-GMRES (Dolgov [8], Algorithm 1 of the paper) with pluggable
//! TT-Rounding — the application through which the paper evaluates its
//! Gram-SVD rounding end-to-end (§V-D) — together with the low-operator-rank
//! Kronecker-sum operators of parametrized PDEs and the rank-one *mean
//! preconditioner* of Kressner–Tobler [26].

#![forbid(unsafe_code)]

pub mod dist_gmres;
pub mod gmres;
pub mod operator;
pub mod precond;
pub mod richardson;

pub use dist_gmres::{DistKroneckerOperator, DistMeanPreconditioner};
pub use gmres::{tt_dist_gmres, tt_gmres, GmresOptions, GmresTrace, IterationRecord};
pub use operator::{KroneckerSumOperator, ModeFactor, TtOperator};
pub use precond::{IdentityPreconditioner, MeanPreconditioner, Preconditioner};
pub use richardson::{tt_richardson, RichardsonOptions, RichardsonTrace};
pub use tt_core::RoundingMethod;
