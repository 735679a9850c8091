//! The parametrized-PDE "cookies problem" (§II-C of the paper).
//!
//! ```text
//!   −div(σ(x, y; ρ) ∇u) = f   in Ω = (−1,1)²,    u = 0 on ∂Ω,
//!   σ = 1 + Σ_i ρ_i · χ_{D_i},   D_i disjoint disks ("cookies"),
//!   ρ_i log-spaced in [0.1, 10].
//! ```
//!
//! The all-parameter-combinations problem is the `(p+1)`-way tensor system
//! `G·U = F` with the operator in Kronecker-sum (operator-rank `p+1`) form
//!
//! ```text
//!   G = A₀ ⊗ I ⊗ … ⊗ I + Σ_i A_i ⊗ I ⊗ … ⊗ diag(ρ_i) ⊗ … ⊗ I,
//! ```
//!
//! which TT-GMRES solves with TT-Rounding controlling the Krylov ranks.
//!
//! **Substitution note (see DESIGN.md):** the paper discretizes with P1
//! finite elements via FreeFem++; we use a 5-point finite-difference flux
//! discretization on a uniform grid. The coefficient is affine in ρ, so the
//! discrete operator splits into exactly the same `A₀ + Σ ρ_i A_i`
//! structure with SPD blocks — which is all the solver and rounding
//! algorithms ever interact with. Grid sizes are chosen to match the
//! paper's mode-1 dimensions (2855/11141/24981 → 53²/105²/158²; Fig. 6's
//! 1781 → 42²).

#![forbid(unsafe_code)]

use tt_core::{TtCore, TtTensor};
use tt_linalg::Matrix;
use tt_solvers::{KroneckerSumOperator, MeanPreconditioner, ModeFactor};
use tt_sparse::{CooBuilder, CsrMatrix};

/// A disk inclusion ("cookie").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disk {
    /// Center x ∈ (−1, 1).
    pub cx: f64,
    /// Center y ∈ (−1, 1).
    pub cy: f64,
    /// Radius.
    pub radius: f64,
}

impl Disk {
    /// Whether `(x, y)` lies inside the disk.
    fn contains(&self, x: f64, y: f64) -> bool {
        let dx = x - self.cx;
        let dy = y - self.cy;
        dx * dx + dy * dy <= self.radius * self.radius
    }
}

/// The assembled cookies problem.
#[derive(Debug, Clone)]
pub struct CookiesProblem {
    /// Interior grid points per side; the spatial dimension is `grid²`.
    pub grid: usize,
    /// The disks.
    pub disks: Vec<Disk>,
    /// Parameter samples per disk (each log-spaced in `[0.1, 10]`).
    pub samples: Vec<Vec<f64>>,
    /// Background stiffness block `A₀` (σ ≡ 1).
    pub a0: CsrMatrix,
    /// Inclusion stiffness blocks `A_i` (indicator-coefficient flux terms).
    pub a_disks: Vec<CsrMatrix>,
}

/// The paper's default 2×2 cookie arrangement.
pub fn default_disks() -> Vec<Disk> {
    [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
        .into_iter()
        .map(|(cx, cy)| Disk {
            cx,
            cy,
            radius: 0.3,
        })
        .collect()
}

/// Log-spaced samples in `[0.1, 10]` (the paper's parameter distribution).
pub fn log_spaced_samples(count: usize) -> Vec<f64> {
    assert!(count >= 1);
    if count == 1 {
        return vec![1.0];
    }
    (0..count)
        .map(|k| 10f64.powf(-1.0 + 2.0 * k as f64 / (count - 1) as f64))
        .collect()
}

impl CookiesProblem {
    /// Assembles the problem on an interior `grid × grid` uniform grid of
    /// `(−1,1)²` with the default 4 disks, `samples_per_disk` log-spaced
    /// parameter values each.
    pub fn new(grid: usize, samples_per_disk: usize) -> Self {
        Self::with_disks(grid, default_disks(), samples_per_disk)
    }

    /// Assembles with a custom disk arrangement.
    pub fn with_disks(grid: usize, disks: Vec<Disk>, samples_per_disk: usize) -> Self {
        assert!(grid >= 2);
        let samples = vec![log_spaced_samples(samples_per_disk); disks.len()];
        let a0 = assemble_flux(grid, |_, _| 1.0);
        let a_disks = disks
            .iter()
            .map(|d| assemble_flux(grid, |x, y| if d.contains(x, y) { 1.0 } else { 0.0 }))
            .collect();
        CookiesProblem {
            grid,
            disks,
            samples,
            a0,
            a_disks,
        }
    }

    /// The three spatial refinements of §V-D1 (`level` 0, 1, 2): grids
    /// matching the paper's FEM dimensions 2855, 11141, 24981.
    pub fn paper_discretization(level: usize, samples_per_disk: usize) -> Self {
        let grid = match level {
            0 => 53,  // 2809 ≈ 2855
            1 => 105, // 11025 ≈ 11141
            2 => 158, // 24964 ≈ 24981
            #[expect(
                clippy::panic,
                reason = "constructor precondition on a compile-time-small enum of paper levels; a Result would only move the abort to every caller"
            )]
            _ => panic!("the paper uses 3 refinement levels"),
        };
        Self::new(grid, samples_per_disk)
    }

    /// Number of parameters `p`.
    pub fn num_params(&self) -> usize {
        self.disks.len()
    }

    /// Spatial dimension `I₁ = grid²`.
    pub fn spatial_dim(&self) -> usize {
        self.grid * self.grid
    }

    /// Tensor mode dimensions `[I₁, I₂, …, I_{p+1}]`.
    pub fn dims(&self) -> Vec<usize> {
        std::iter::once(self.spatial_dim())
            .chain(self.samples.iter().map(|s| s.len()))
            .collect()
    }

    /// The Kronecker-sum operator `G` (operator rank `p+1`).
    pub fn operator(&self) -> KroneckerSumOperator {
        let p = self.num_params();
        let mut op = KroneckerSumOperator::new();
        // Term 0: A₀ ⊗ I ⊗ … ⊗ I.
        let mut t0 = vec![ModeFactor::Sparse(self.a0.clone())];
        t0.extend((0..p).map(|_| ModeFactor::Identity));
        op.add_term(t0);
        // Term i: A_i ⊗ I … diag(ρ_i) … I.
        for i in 0..p {
            let mut t = vec![ModeFactor::Sparse(self.a_disks[i].clone())];
            for k in 0..p {
                if k == i {
                    t.push(ModeFactor::Diagonal(self.samples[i].clone()));
                } else {
                    t.push(ModeFactor::Identity);
                }
            }
            op.add_term(t);
        }
        op
    }

    /// The right-hand side `F = f ⊗ 1 ⊗ … ⊗ 1` with `f ≡ 1` (rank one).
    pub fn rhs(&self) -> TtTensor {
        let n1 = self.spatial_dim();
        let mut cores = Vec::with_capacity(self.num_params() + 1);
        cores.push(TtCore::from_v(Matrix::from_fn(n1, 1, |_, _| 1.0), 1, n1, 1));
        for s in &self.samples {
            let d = s.len();
            cores.push(TtCore::from_v(Matrix::from_fn(d, 1, |_, _| 1.0), 1, d, 1));
        }
        TtTensor::new(cores)
    }

    /// The mean spatial operator `Ḡ = A₀ + Σ mean(ρ_i)·A_i` (SPD, banded).
    pub fn mean_matrix(&self) -> CsrMatrix {
        let mut m = self.a0.clone();
        for (i, a) in self.a_disks.iter().enumerate() {
            let mean = self.samples[i].iter().sum::<f64>() / self.samples[i].len() as f64;
            m = m.add_scaled(mean, a);
        }
        m
    }

    /// The rank-one mean preconditioner \[26\].
    pub fn mean_preconditioner(&self) -> MeanPreconditioner {
        MeanPreconditioner::new(&self.mean_matrix())
    }

    /// Directly assembles the spatial operator for one fixed parameter
    /// value vector (test oracle for the affine decomposition).
    pub fn assemble_for(&self, rho: &[f64]) -> CsrMatrix {
        assert_eq!(rho.len(), self.disks.len());
        let disks = self.disks.clone();
        let rho = rho.to_vec();
        assemble_flux(self.grid, move |x, y| {
            let mut sigma = 1.0;
            for (d, r) in disks.iter().zip(&rho) {
                if d.contains(x, y) {
                    sigma += r;
                }
            }
            sigma
        })
    }
}

/// 5-point flux discretization of `−div(σ∇·)` on the interior grid of
/// `(−1,1)²` with homogeneous Dirichlet boundary, σ evaluated at face
/// midpoints. Scaled by `1/h²`.
fn assemble_flux(grid: usize, sigma: impl Fn(f64, f64) -> f64) -> CsrMatrix {
    let n = grid * grid;
    let h = 2.0 / (grid as f64 + 1.0);
    let coord = |k: usize| -1.0 + (k as f64 + 1.0) * h;
    let inv_h2 = 1.0 / (h * h);
    let mut b = CooBuilder::new(n, n);
    for gy in 0..grid {
        for gx in 0..grid {
            let row = gy * grid + gx;
            let (x, y) = (coord(gx), coord(gy));
            // Face conductivities at the four mid-edges.
            let se = sigma(x + 0.5 * h, y);
            let sw = sigma(x - 0.5 * h, y);
            let sn = sigma(x, y + 0.5 * h);
            let ss = sigma(x, y - 0.5 * h);
            let mut diag = 0.0;
            // East neighbor.
            diag += se;
            if gx + 1 < grid {
                b.add(row, row + 1, -se * inv_h2);
            }
            // West.
            diag += sw;
            if gx > 0 {
                b.add(row, row - 1, -sw * inv_h2);
            }
            // North.
            diag += sn;
            if gy + 1 < grid {
                b.add(row, row + grid, -sn * inv_h2);
            }
            // South.
            diag += ss;
            if gy > 0 {
                b.add(row, row - grid, -ss * inv_h2);
            }
            b.add(row, row, diag * inv_h2);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_solvers::{
        tt_gmres, GmresOptions, IdentityPreconditioner, Preconditioner, RoundingMethod,
    };

    #[test]
    fn geometry_is_sane() {
        let disks = default_disks();
        assert_eq!(disks.len(), 4);
        // Disjoint and inside the domain.
        for (i, a) in disks.iter().enumerate() {
            assert!(a.cx.abs() + a.radius < 1.0 && a.cy.abs() + a.radius < 1.0);
            for b in &disks[i + 1..] {
                let d = ((a.cx - b.cx).powi(2) + (a.cy - b.cy).powi(2)).sqrt();
                assert!(d > a.radius + b.radius, "disks overlap");
            }
        }
    }

    #[test]
    fn samples_are_log_spaced_in_range() {
        let s = log_spaced_samples(5);
        assert!((s[0] - 0.1).abs() < 1e-12);
        assert!((s[4] - 10.0).abs() < 1e-10);
        // geometric progression
        for w in s.windows(2) {
            assert!((w[1] / w[0] - s[1] / s[0]).abs() < 1e-10);
        }
    }

    #[test]
    fn stiffness_blocks_are_symmetric() {
        let p = CookiesProblem::new(12, 3);
        assert!(p.a0.is_symmetric(1e-12));
        for a in &p.a_disks {
            assert!(a.is_symmetric(1e-12));
        }
        assert!(p.mean_matrix().is_symmetric(1e-12));
    }

    #[test]
    fn affine_decomposition_matches_direct_assembly() {
        let p = CookiesProblem::new(14, 3);
        let rho = [0.7, 2.0, 0.1, 5.0];
        let direct = p.assemble_for(&rho);
        let mut affine = p.a0.clone();
        for (i, a) in p.a_disks.iter().enumerate() {
            affine = affine.add_scaled(rho[i], a);
        }
        assert_eq!(direct.to_dense().shape(), affine.to_dense().shape());
        let diff = direct.to_dense().max_abs_diff(&affine.to_dense());
        assert!(diff < 1e-9, "affine split mismatch {diff}");
    }

    #[test]
    fn mean_matrix_is_spd() {
        let p = CookiesProblem::new(10, 3);
        assert!(tt_sparse::BandedCholesky::factor(&p.mean_matrix()).is_some());
        assert!(tt_sparse::BandedCholesky::factor(&p.a0).is_some());
    }

    #[test]
    fn dims_and_operator_rank() {
        let p = CookiesProblem::new(8, 5);
        assert_eq!(p.dims(), vec![64, 5, 5, 5, 5]);
        assert_eq!(p.operator().operator_rank(), 5);
        assert_eq!(p.rhs().ranks(), vec![1; 6]);
    }

    #[test]
    fn paper_discretizations_match_dimensions() {
        assert_eq!(
            CookiesProblem::paper_discretization(0, 2).spatial_dim(),
            2809
        );
        assert_eq!(
            CookiesProblem::paper_discretization(1, 2).spatial_dim(),
            11025
        );
        assert_eq!(
            CookiesProblem::paper_discretization(2, 2).spatial_dim(),
            24964
        );
    }

    #[test]
    fn small_cookies_gmres_solves() {
        // Tiny instance: 2 disks on an 8×8 grid, 3 samples each.
        let disks = vec![
            Disk {
                cx: -0.4,
                cy: 0.0,
                radius: 0.25,
            },
            Disk {
                cx: 0.4,
                cy: 0.0,
                radius: 0.25,
            },
        ];
        let p = CookiesProblem::with_disks(8, disks, 3);
        let op = p.operator();
        let f = p.rhs();
        let pre = p.mean_preconditioner();
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 40,
            rounding: RoundingMethod::GramLrl,
            true_residual: tt_solvers::gmres::TrueResidualMode::Dense,
            stagnation_window: 5,
            restart: None,
        };
        let (u, trace) = tt_gmres(&op, &pre, &f, &opts);
        assert!(trace.converged, "{trace:?}");
        assert!(trace.true_relative_residual < 1e-5);
        // Solution is nontrivial and positive-ish in the interior (diffusion
        // with positive forcing): check a few entries of the dense solution
        // at the first parameter combination.
        let ud = u.to_dense();
        let mid = ud.at(&[p.spatial_dim() / 2, 0, 0]);
        assert!(mid > 0.0, "interior solution should be positive, got {mid}");
    }

    #[test]
    fn preconditioner_reduces_iterations_on_cookies() {
        let p = CookiesProblem::new(8, 3);
        let op = p.operator();
        let f = p.rhs();
        let opts = GmresOptions {
            tolerance: 1e-4,
            // Keep the unpreconditioned run short: without the mean
            // preconditioner the Krylov ranks (and iteration cost) grow
            // steadily, and all this test asserts is "preconditioned needs
            // fewer iterations".
            max_iters: 18,
            rounding: RoundingMethod::GramLrl,
            true_residual: tt_solvers::gmres::TrueResidualMode::Off,
            stagnation_window: 5,
            restart: None,
        };
        let pre = p.mean_preconditioner();
        let (_, with_pre) = tt_gmres(&op, &pre, &f, &opts);
        let (_, without) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
        assert!(with_pre.converged);
        assert!(
            with_pre.iterations.len() < without.iterations.len().max(2),
            "precond {} vs plain {}",
            with_pre.iterations.len(),
            without.iterations.len()
        );
        // The preconditioner leaves ranks unchanged per application.
        let x = f.clone();
        assert_eq!(pre.apply(&x).ranks(), x.ranks());
    }
}
