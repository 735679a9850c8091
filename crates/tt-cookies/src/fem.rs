//! P1 finite-element assembly on a structured triangulation.
//!
//! The paper discretizes the cookies problem with P1 finite elements
//! (FreeFem++). This module provides a genuine P1 FEM assembly — linear
//! elements on the structured triangulation obtained by splitting each grid
//! cell of (−1,1)² along its SW–NE diagonal — as an alternative to the
//! finite-difference flux discretization in the crate root.
//!
//! Two properties make it a strong cross-check:
//!
//! * with σ ≡ 1, the assembled P1 stiffness matrix on this mesh is
//!   *identical* to the 5-point finite-difference Laplacian (a classical
//!   identity, verified in the tests), and
//! * with σ piecewise-constant per triangle (evaluated at centroids), the
//!   operator keeps the exact affine structure `A₀ + Σ ρ_i A_i` the TT
//!   solver machinery needs, while weighting the disk indicators the way a
//!   FEM quadrature would.

use tt_sparse::{CooBuilder, CsrMatrix};

/// Assembles the P1 stiffness matrix of `−div(σ∇·)` with homogeneous
/// Dirichlet boundary on the structured triangulation of (−1,1)² with
/// `grid × grid` interior nodes (matching the FDM node layout: node
/// `(gx, gy)` at `(−1 + (gx+1)h, −1 + (gy+1)h)`, `h = 2/(grid+1)`).
///
/// `sigma` is evaluated at triangle centroids (piecewise-constant
/// coefficient — the standard P0 quadrature for P1 elements).
pub fn assemble_p1(grid: usize, sigma: impl Fn(f64, f64) -> f64) -> CsrMatrix {
    assert!(grid >= 1);
    let n = grid * grid;
    let h = 2.0 / (grid as f64 + 1.0);
    // Global node lattice (including boundary): (grid+2) × (grid+2); node
    // (ix, iy) at (−1 + ix·h, −1 + iy·h). Interior nodes have
    // 1 ≤ ix, iy ≤ grid and unknown index (ix−1) + (iy−1)·grid.
    let coord = |k: usize| -1.0 + k as f64 * h;
    let interior = |ix: usize, iy: usize| -> Option<usize> {
        if ix >= 1 && ix <= grid && iy >= 1 && iy <= grid {
            Some((ix - 1) + (iy - 1) * grid)
        } else {
            None
        }
    };

    let mut b = CooBuilder::new(n, n);
    // Loop over cells; each cell (cx, cy) has corners
    //   sw = (cx, cy), se = (cx+1, cy), nw = (cx, cy+1), ne = (cx+1, cy+1)
    // and splits into triangles (sw, se, nw) and (se, ne, nw).
    for cy in 0..grid + 1 {
        for cx in 0..grid + 1 {
            let corners = [
                (cx, cy),         // sw
                (cx + 1, cy),     // se
                (cx, cy + 1),     // nw
                (cx + 1, cy + 1), // ne
            ];
            for tri in [[0usize, 1, 2], [1, 3, 2]] {
                let p: Vec<(f64, f64)> = tri
                    .iter()
                    .map(|&c| (coord(corners[c].0), coord(corners[c].1)))
                    .collect();
                let centroid = (
                    (p[0].0 + p[1].0 + p[2].0) / 3.0,
                    (p[0].1 + p[1].1 + p[2].1) / 3.0,
                );
                let s = sigma(centroid.0, centroid.1);
                // the indicator coefficient is piecewise-constant and returns literal 0.0 outside its disk — exact sparsity skip
                if s == 0.0 {
                    continue;
                }
                let k_local = p1_local_stiffness(&p, s);
                for (a, &ca) in tri.iter().enumerate() {
                    let Some(ia) = interior(corners[ca].0, corners[ca].1) else {
                        continue;
                    };
                    for (bb, &cb) in tri.iter().enumerate() {
                        if let Some(ib) = interior(corners[cb].0, corners[cb].1) {
                            b.add(ia, ib, k_local[a][bb]);
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Local P1 stiffness of a triangle with vertices `p` and constant
/// coefficient `s`: `K_ij = s · A · (∇λ_i · ∇λ_j)`.
fn p1_local_stiffness(p: &[(f64, f64)], s: f64) -> [[f64; 3]; 3] {
    let (x0, y0) = p[0];
    let (x1, y1) = p[1];
    let (x2, y2) = p[2];
    let det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0);
    let area = det.abs() / 2.0;
    // ∇λ_i = (b_i, c_i) / det with the standard cyclic formulas.
    let grads = [
        ((y1 - y2) / det, (x2 - x1) / det),
        ((y2 - y0) / det, (x0 - x2) / det),
        ((y0 - y1) / det, (x1 - x0) / det),
    ];
    let mut k = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            k[i][j] = s * area * (grads[i].0 * grads[j].0 + grads[i].1 * grads[j].1);
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fdm_laplacian(grid: usize) -> CsrMatrix {
        // σ ≡ 1 flux discretization, scaled like the FEM matrix: the FEM
        // stiffness has no 1/h² (it integrates ∇·∇), so multiply by h².
        let a = crate::assemble_flux_public(grid, |_, _| 1.0);
        let h = 2.0 / (grid as f64 + 1.0);
        let mut b = CooBuilder::new(a.rows(), a.cols());
        for i in 0..a.rows() {
            for (j, v) in a.row(i) {
                b.add(i, j, v * h * h);
            }
        }
        b.build()
    }

    #[test]
    fn p1_laplacian_equals_five_point_stencil() {
        // The classical identity: P1 on the diagonal-split structured mesh
        // assembles exactly the 5-point Laplacian (σ ≡ 1).
        for grid in [3usize, 6, 10] {
            let fem = assemble_p1(grid, |_, _| 1.0);
            let fdm = fdm_laplacian(grid);
            assert_eq!(fem.rows(), fdm.rows());
            let diff = fem.to_dense().max_abs_diff(&fdm.to_dense());
            assert!(
                diff < 1e-12,
                "grid {grid}: FEM vs FDM Laplacian diff {diff}"
            );
        }
    }

    #[test]
    fn p1_stiffness_is_symmetric_spd() {
        let disks = crate::default_disks();
        let a = assemble_p1(12, |x, y| {
            1.0 + if disks[0].contains_point(x, y) {
                3.0
            } else {
                0.0
            }
        });
        assert!(a.is_symmetric(1e-12));
        assert!(
            tt_sparse::BandedCholesky::factor(&a).is_some(),
            "must be SPD"
        );
    }

    #[test]
    fn local_stiffness_rows_sum_to_zero() {
        // Constants are in the P1 kernel: K · 1 = 0.
        let p = [(0.0, 0.0), (0.3, 0.1), (0.05, 0.4)];
        let k = p1_local_stiffness(&p, 2.5);
        for row in k {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-14, "row sum {s}");
        }
    }

    #[test]
    fn affine_decomposition_holds_for_fem() {
        // A(ρ) = A₀ + Σ ρ_i A_i with indicator blocks, exactly as for FDM.
        let disks = crate::default_disks();
        let grid = 10;
        let a0 = assemble_p1(grid, |_, _| 1.0);
        let blocks: Vec<CsrMatrix> = disks
            .iter()
            .map(|d| assemble_p1(grid, |x, y| if d.contains_point(x, y) { 1.0 } else { 0.0 }))
            .collect();
        let rho = [0.3, 2.0, 0.5, 7.0];
        let direct = assemble_p1(grid, |x, y| {
            let mut s = 1.0;
            for (d, r) in disks.iter().zip(&rho) {
                if d.contains_point(x, y) {
                    s += r;
                }
            }
            s
        });
        let mut affine = a0.clone();
        for (i, bl) in blocks.iter().enumerate() {
            affine = affine.add_scaled(rho[i], bl);
        }
        let diff = direct.to_dense().max_abs_diff(&affine.to_dense());
        assert!(diff < 1e-10, "affine split mismatch {diff}");
    }

    #[test]
    fn fem_and_fdm_solutions_converge_together() {
        // Solve −Δu = 1 with both discretizations; the discrete solutions
        // (same node layout) must agree to discretization accuracy.
        let grid = 24;
        let fem = assemble_p1(grid, |_, _| 1.0);
        let fdm = crate::assemble_flux_public(grid, |_, _| 1.0);
        let h = 2.0 / (grid as f64 + 1.0);
        let n = grid * grid;
        // FEM rhs: load ∫f·φ ≈ f·h² per node; FDM rhs: f per node (A has
        // the 1/h² scaling built in).
        let mut x_fem = vec![h * h; n];
        tt_sparse::BandedCholesky::factor(&fem)
            .unwrap()
            .solve_in_place(&mut x_fem);
        let mut x_fdm = vec![1.0; n];
        tt_sparse::BandedCholesky::factor(&fdm)
            .unwrap()
            .solve_in_place(&mut x_fdm);
        let max_u = x_fdm.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (x_fem[i] - x_fdm[i]).abs() < 1e-10 * (1.0 + max_u),
                "node {i}: fem {} vs fdm {}",
                x_fem[i],
                x_fdm[i]
            );
        }
    }
}
