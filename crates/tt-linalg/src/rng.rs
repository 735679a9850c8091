//! Minimal random-variate helpers.
//!
//! The reproduction only needs uniform and standard-normal `f64` draws, so we
//! generate normals with Box–Muller on top of `rand`'s uniform source instead
//! of pulling in a distributions crate.

use rand::Rng;

/// Fills `out` with i.i.d. standard-normal samples via Box–Muller.
pub fn fill_standard_normal(out: &mut [f64], rng: &mut impl Rng) {
    let mut i = 0;
    while i < out.len() {
        let (z0, z1) = box_muller_pair(rng);
        out[i] = z0;
        if i + 1 < out.len() {
            out[i + 1] = z1;
        }
        i += 2;
    }
}

fn box_muller_pair(rng: &mut impl Rng) -> (f64, f64) {
    // u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn moments_are_roughly_standard_normal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut buf = vec![0.0; 100_000];
        fill_standard_normal(&mut buf, &mut rng);
        let n = buf.len() as f64;
        let mean = buf.iter().sum::<f64>() / n;
        let var = buf.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn all_finite() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut buf = vec![0.0; 1001];
        fill_standard_normal(&mut buf, &mut rng);
        assert!(buf.iter().all(|x| x.is_finite()));
    }
}
