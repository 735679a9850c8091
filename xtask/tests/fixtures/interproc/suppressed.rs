//! Suppression fixture for the graph passes: the finding below is real (it
//! fires without the annotation) and the annotation must be consumed.

pub fn round_suppressed(acc: f64) -> f64 {
    // analyze::allow(determinism): fixture — wall-clock read feeds a report
    // string, never a numeric result.
    let t = std::time::Instant::now();
    acc + t.elapsed().as_secs_f64()
}
