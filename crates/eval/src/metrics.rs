//! Evaluation metrics: RMSE (the paper's Table II metric), paired
//! t-test for the significance stars, and clustering quality helpers.

/// Root mean squared error.
pub fn rmse(pred: &[f32], truth: &[f32]) -> f32 {
    catehgn::rmse(pred, truth)
}

/// Result of a paired t-test on per-sample squared errors.
#[derive(Clone, Copy, Debug)]
pub struct TTest {
    pub t: f32,
    /// Two-sided p-value (normal approximation — sample sizes here are in
    /// the hundreds, where t and z are indistinguishable).
    pub p: f32,
    pub dof: usize,
}

impl TTest {
    /// Significant at level `alpha`?
    pub fn significant(&self, alpha: f32) -> bool {
        self.p < alpha
    }
}

/// Paired t-test over the per-sample *squared errors* of two prediction
/// vectors against the same truth — the paper's significance test for the
/// starred Table II entries.
pub fn paired_ttest_sq_err(a: &[f32], b: &[f32], truth: &[f32]) -> TTest {
    assert_eq!(a.len(), truth.len());
    assert_eq!(b.len(), truth.len());
    let n = truth.len();
    assert!(n >= 2, "need at least two samples");
    let diffs: Vec<f32> = (0..n)
        .map(|i| {
            let ea = (a[i] - truth[i]) * (a[i] - truth[i]);
            let eb = (b[i] - truth[i]) * (b[i] - truth[i]);
            ea - eb
        })
        .collect();
    let mean = diffs.iter().sum::<f32>() / n as f32;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f32>() / (n - 1) as f32;
    let se = (var / n as f32).sqrt();
    let t = if se > 0.0 { mean / se } else { 0.0 };
    let p = 2.0 * (1.0 - std_normal_cdf(t.abs()));
    TTest { t, p, dof: n - 1 }
}

/// Standard normal CDF via the Abramowitz-Stegun erf approximation.
pub fn std_normal_cdf(x: f32) -> f32 {
    0.5 * (1.0 + erf(x / std::f32::consts::SQRT_2))
}

#[allow(clippy::excessive_precision)] // published A&S coefficients, f32-rounded
fn erf(x: f32) -> f32 {
    // Abramowitz & Stegun 7.1.26, |error| <= 1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Normalised mutual information between two hard clusterings — used to
/// score the CA module's learned domains against the generator's ground
/// truth.
pub fn nmi(a: &[usize], b: &[usize]) -> f32 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ka = a.iter().max().map_or(0, |m| m + 1);
    let kb = b.iter().max().map_or(0, |m| m + 1);
    let mut joint = vec![vec![0f64; kb]; ka];
    for (&x, &y) in a.iter().zip(b) {
        joint[x][y] += 1.0;
    }
    let nf = n as f64;
    let pa: Vec<f64> = joint.iter().map(|r| r.iter().sum::<f64>() / nf).collect();
    let mut pb = vec![0f64; kb];
    for r in &joint {
        for (j, &c) in r.iter().enumerate() {
            pb[j] += c / nf;
        }
    }
    let mut mi = 0.0;
    for (i, r) in joint.iter().enumerate() {
        for (j, &c) in r.iter().enumerate() {
            let pij = c / nf;
            if pij > 0.0 && pa[i] > 0.0 && pb[j] > 0.0 {
                mi += pij * (pij / (pa[i] * pb[j])).ln();
            }
        }
    }
    let ha: f64 = -pa.iter().filter(|&&p| p > 0.0).map(|&p| p * p.ln()).sum::<f64>();
    let hb: f64 = -pb.iter().filter(|&&p| p > 0.0).map(|&p| p * p.ln()).sum::<f64>();
    if ha <= 0.0 || hb <= 0.0 {
        0.0
    } else {
        (mi / (ha * hb).sqrt()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known_values() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0], &[3.0]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_is_sane() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(std_normal_cdf(-4.0) < 1e-3);
    }

    #[test]
    fn ttest_detects_clear_improvement() {
        // a is consistently closer to the truth than b.
        let truth: Vec<f32> = (0..200).map(|i| i as f32).collect();
        let a: Vec<f32> = truth.iter().map(|t| t + 0.1).collect();
        let b: Vec<f32> = truth.iter().map(|t| t + 5.0).collect();
        let tt = paired_ttest_sq_err(&a, &b, &truth);
        assert!(tt.t < 0.0, "a's errors are smaller");
        assert!(tt.significant(0.05), "p {}", tt.p);
    }

    #[test]
    fn ttest_accepts_identical_predictions() {
        let truth = [1.0f32, 2.0, 3.0];
        let a = [1.5f32, 2.5, 3.5];
        let tt = paired_ttest_sq_err(&a, &a, &truth);
        assert_eq!(tt.t, 0.0);
        assert!(!tt.significant(0.05));
    }

    #[test]
    fn nmi_extremes() {
        let a = [0usize, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-5);
        // A relabelled but identical partition still scores 1.
        let b = [2usize, 2, 0, 0, 1, 1];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-5);
        // Constant clustering carries no information.
        let c = [0usize; 6];
        assert_eq!(nmi(&a, &c), 0.0);
    }
}
