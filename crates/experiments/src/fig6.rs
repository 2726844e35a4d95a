//! Figure 6: the Fourier transform of a decaying exponential.
//!
//! `|X(ω)| = 1/√(ω² + α²)`: the AVG_N smoothing kernel "attenuates,
//! but does not eliminate, higher frequency elements. If the input
//! signal oscillates, the output will oscillate as well."

use core::fmt;

use analysis::{avg_n_alpha, decaying_exp_spectrum};
use sim_core::{SimTime, TimeSeries};

use crate::report;

/// The spectrum curve plus its interpretation for a given AVG_N.
pub struct Fig6 {
    /// `(ω, |X(ω)|)` over the plotted range, stored with ω·1000 as the
    /// series "time" axis (ω is dimensionless in the figure).
    pub spectrum: TimeSeries,
    /// The decay rate plotted.
    pub alpha: f64,
    /// The N whose 10 ms-interval kernel this α corresponds to.
    pub n: u32,
}

/// Computes the spectrum for the kernel of `AVG_n` at 10 ms intervals,
/// normalised the way the figure plots it (ω in kernel-decay units).
pub fn run(n: u32) -> Fig6 {
    // Express alpha per-interval (dt = 1 interval), matching the
    // figure's dimensionless axis (0..15).
    let alpha = avg_n_alpha(n, 1.0);
    let mut spectrum = TimeSeries::new(format!("spectrum_avg{n}"));
    let mut omega = 0.0;
    while omega <= 15.0 {
        spectrum.push(
            SimTime::from_micros((omega * 1000.0) as u64),
            decaying_exp_spectrum(alpha, omega),
        );
        omega += 0.05;
    }
    Fig6 { spectrum, alpha, n }
}

impl Fig6 {
    /// Attenuation (relative to DC) at frequency `omega`.
    pub fn relative_attenuation(&self, omega: f64) -> f64 {
        decaying_exp_spectrum(self.alpha, omega) / decaying_exp_spectrum(self.alpha, 0.0)
    }

    /// Writes the curve as CSV.
    pub fn save(&self) -> std::io::Result<()> {
        report::save_series("fig6", &[&self.spectrum]).map(|_| ())
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: |X(w)| = 1/sqrt(w^2 + a^2) for AVG_{} (a = {:.3}/interval)",
            self.n, self.alpha
        )?;
        let rows: Vec<Vec<String>> = [0.0, 1.0, 2.0, 5.0, 10.0, 15.0]
            .iter()
            .map(|&w| {
                vec![
                    format!("{w:.1}"),
                    format!("{:.4}", decaying_exp_spectrum(self.alpha, w)),
                    format!("{:.1}%", self.relative_attenuation(w) * 100.0),
                ]
            })
            .collect();
        f.write_str(&report::render_table(&["w", "|X(w)|", "vs DC"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_shape_matches_figure() {
        let fig = run(3);
        let vals = fig.spectrum.values();
        assert!(vals.len() > 100, "{} spectrum points", vals.len());
        // Monotone decreasing, strictly positive everywhere.
        for w in vals.windows(2) {
            assert!(w[1] < w[0]);
            assert!(w[1] > 0.0);
        }
        // DC value is 1/alpha.
        assert!((vals[0] - 1.0 / fig.alpha).abs() < 1e-9);
    }

    #[test]
    fn high_frequencies_survive() {
        // The crux: even at the top of the plotted range the response
        // is meaningfully non-zero, so oscillating inputs produce
        // oscillating outputs.
        let fig = run(3);
        assert!(fig.relative_attenuation(15.0) > 0.01);
    }

    #[test]
    fn larger_n_means_smaller_alpha_and_sharper_rolloff() {
        let f3 = run(3);
        let f9 = run(9);
        assert!(f9.alpha < f3.alpha);
        assert!(f9.relative_attenuation(5.0) < f3.relative_attenuation(5.0));
    }
}
