//! Drop-request penalty multipliers (paper Sec. 3.2, Table 5).
//!
//! When a constrained cluster must drop requests, the dropped fraction
//! incurs a penalty shaped like the service-credit tables of public
//! cloud SLAs (the paper borrows AWS's): availability at or above 99%
//! costs nothing, then 25%, 50%, and 100% credits at the 95% and 90%
//! availability breakpoints. The *effective utility* of a job is
//! `EU = phi(d) * U` where `phi(d) = 1 - penalty(1 - d)`.
//!
//! The step-shaped table is itself a plateau; the relaxed variant
//! interpolates the table piecewise-linearly so the optimizer sees a
//! slope everywhere (paper Sec. 3.4).

/// The AWS-style service-credit table: `penalty(availability)`.
///
/// # Examples
///
/// ```
/// use faro_core::penalty::step_penalty;
///
/// assert_eq!(step_penalty(0.995), 0.0);
/// assert_eq!(step_penalty(0.97), 0.25);
/// assert_eq!(step_penalty(0.92), 0.50);
/// assert_eq!(step_penalty(0.50), 1.00);
/// ```
pub fn step_penalty(availability: f64) -> f64 {
    if availability >= 0.99 {
        0.0
    } else if availability >= 0.95 {
        0.25
    } else if availability >= 0.90 {
        0.50
    } else {
        1.0
    }
}

/// Piecewise-linear relaxation of [`step_penalty`]: linear between the
/// breakpoints `(0.90, 1.0) -> (0.95, 0.50) -> (0.99, 0.25) -> (0.99+, 0)`,
/// and linear from `(0, 1)` below 90% availability.
pub fn relaxed_penalty(availability: f64) -> f64 {
    let a = availability.clamp(0.0, 1.0);
    // Breakpoints (availability, penalty), increasing availability.
    const POINTS: [(f64, f64); 4] = [(0.0, 1.0), (0.90, 1.0), (0.95, 0.50), (0.99, 0.0)];
    if a >= 0.99 {
        return 0.0;
    }
    for w in POINTS.windows(2) {
        let (a0, p0) = w[0];
        let (a1, p1) = w[1];
        if a <= a1 {
            if a1 == a0 {
                return p1;
            }
            return p0 + (p1 - p0) * (a - a0) / (a1 - a0);
        }
    }
    0.0
}

/// Which penalty shape to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltyShape {
    /// The exact step table (precise formulation).
    Step,
    /// The piecewise-linear relaxation (plateau-free).
    Relaxed,
}

/// The effective-utility multiplier `phi(d) = 1 - penalty(1 - d)` for a
/// drop rate `d` in `[0, 1]`.
pub fn phi(drop_rate: f64, shape: PenaltyShape) -> f64 {
    let availability = 1.0 - drop_rate.clamp(0.0, 1.0);
    let p = match shape {
        PenaltyShape::Step => step_penalty(availability),
        PenaltyShape::Relaxed => relaxed_penalty(availability),
    };
    1.0 - p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_table_breakpoints() {
        assert_eq!(step_penalty(1.0), 0.0);
        assert_eq!(step_penalty(0.99), 0.0);
        assert_eq!(step_penalty(0.9899), 0.25);
        assert_eq!(step_penalty(0.95), 0.25);
        assert_eq!(step_penalty(0.9499), 0.50);
        assert_eq!(step_penalty(0.90), 0.50);
        assert_eq!(step_penalty(0.8999), 1.0);
        assert_eq!(step_penalty(0.0), 1.0);
    }

    #[test]
    fn relaxed_matches_step_at_anchors() {
        assert_eq!(relaxed_penalty(1.0), 0.0);
        assert_eq!(relaxed_penalty(0.99), 0.0);
        assert!((relaxed_penalty(0.95) - 0.50).abs() < 1e-12);
        assert!((relaxed_penalty(0.90) - 1.0).abs() < 1e-12);
        assert_eq!(relaxed_penalty(0.5), 1.0);
    }

    #[test]
    fn relaxed_is_monotone_decreasing_in_availability() {
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let a = f64::from(i) / 100.0;
            let p = relaxed_penalty(a);
            assert!(p <= prev + 1e-12, "availability {a}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn relaxed_has_no_interior_plateau_in_active_band() {
        // Between 90% and 99% availability the slope must be non-zero.
        let p1 = relaxed_penalty(0.93);
        let p2 = relaxed_penalty(0.935);
        assert!(p2 < p1);
        let p3 = relaxed_penalty(0.97);
        let p4 = relaxed_penalty(0.975);
        assert!(p4 < p3);
    }

    #[test]
    fn phi_semantics() {
        // No drops: full effective utility.
        assert_eq!(phi(0.0, PenaltyShape::Step), 1.0);
        assert_eq!(phi(0.0, PenaltyShape::Relaxed), 1.0);
        // Dropping under 1% costs nothing (availability >= 99%).
        assert_eq!(phi(0.01, PenaltyShape::Step), 1.0);
        // Dropping 6% lands in the 50% credit band.
        assert_eq!(phi(0.06, PenaltyShape::Step), 0.5);
        // Dropping everything zeroes utility.
        assert_eq!(phi(1.0, PenaltyShape::Step), 0.0);
        assert_eq!(phi(1.0, PenaltyShape::Relaxed), 0.0);
    }

    #[test]
    fn phi_clamps_out_of_range() {
        assert_eq!(phi(-0.5, PenaltyShape::Step), 1.0);
        assert_eq!(phi(1.5, PenaltyShape::Relaxed), 0.0);
    }
}
