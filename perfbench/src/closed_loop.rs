//! The closed loop: one client, and the next request starts only when the
//! previous one has returned.

/// When a run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Measure at least this long (ns since the loop started).
    pub min_ns: u64,
    /// Never start a request after this point (ns since the loop started),
    /// even in the middle of a rotation.
    pub cap_ns: u64,
    /// Requests per rotation; past `min_ns` the loop stops only on a
    /// multiple of it, so every run does whole rotations.
    pub rotation: u64,
}

/// Issues requests `0, 1, 2, …` through `step` until `min_ns` has passed
/// on a rotation boundary or `cap_ns` has passed. `elapsed_ns` reads the
/// time since the loop started. Returns the number of requests issued.
pub fn run(plan: &Plan, mut elapsed_ns: impl FnMut() -> u64, mut step: impl FnMut(u64)) -> u64 {
    let rotation = plan.rotation.max(1);
    let mut issued = 0u64;
    loop {
        let now = elapsed_ns();
        let on_boundary = issued > 0 && issued.is_multiple_of(rotation);
        if (on_boundary && now >= plan.min_ns) || now >= plan.cap_ns {
            return issued;
        }
        step(issued);
        issued += 1;
    }
}

/// The requests of a run that count: the whole rotations among the
/// `issued`. A run without one whole rotation has no valid measurement.
pub fn counted(issued: u64, rotation: u64) -> Result<u64, String> {
    let rotation = rotation.max(1);
    let whole = issued - issued % rotation;
    if whole == 0 {
        return Err(format!(
            "the run stopped after {issued} requests, before a full rotation of {rotation}"
        ));
    }
    Ok(whole)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Runs the loop against a fake clock where every request takes
    /// `step_ns`; returns the number of requests issued.
    fn simulate(plan: Plan, step_ns: u64) -> u64 {
        let now = Cell::new(0u64);
        run(&plan, || now.get(), |_| now.set(now.get() + step_ns))
    }

    #[test]
    fn stops_on_the_first_boundary_after_the_minimum() {
        let plan = Plan {
            min_ns: 10,
            cap_ns: 1000,
            rotation: 6,
        };
        // The minimum passes after request 4 of the first rotation; the
        // loop finishes the rotation.
        assert_eq!(simulate(plan, 3), 6);
        // It passes in the second rotation: two whole rotations.
        assert_eq!(simulate(plan, 1), 12);
        assert_eq!(counted(12, 6), Ok(12));
    }

    #[test]
    fn table3_run_cut_before_a_full_rotation_has_no_measurement() {
        // A table3_cell run (six read points per rotation) whose requests
        // are so slow that the cap falls inside the first rotation.
        let plan = Plan {
            min_ns: 10,
            cap_ns: 40,
            rotation: 6,
        };
        let issued = simulate(plan, 10);
        assert_eq!(issued, 4);
        assert!(counted(issued, 6).is_err());
        // Cut inside the second rotation: only the first one counts.
        assert_eq!(counted(9, 6), Ok(6));
    }

    #[test]
    fn rotation_one_stops_as_soon_as_the_minimum_passes() {
        let plan = Plan {
            min_ns: 10,
            cap_ns: 1000,
            rotation: 1,
        };
        assert_eq!(simulate(plan, 4), 3);
        assert_eq!(counted(3, 1), Ok(3));
        // At least one request even when the minimum is zero.
        let zero = Plan { min_ns: 0, ..plan };
        assert_eq!(simulate(zero, 4), 1);
    }
}
