//! Checkpointing model (§4, Figure 13).
//!
//! "A job with checkpointing would incur overheads to save and load the
//! checkpoint when resuming training later. If the job does not perform
//! checkpointing, … its entire progress is lost." Checkpoints are taken
//! periodically (CheckFreq-style), so a preempted job resumes from the
//! *last completed checkpoint*, not from the exact preemption point — the
//! work since that checkpoint is lost even for checkpointing jobs.

/// Work preserved when a job checkpointing every `interval_work` work
/// units is preempted after completing `done` of them: the last multiple
/// of the interval.
///
/// # Examples
///
/// ```
/// use lyra_elastic::checkpoint::preserved_work;
/// assert_eq!(preserved_work(250.0, 100.0), 200.0);
/// assert_eq!(preserved_work(99.9, 100.0), 0.0);
/// ```
pub fn preserved_work(done: f64, interval_work: f64) -> f64 {
    if done <= 0.0 {
        return 0.0;
    }
    let interval = interval_work.max(1e-9);
    ((done / interval).floor() * interval).min(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_whole_checkpoints_only() {
        assert_eq!(preserved_work(0.0, 60.0), 0.0);
        assert_eq!(preserved_work(59.0, 60.0), 0.0);
        assert_eq!(preserved_work(60.0, 60.0), 60.0);
        assert_eq!(preserved_work(185.0, 60.0), 180.0);
    }

    #[test]
    fn negative_and_zero_inputs_are_safe() {
        assert_eq!(preserved_work(-5.0, 60.0), 0.0);
    }

    #[test]
    fn degenerate_interval_is_clamped() {
        // Clamped to a positive epsilon: everything is preserved.
        assert!(preserved_work(10.0, 0.0) <= 10.0 + 1e-9);
        assert!(preserved_work(10.0, 0.0) > 9.999);
    }
}
