//! Scoped wall-clock timers for the hot paths, aggregated into a
//! per-phase self-time profile.
//!
//! A [`span`] guard times the scope it lives in; nested spans subtract
//! child time so the profile reports *self* time per phase as well as
//! inclusive totals. State is thread-local (one simulation per thread)
//! and disabled by default — an inactive span is one thread-local
//! boolean read, which keeps the instrumented hot paths within the
//! overhead budget when no observer is attached.
//!
//! Wall-clock readings never enter the event log or the telemetry
//! store, so timing does not perturb determinism; [`Profile`]
//! deliberately compares equal to any other profile for the same reason
//! (reports carrying profiles stay `==` across same-seed runs).

use std::cell::RefCell;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Aggregated timing for one named phase.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase name, e.g. `core.mckp`.
    pub name: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Inclusive wall time, seconds.
    pub total_s: f64,
    /// Self wall time (inclusive minus time in nested spans), seconds.
    pub self_s: f64,
}

/// A per-phase self-time profile, sorted by descending self time.
///
/// `PartialEq` is intentionally always-true: profiles carry wall-clock
/// measurements, which must not break value equality of otherwise
/// deterministic reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Profile(pub Vec<PhaseStat>);

impl PartialEq for Profile {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Profile {
    /// Renders the profile as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("phase                        calls     total_s      self_s\n");
        for p in &self.0 {
            out.push_str(&format!(
                "{:<28} {:>6} {:>11.6} {:>11.6}\n",
                p.name, p.calls, p.total_s, p.self_s
            ));
        }
        out
    }
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    child_s: f64,
}

struct ProfilerState {
    enabled: bool,
    stack: Vec<ActiveSpan>,
    // (calls, total_s, self_s) per phase name.
    totals: Vec<(&'static str, u64, f64, f64)>,
}

thread_local! {
    static PROFILER: RefCell<ProfilerState> = const {
        RefCell::new(ProfilerState { enabled: false, stack: Vec::new(), totals: Vec::new() })
    };
}

/// Enables or disables span timing on this thread; disabling also
/// clears accumulated state.
pub fn set_enabled(enabled: bool) {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = enabled;
        if !enabled {
            p.stack.clear();
            p.totals.clear();
        }
    });
}

/// Opens a timed span named `name`; timing stops when the returned
/// guard drops. Inactive (near-free) when timing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    let active = PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        if !p.enabled {
            return false;
        }
        p.stack.push(ActiveSpan {
            name,
            start: Instant::now(),
            child_s: 0.0,
        });
        true
    });
    SpanGuard { active }
}

/// RAII guard returned by [`span`]; records elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            let Some(span) = p.stack.pop() else { return };
            let elapsed = span.start.elapsed().as_secs_f64();
            let self_s = (elapsed - span.child_s).max(0.0);
            if let Some(parent) = p.stack.last_mut() {
                parent.child_s += elapsed;
            }
            if let Some(t) = p.totals.iter_mut().find(|t| t.0 == span.name) {
                t.1 += 1;
                t.2 += elapsed;
                t.3 += self_s;
            } else {
                p.totals.push((span.name, 1, elapsed, self_s));
            }
        });
    }
}

/// Takes the profile accumulated on this thread since timing was
/// enabled (or last taken), sorted by descending self time.
pub fn take_profile() -> Profile {
    let mut stats: Vec<PhaseStat> = PROFILER.with(|p| {
        p.borrow_mut()
            .totals
            .drain(..)
            .map(|(name, calls, total_s, self_s)| PhaseStat {
                name: name.to_string(),
                calls,
                total_s,
                self_s,
            })
            .collect()
    });
    stats.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.name.cmp(&b.name)));
    Profile(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        {
            let _g = span("test.noop");
        }
        assert!(take_profile().0.is_empty());
    }

    #[test]
    fn nested_spans_split_self_time() {
        set_enabled(true);
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let profile = take_profile();
        set_enabled(false);
        let outer = profile.0.iter().find(|p| p.name == "test.outer").unwrap();
        let inner = profile.0.iter().find(|p| p.name == "test.inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_s >= inner.total_s);
        assert!(
            outer.self_s <= outer.total_s - inner.total_s + 1e-9,
            "outer self time excludes inner: self={} total={} inner={}",
            outer.self_s,
            outer.total_s,
            inner.total_s
        );
    }

    #[test]
    fn reentrant_same_name_spans_accumulate_both_frames() {
        set_enabled(true);
        {
            let _outer = span("test.recursive");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("test.recursive");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let profile = take_profile();
        set_enabled(false);
        let stat = profile
            .0
            .iter()
            .find(|p| p.name == "test.recursive")
            .expect("phase recorded");
        // Both frames count as calls; the inner frame's elapsed time is
        // charged to the outer frame's child_s, so self time never
        // double-counts the overlap: self_s stays at (or below, via the
        // max(0) clamp) the inner frame's wall time plus the outer
        // frame's own exclusive time — i.e. strictly less than total_s,
        // which sums both inclusive frames.
        assert_eq!(stat.calls, 2);
        assert!(stat.self_s <= stat.total_s);
        assert!(stat.total_s > 0.0);
        // total_s includes the inner frame twice (once inclusively in
        // the outer frame); self_s must not.
        assert!(
            stat.self_s < stat.total_s,
            "re-entrant self time must exclude the nested frame: self={} total={}",
            stat.self_s,
            stat.total_s
        );
    }

    #[test]
    fn empty_profile_renders_header_only() {
        let rendered = Profile::default().render();
        assert_eq!(rendered.lines().count(), 1);
        assert!(rendered.starts_with("phase"));
        assert!(rendered.contains("self_s"));
    }

    #[test]
    fn profiles_compare_equal_regardless_of_timing() {
        let a = Profile(vec![PhaseStat {
            name: "x".into(),
            calls: 1,
            total_s: 1.0,
            self_s: 1.0,
        }]);
        let b = Profile(vec![]);
        assert_eq!(a, b);
    }
}
