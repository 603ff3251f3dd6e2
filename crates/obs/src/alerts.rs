//! The alert-rule engine: threshold and sustained-window rules over
//! the per-epoch telemetry gauges.
//!
//! Rules are evaluated once per scheduler epoch against the freshly
//! sampled gauge values. A rule whose condition holds for
//! `for_epochs` *consecutive* epochs fires once; it stays active until
//! the condition stops holding, at which point it resolves. Both
//! transitions are emitted as typed [`SchedEvent::Alert`] events into
//! the ordinary JSONL log, so alerts are replayable from a saved log,
//! attributable against the surrounding events, and pinned by the
//! golden-trace gate like every other event.
//!
//! Evaluation is a pure function of the sampled values and the
//! per-rule counters, so same-seed runs fire and resolve the same
//! alerts at the same epochs.
//!
//! [`SchedEvent::Alert`]: crate::event::SchedEvent::Alert

/// The comparison a rule applies to its gauge each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertCondition {
    /// Holds while the gauge is strictly above the threshold.
    Above(f64),
    /// Holds while the gauge is strictly below the threshold.
    Below(f64),
}

impl AlertCondition {
    /// Whether the condition holds for `value`.
    pub fn holds(&self, value: f64) -> bool {
        match self {
            AlertCondition::Above(t) => value > *t,
            AlertCondition::Below(t) => value < *t,
        }
    }

    /// The rule's threshold, for event payloads.
    pub fn threshold(&self) -> f64 {
        match self {
            AlertCondition::Above(t) | AlertCondition::Below(t) => *t,
        }
    }
}

/// One alert rule: a condition over a named telemetry series, sustained
/// for a window of consecutive epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, unique within the engine (`kebab-case` by convention).
    pub name: String,
    /// Telemetry series the rule watches (e.g. `queue.depth`).
    pub series: String,
    /// Threshold condition evaluated each epoch.
    pub condition: AlertCondition,
    /// Consecutive epochs the condition must hold before firing
    /// (1 = plain threshold rule).
    pub for_epochs: u32,
}

/// Per-rule evaluation state (checkpointed with the engine).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct RuleState {
    /// Consecutive epochs the condition has held.
    consecutive: u32,
    /// Whether the alert is currently firing.
    active: bool,
}

/// One fire/resolve transition produced by an evaluation round.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Rule that transitioned.
    pub rule: String,
    /// Series the rule watches.
    pub series: String,
    /// Gauge value that drove the transition.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// `true` on fire, `false` on resolve.
    pub fired: bool,
}

/// Evaluates a fixed rule set against per-epoch gauge samples.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
}

impl Default for AlertEngine {
    fn default() -> Self {
        AlertEngine::new(default_rules())
    }
}

impl AlertEngine {
    /// Creates an engine over `rules` with all counters reset.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        AlertEngine { rules, states }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluates every rule against this epoch's gauge values.
    ///
    /// `lookup` maps a series name to its current sampled value; a rule
    /// whose series was not sampled this epoch is skipped (its counter
    /// neither advances nor resets). Returns the fire/resolve
    /// transitions in rule order — deterministic given the samples.
    pub fn evaluate<F>(&mut self, lookup: F) -> Vec<AlertTransition>
    where
        F: Fn(&str) -> Option<f64>,
    {
        let mut out = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(value) = lookup(&rule.series) else {
                continue;
            };
            if rule.condition.holds(value) {
                state.consecutive = state.consecutive.saturating_add(1);
                if !state.active && state.consecutive >= rule.for_epochs {
                    state.active = true;
                    out.push(AlertTransition {
                        rule: rule.name.clone(),
                        series: rule.series.clone(),
                        value,
                        threshold: rule.condition.threshold(),
                        fired: true,
                    });
                }
            } else {
                state.consecutive = 0;
                if state.active {
                    state.active = false;
                    out.push(AlertTransition {
                        rule: rule.name.clone(),
                        series: rule.series.clone(),
                        value,
                        threshold: rule.condition.threshold(),
                        fired: false,
                    });
                }
            }
        }
        out
    }

    /// Whether rule `name` is currently firing.
    pub fn is_active(&self, name: &str) -> bool {
        self.rules
            .iter()
            .position(|r| r.name == name)
            .map(|i| self.states[i].active)
            .unwrap_or(false)
    }
}

/// The default scheduler health rules.
///
/// Thresholds target the cluster-dynamics failure modes the paper's
/// scheduler is supposed to avoid: a standing pending queue, a reclaim
/// debt that will not clear, and sustained preemption churn.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "queue-backlog".to_string(),
            series: "queue.depth".to_string(),
            condition: AlertCondition::Above(4.0),
            for_epochs: 10,
        },
        AlertRule {
            name: "reclaim-backlog".to_string(),
            series: "reclaim.carry_servers".to_string(),
            condition: AlertCondition::Above(0.0),
            for_epochs: 2,
        },
        AlertRule {
            name: "preemption-churn".to_string(),
            series: "rate.preemptions".to_string(),
            condition: AlertCondition::Above(0.0),
            for_epochs: 3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(for_epochs: u32) -> AlertRule {
        AlertRule {
            name: "test".to_string(),
            series: "queue.depth".to_string(),
            condition: AlertCondition::Above(5.0),
            for_epochs,
        }
    }

    #[test]
    fn threshold_rule_fires_and_resolves() {
        let mut eng = AlertEngine::new(vec![rule(1)]);
        assert!(eng.evaluate(|_| Some(3.0)).is_empty());
        let fired = eng.evaluate(|_| Some(9.0));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert!(eng.is_active("test"));
        // Still above: no duplicate fire.
        assert!(eng.evaluate(|_| Some(10.0)).is_empty());
        let resolved = eng.evaluate(|_| Some(1.0));
        assert_eq!(resolved.len(), 1);
        assert!(!resolved[0].fired);
        assert!(!eng.is_active("test"));
    }

    #[test]
    fn sustained_window_requires_consecutive_epochs() {
        let mut eng = AlertEngine::new(vec![rule(3)]);
        assert!(eng.evaluate(|_| Some(9.0)).is_empty());
        assert!(eng.evaluate(|_| Some(9.0)).is_empty());
        // A dip resets the streak.
        assert!(eng.evaluate(|_| Some(1.0)).is_empty());
        assert!(eng.evaluate(|_| Some(9.0)).is_empty());
        assert!(eng.evaluate(|_| Some(9.0)).is_empty());
        let fired = eng.evaluate(|_| Some(9.0));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
    }

    #[test]
    fn missing_series_is_skipped_without_reset() {
        let mut eng = AlertEngine::new(vec![rule(2)]);
        assert!(eng.evaluate(|_| Some(9.0)).is_empty());
        // Series absent this epoch: streak preserved, nothing fires.
        assert!(eng.evaluate(|_| None).is_empty());
        let fired = eng.evaluate(|_| Some(9.0));
        assert_eq!(fired.len(), 1);
    }
}
