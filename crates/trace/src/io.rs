//! CSV import/export for traces.
//!
//! A small self-contained CSV codec (the traces have no quoting needs) so
//! generated traces can be inspected, archived and replayed — the workflow
//! the paper uses with its production traces.

use crate::inference::{InferenceTrace, InferenceTraceConfig};
use crate::jobgen::{JobTrace, TraceConfig};
use lyra_core::gpu::GpuType;
use lyra_core::job::{Elasticity, JobId, JobSpec, ModelFamily, ScalingCurve};
use std::fmt::Write as _;

/// Errors raised by the CSV codec.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceIoError {
    /// A row had the wrong number of fields.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The header line did not match the expected schema.
    BadHeader(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadRow { line, reason } => {
                write!(f, "bad trace row at line {line}: {reason}")
            }
            TraceIoError::BadHeader(h) => write!(f, "bad trace header: {h}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

const JOB_HEADER: &str =
    "id,submit_s,gpus_per_worker,demand,w_min,w_max,min_running_time_s,fungible,hetero,checkpoint,model,curve";

fn model_tag(m: ModelFamily) -> &'static str {
    match m {
        ModelFamily::ResNet50 => "resnet50",
        ModelFamily::Vgg16 => "vgg16",
        ModelFamily::Bert => "bert",
        ModelFamily::Gnmt16 => "gnmt16",
        ModelFamily::Generic => "generic",
    }
}

fn parse_model(tag: &str) -> Option<ModelFamily> {
    Some(match tag {
        "resnet50" => ModelFamily::ResNet50,
        "vgg16" => ModelFamily::Vgg16,
        "bert" => ModelFamily::Bert,
        "gnmt16" => ModelFamily::Gnmt16,
        "generic" => ModelFamily::Generic,
        _ => return None,
    })
}

fn curve_tag(c: &ScalingCurve) -> String {
    match c {
        ScalingCurve::Linear => "linear".to_string(),
        ScalingCurve::PerWorkerLoss { loss } => format!("loss:{loss}"),
        ScalingCurve::Table(t) => {
            let vals: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            format!("table:{}", vals.join(";"))
        }
    }
}

fn parse_curve(tag: &str) -> Option<ScalingCurve> {
    if tag == "linear" {
        return Some(ScalingCurve::Linear);
    }
    if let Some(loss) = tag.strip_prefix("loss:") {
        return Some(ScalingCurve::PerWorkerLoss {
            loss: loss.parse().ok()?,
        });
    }
    if let Some(vals) = tag.strip_prefix("table:") {
        let table: Option<Vec<f64>> = vals.split(';').map(|v| v.parse().ok()).collect();
        return Some(ScalingCurve::Table(table?));
    }
    None
}

/// Serialises a job trace to CSV.
pub fn jobs_to_csv(trace: &JobTrace) -> String {
    let mut out = String::new();
    out.push_str(JOB_HEADER);
    out.push('\n');
    for j in &trace.jobs {
        let (w_min, w_max) = (j.w_min(), j.w_max());
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            j.id.0,
            j.submit_time_s,
            j.gpus_per_worker,
            j.demand,
            if j.is_elastic() { w_min } else { 0 },
            if j.is_elastic() { w_max } else { 0 },
            j.min_running_time_s,
            u8::from(j.fungible),
            u8::from(j.hetero_capable),
            u8::from(j.checkpointing),
            model_tag(j.model),
            curve_tag(&j.curve),
        )
        .expect("string write cannot fail");
    }
    out
}

/// Parses a job trace from CSV produced by [`jobs_to_csv`].
///
/// The returned trace carries `config` (CSV does not embed it — pass the
/// one used for generation, or a default for foreign traces).
///
/// # Errors
///
/// [`TraceIoError::BadHeader`] for a foreign header;
/// [`TraceIoError::BadRow`] for a malformed field, a `submit_s` or
/// `min_running_time_s` that is negative or not finite, an invalid
/// elasticity range, `gpus_per_worker = 0`, or a row whose largest GPU
/// demand (`max(demand, w_max) × gpus_per_worker`) does not fit in `u32`.
pub fn jobs_from_csv(csv: &str, config: TraceConfig) -> Result<JobTrace, TraceIoError> {
    let mut lines = csv.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == JOB_HEADER => {}
        Some((_, h)) => return Err(TraceIoError::BadHeader(h.to_string())),
        None => return Err(TraceIoError::BadHeader("empty input".to_string())),
    }
    let mut jobs = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let bad = |reason: &str| TraceIoError::BadRow {
            line: i + 1,
            reason: reason.to_string(),
        };
        if fields.len() != 12 {
            return Err(bad(&format!("expected 12 fields, got {}", fields.len())));
        }
        let parse_u32 = |s: &str, what: &str| {
            s.parse::<u32>()
                .map_err(|_| bad(&format!("bad {what}: {s}")))
        };
        // Times are seconds: NaN, ±inf or a negative value would reorder
        // the trace or poison every duration derived from it.
        let parse_seconds = |s: &str, what: &str| match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err(bad(&format!("bad {what}: {s}"))),
        };
        let id = fields[0]
            .parse::<u64>()
            .map_err(|_| bad(&format!("bad id: {}", fields[0])))?;
        let submit = parse_seconds(fields[1], "submit_s")?;
        let gpw = parse_u32(fields[2], "gpus_per_worker")?;
        let demand = parse_u32(fields[3], "demand")?;
        let w_min = parse_u32(fields[4], "w_min")?;
        let w_max = parse_u32(fields[5], "w_max")?;
        let min_rt = parse_seconds(fields[6], "min_running_time_s")?;
        let flag = |s: &str, what: &str| match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(&format!("bad {what}: {s}"))),
        };
        let fungible = flag(fields[7], "fungible")?;
        let hetero = flag(fields[8], "hetero")?;
        let checkpoint = flag(fields[9], "checkpoint")?;
        let model = parse_model(fields[10]).ok_or_else(|| bad("unknown model"))?;
        let curve = parse_curve(fields[11]).ok_or_else(|| bad("unknown curve"))?;
        let elasticity = if w_min == 0 && w_max == 0 {
            None
        } else {
            if w_min == 0 || w_min > w_max {
                return Err(bad("invalid elasticity range"));
            }
            Some(Elasticity::new(w_min, w_max))
        };
        // Phase 2 weighs items as workers × GPUs per worker in `u32`: a
        // zero factor or a product past `u32::MAX` would hand the knapsack
        // weightless or wrapped (tiny) items.
        if gpw == 0 {
            return Err(bad("gpus_per_worker must be positive"));
        }
        if demand.max(w_max).checked_mul(gpw).is_none() {
            return Err(bad("max workers × gpus_per_worker overflows u32"));
        }
        jobs.push(JobSpec {
            id: JobId(id),
            submit_time_s: submit,
            gpus_per_worker: gpw,
            demand,
            elasticity,
            min_running_time_s: min_rt,
            fungible,
            hetero_capable: hetero,
            checkpointing: checkpoint,
            model,
            curve,
            reference_gpu: GpuType::V100,
            shrink_cost_s: 0.0,
            expand_cost_s: 0.0,
            deadline_s: None,
        });
    }
    Ok(JobTrace { config, jobs })
}

/// Serialises an inference utilisation trace to CSV.
pub fn utilization_to_csv(trace: &InferenceTrace) -> String {
    let mut out = String::from("interval,utilization\n");
    for (i, u) in trace.samples.iter().enumerate() {
        writeln!(out, "{i},{u}").expect("string write cannot fail");
    }
    out
}

/// Parses a utilisation trace from CSV produced by [`utilization_to_csv`].
///
/// # Errors
///
/// [`TraceIoError::BadHeader`] for a foreign header;
/// [`TraceIoError::BadRow`] for a row without two fields or a
/// utilisation that is not a number in `[0, 1]` (NaN and ±inf
/// included).
pub fn utilization_from_csv(
    csv: &str,
    config: InferenceTraceConfig,
) -> Result<InferenceTrace, TraceIoError> {
    let mut lines = csv.lines().enumerate();
    match lines.next() {
        Some((_, "interval,utilization")) => {}
        Some((_, h)) => return Err(TraceIoError::BadHeader(h.to_string())),
        None => return Err(TraceIoError::BadHeader("empty input".to_string())),
    }
    let mut samples = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (_, v) = line.split_once(',').ok_or(TraceIoError::BadRow {
            line: i + 1,
            reason: "expected 2 fields".to_string(),
        })?;
        match v.parse::<f64>() {
            Ok(u) if (0.0..=1.0).contains(&u) => samples.push(u),
            _ => {
                return Err(TraceIoError::BadRow {
                    line: i + 1,
                    reason: format!("bad utilization: {v}"),
                })
            }
        }
    }
    Ok(InferenceTrace { config, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceTrace;

    #[test]
    fn job_trace_roundtrips() {
        // The second trace is paper-shaped with every flag the generator
        // samples (elastic, fungible, hetero, checkpointing) present, and
        // must pass the GPU-demand bounds.
        let small = JobTrace::generate(TraceConfig::small(2));
        let flagged = JobTrace::generate(TraceConfig {
            days: 1,
            frac_elastic: 0.2,
            frac_hetero: 0.1,
            frac_checkpoint: 0.3,
            ..TraceConfig::default()
        });
        for flag in [
            |j: &JobSpec| j.is_elastic(),
            |j: &JobSpec| j.fungible,
            |j: &JobSpec| j.hetero_capable,
            |j: &JobSpec| j.checkpointing,
        ] {
            assert!(flagged.jobs.iter().any(flag));
            assert!(!flagged.jobs.iter().all(flag));
        }
        for trace in [small, flagged] {
            let csv = jobs_to_csv(&trace);
            let parsed = jobs_from_csv(&csv, trace.config).expect("roundtrip parses");
            assert_eq!(parsed.jobs, trace.jobs);
        }
    }

    #[test]
    fn utilization_roundtrips() {
        let config = InferenceTraceConfig {
            days: 1,
            ..Default::default()
        };
        let trace = InferenceTrace::generate(config);
        let csv = utilization_to_csv(&trace);
        let parsed = utilization_from_csv(&csv, config).expect("roundtrip parses");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn bad_header_is_rejected() {
        let err = jobs_from_csv("id,oops\n", TraceConfig::small(1)).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader(_)));
        let err = utilization_from_csv("nope\n", InferenceTraceConfig::default()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader(_)));
    }

    #[test]
    fn bad_rows_report_line_numbers() {
        let csv = format!("{JOB_HEADER}\n1,2,3\n");
        match jobs_from_csv(&csv, TraceConfig::small(1)) {
            Err(TraceIoError::BadRow { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRow, got {other:?}"),
        }
    }

    #[test]
    fn curve_tags_roundtrip() {
        for curve in [
            ScalingCurve::Linear,
            ScalingCurve::PerWorkerLoss { loss: 0.2 },
            ScalingCurve::Table(vec![1.0, 1.9, 2.75]),
        ] {
            let tag = curve_tag(&curve);
            assert_eq!(parse_curve(&tag), Some(curve));
        }
        assert_eq!(parse_curve("nonsense"), None);
    }

    fn row_error(row: &str) -> String {
        let csv = format!("{JOB_HEADER}\n{row}\n");
        match jobs_from_csv(&csv, TraceConfig::small(1)) {
            Err(TraceIoError::BadRow { line, reason }) => {
                assert_eq!(line, 2);
                reason
            }
            other => panic!("expected BadRow, got {other:?}"),
        }
    }

    #[test]
    fn zero_gpus_per_worker_rejected() {
        let reason = row_error("0,0,0,2,2,4,10,0,0,0,generic,linear");
        assert!(reason.contains("gpus_per_worker"), "{reason}");
    }

    #[test]
    fn overflowing_gpu_demand_rejected() {
        // Elastic: w_max × gpw = 2^16 × 2^16 = 2^32.
        let reason = row_error("0,0,65536,1,1,65536,10,0,0,0,generic,linear");
        assert!(reason.contains("overflows"), "{reason}");
        // Inelastic: the demand field carries the size.
        let reason = row_error("0,0,8,536870912,0,0,10,0,0,0,generic,linear");
        assert!(reason.contains("overflows"), "{reason}");
        // The largest product that fits is accepted.
        let csv = format!("{JOB_HEADER}\n0,0,65535,65537,0,0,10,0,0,0,generic,linear\n");
        let trace = jobs_from_csv(&csv, TraceConfig::small(1)).expect("fits in u32");
        assert_eq!(trace.jobs[0].max_gpus(), u32::MAX);
    }

    #[test]
    fn non_finite_or_negative_submit_time_rejected() {
        for submit in ["NaN", "inf", "-inf", "-1"] {
            let reason = row_error(&format!("0,{submit},1,2,0,0,10,0,0,0,generic,linear"));
            assert_eq!(reason, format!("bad submit_s: {submit}"));
        }
    }

    #[test]
    fn non_finite_or_negative_min_running_time_rejected() {
        for min_rt in ["NaN", "inf", "-inf", "-0.5"] {
            let reason = row_error(&format!("0,0,1,2,0,0,{min_rt},0,0,0,generic,linear"));
            assert_eq!(reason, format!("bad min_running_time_s: {min_rt}"));
        }
    }

    /// The line and reason of a utilisation CSV whose third line carries
    /// `value`.
    fn utilization_row_error(value: &str) -> (usize, String) {
        let csv = format!("interval,utilization\n0,0.5\n1,{value}\n");
        match utilization_from_csv(&csv, InferenceTraceConfig::default()) {
            Err(TraceIoError::BadRow { line, reason }) => (line, reason),
            other => panic!("expected BadRow for {value}, got {other:?}"),
        }
    }

    #[test]
    fn nan_utilization_rejected() {
        assert_eq!(
            utilization_row_error("NaN"),
            (3, "bad utilization: NaN".to_string())
        );
    }

    #[test]
    fn infinite_utilization_rejected() {
        for v in ["inf", "-inf"] {
            assert_eq!(
                utilization_row_error(v),
                (3, format!("bad utilization: {v}"))
            );
        }
    }

    #[test]
    fn negative_utilization_rejected() {
        assert_eq!(
            utilization_row_error("-0.01"),
            (3, "bad utilization: -0.01".to_string())
        );
    }

    #[test]
    fn utilization_above_one_rejected() {
        assert_eq!(
            utilization_row_error("1.01"),
            (3, "bad utilization: 1.01".to_string())
        );
        // Both ends of the range are accepted.
        let csv = "interval,utilization\n0,0\n1,1\n";
        let trace = utilization_from_csv(csv, InferenceTraceConfig::default()).expect("in range");
        assert_eq!(trace.samples, vec![0.0, 1.0]);
    }

    #[test]
    fn invalid_elasticity_rejected() {
        let csv = format!("{JOB_HEADER}\n0,0,1,2,3,2,10,0,0,0,generic,linear\n");
        assert!(jobs_from_csv(&csv, TraceConfig::small(1)).is_err());
    }
}
