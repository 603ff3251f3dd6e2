//! One module per experiment group; see DESIGN.md's experiment index.
//!
//! Every experiment regenerates one table or figure of the paper: it
//! builds the traces for the requested [`Scale`], runs the scenarios the
//! paper compares, prints the same rows/series the paper reports and
//! returns an [`ExperimentResult`] for JSON archival.

pub mod extensions;
pub mod faults;
pub mod jobsched;
pub mod loaning;
pub mod mainline;
pub mod motivation;
pub mod testbed;

use crate::{ExperimentResult, Scale};

/// All experiment ids, in DESIGN.md order.
pub const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "tab1",
    "tab234",
    "tab5",
    "fig7",
    "fig8",
    "tab6",
    "tab7",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "tab8",
    "tab9",
    "fig1415",
    "fig16",
    "tab10",
    "fig17",
    "headline",
    "reclaim-opt",
    "lstm",
    "impl",
    "ext-las",
    "ext-phase2",
    "ext-predictor",
    "ext-costmodel",
    "ext-granularity",
    "ext-slo",
    "ext-interval",
    "faults",
];

/// Dispatches one experiment by id. Returns `None` for unknown ids.
pub fn run(id: &str, scale: Scale) -> Option<ExperimentResult> {
    Some(match id {
        "fig1" => motivation::fig1(scale),
        "fig2" => motivation::fig2(scale),
        "fig3" => motivation::fig3(),
        "tab1" => motivation::tab1(),
        "tab234" => motivation::tab234(),
        "tab5" => mainline::tab5(scale),
        "headline" => mainline::headline(scale),
        "fig7" => mainline::fig7(scale),
        "fig8" => mainline::fig8(scale),
        "tab6" => mainline::tab6(scale),
        "tab7" => loaning::tab7(scale),
        "fig9" => loaning::fig9(scale),
        "fig10" => loaning::fig10(scale),
        "fig11" => mainline::fig11(scale),
        "fig12" => jobsched::fig12(scale),
        "fig13" => loaning::fig13(scale),
        "tab8" => jobsched::tab8(scale),
        "tab9" => jobsched::tab9(scale),
        "fig1415" => jobsched::fig1415(scale),
        "fig16" => jobsched::fig16(scale),
        "tab10" => testbed::tab10(),
        "fig17" => testbed::fig17(),
        "reclaim-opt" => loaning::reclaim_opt(scale),
        "lstm" => motivation::lstm(scale),
        "impl" => motivation::impl_timings(),
        "ext-las" => extensions::ext_las(scale),
        "ext-phase2" => extensions::ext_phase2(scale),
        "ext-predictor" => extensions::ext_predictor(scale),
        "ext-costmodel" => extensions::ext_costmodel(scale),
        "ext-granularity" => extensions::ext_granularity(scale),
        "ext-slo" => extensions::ext_slo(scale),
        "ext-interval" => extensions::ext_interval(scale),
        "faults" => faults::faults(scale),
        _ => return None,
    })
}
