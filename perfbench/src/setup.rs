//! Set-up: spec text to an admitted, warmed `Plan`, timed per layer.

use crate::report::Report;
use crate::span::{self_us, Span, Spans};
use crate::stats::median;
use dpgen_core::{ExecOpts, Plan, ProblemSpec, Program, ProgramError};
use dpgen_runtime::{CompileFault, CompileStage, RunError};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Admission limit for every plan the benchmark compiles.
pub const MAX_CELLS: u128 = 1 << 32;

/// Render a spec in the input-file format `ProblemSpec::parse` reads.
pub fn spec_text(spec: &ProblemSpec) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "name {}", spec.name);
    let _ = writeln!(t, "vars {}", spec.vars.join(" "));
    let _ = writeln!(t, "params {}", spec.params.join(" "));
    for c in &spec.constraints {
        let _ = writeln!(t, "constraint {c}");
    }
    for tpl in &spec.templates {
        let offs: Vec<String> = tpl.offsets.iter().map(i64::to_string).collect();
        let _ = writeln!(t, "template {} {}", tpl.name, offs.join(" "));
    }
    if !spec.order.is_empty() {
        let _ = writeln!(t, "order {}", spec.order.join(" "));
    }
    if !spec.load_balance.is_empty() {
        let _ = writeln!(t, "loadbalance {}", spec.load_balance.join(" "));
    }
    let widths: Vec<String> = spec.widths.iter().map(i64::to_string).collect();
    let _ = writeln!(t, "widths {}", widths.join(" "));
    if let Some(b) = &spec.band {
        let _ = writeln!(t, "band {} {} {} {}", b.a, b.b, b.lo, b.hi);
    }
    let _ = writeln!(t, "type {}", spec.value_type);
    for (keyword, body) in [
        ("define", &spec.defines),
        ("init", &spec.init_code),
        ("code", &spec.center_code),
    ] {
        if !body.trim().is_empty() {
            let _ = writeln!(t, "{keyword} {{\n{}\n}}", body.trim_end());
        }
    }
    t
}

/// Microseconds spent in each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse_us: f64,
    pub from_spec_us: f64,
    pub compile_us: f64,
    pub admit_us: f64,
    pub warm_us: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.parse_us + self.from_spec_us + self.compile_us + self.admit_us + self.warm_us) / 1e6
    }
}

fn timed<R>(spans: &Spans, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let _g = spans.enter(name, req);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Parse, derive, compile, admit and warm one plan.
pub fn set_up(
    spans: &Spans,
    req: u64,
    text: &str,
    params: &[i64],
    opts: &ExecOpts,
) -> Result<(Arc<Plan>, SetupTimes), RunError> {
    let _g = spans.enter("setup", req);
    let (spec, parse_us) = timed(spans, "spec.parse", req, || ProblemSpec::parse(text));
    let spec = spec.map_err(|e| CompileFault::new(CompileStage::Spec, e))?;
    let (program, from_spec_us) =
        timed(spans, "program.from_spec", req, || Program::from_spec(spec));
    let program = program.map_err(|e| match e {
        ProgramError::Spec(s) => RunError::from(CompileFault::new(CompileStage::Spec, s)),
        ProgramError::Tiling(t) => RunError::from(t),
    })?;
    let (plan, compile_us) = timed(spans, "program.compile", req, || program.compile(params));
    let (admitted, admit_us) = timed(spans, "plan.admit", req, || plan.admit(MAX_CELLS));
    admitted?;
    let ((), warm_us) = timed(spans, "plan.warm", req, || plan.warm(opts));
    Ok((
        plan,
        SetupTimes {
            parse_us,
            from_spec_us,
            compile_us,
            admit_us,
            warm_us,
        },
    ))
}

/// Report the median self time of each set-up layer over `spans`.
pub fn put_setup_metrics(rep: &mut Report, spans: &[Span]) {
    for (metric, span) in [
        ("spec.parse_us", "spec.parse"),
        ("program.from_spec_us", "program.from_spec"),
        ("program.compile_us", "program.compile"),
        ("plan.admit_us", "plan.admit"),
        ("plan.warm_us", "plan.warm"),
    ] {
        rep.put(metric, median(&self_us(spans, span)), "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_problems::{Bandit3, EditDistance, Lcs};

    #[test]
    fn rendered_specs_parse_back() {
        for spec in [Lcs::spec(2, 48), EditDistance::spec(1024), Bandit3::spec(4)] {
            let back = ProblemSpec::parse(&spec_text(&spec)).expect("round trip");
            assert_eq!(back.vars, spec.vars);
            assert_eq!(back.constraints, spec.constraints);
            assert_eq!(back.templates, spec.templates);
            assert_eq!(back.widths, spec.widths);
            assert_eq!(back.load_balance, spec.load_balance);
            assert_eq!(back.value_type, spec.value_type);
        }
        let mut gen = dpgen_core::SpecGen::new(5);
        for _ in 0..20 {
            let gs = gen.next_spec();
            let back = ProblemSpec::parse(&spec_text(&gs.spec)).expect("generated round trip");
            assert_eq!(back.band, gs.spec.band);
            assert_eq!(back.order, gs.spec.order);
        }
    }

    #[test]
    fn set_up_records_one_span_per_layer() {
        let spans = Spans::new(true);
        let text = spec_text(&Lcs::spec(2, 8));
        let (plan, t) = set_up(&spans, 3, &text, &[20, 20], &ExecOpts::new()).unwrap();
        assert_eq!(plan.params(), &[20, 20]);
        assert!(t.total_s() > 0.0);
        let names: Vec<&str> = spans.finished().iter().map(|s| s.name).collect();
        for layer in [
            "spec.parse",
            "program.from_spec",
            "program.compile",
            "plan.admit",
        ] {
            assert_eq!(names.iter().filter(|n| **n == layer).count(), 1, "{layer}");
        }
        assert!(set_up(&spans, 4, "name x\n", &[1], &ExecOpts::new()).is_err());
    }
}
