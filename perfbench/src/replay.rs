//! The traced replay: one op's inputs pushed through the public layer
//! functions in pipeline order, each call wrapped in a [`Tracer`] span,
//! with the deterministic work counters summed in [`Counters`].

use cred_codegen::cred::{cred_pipelined, cred_retime_unfold, cred_unfold_retime};
use cred_codegen::pipeline::{original_program, pipelined_program};
use cred_codegen::unfolded::{retime_unfold_program, unfold_retime_program};
use cred_codegen::{DecMode, LoopProgram};
use cred_dfg::algo::WdMatrices;
use cred_dfg::{Dfg, Ratio};
use cred_exact::{exact_schedule_budgeted, ExactSchedule, MachineModel};
use cred_explore::cache::FactorPlan;
use cred_explore::{Objectives, ParetoPoint};
use cred_resilience::Budget;
use cred_retime::span::compact_values_wd;
use cred_retime::{RetimeSolver, Retiming};
use cred_schedule::KernelSchedule;
use cred_unfold::orders::project_retiming;
use cred_unfold::{unfold, Unfolded};

use crate::trace::Tracer;

/// Work counters that depend only on the inputs, never on the machine.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    pub retime_work: u64,
    pub exact_work: u64,
    pub unfold_nodes_out: u64,
    pub insts_emitted: u64,
    pub insts_executed: u64,
    /// Largest `trip * loop-body length` of any executed tape: the
    /// quantity the tape compiler compares against its streamed-tier
    /// threshold (4096).
    pub max_loop_insts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cred_size: u64,
}

/// A budget that never binds but counts the work charged to it.
pub fn counting_budget() -> Budget {
    Budget::unlimited().with_work_limit(u64::MAX)
}

fn unfold_traced(t: &mut Tracer, op: u64, g: &Dfg, f: usize, c: &mut Counters) -> Unfolded {
    let u = t.span("unfold", op, |_| unfold(g, f));
    c.unfold_nodes_out += u.graph.node_count() as u64;
    u
}

/// The explore engine's plan pipeline for one factor: unfold, W/D
/// matrices, warm-started period search and span minimization, register
/// compaction, Theorem 4.5 projection. Solves under an unlimited budget,
/// as a request without limits does; [`plan_work`] counts the work.
pub fn plan(t: &mut Tracer, op: u64, g: &Dfg, f: usize, c: &mut Counters) -> FactorPlan {
    let u = unfold_traced(t, op, g, f, c);
    let wd = t.span("dfg.wd", op, |_| WdMatrices::compute(&u.graph));
    let (period, r_f) = t.span("retime.solve", op, |_| {
        solve_plan(&u.graph, &wd, &Budget::unlimited())
    });
    let r_f = t.span("retime.compact", op, |_| {
        compact_values_wd(&u.graph, &wd, period, &r_f)
    });
    let projected = t.span("unfold.project", op, |_| project_retiming(&u, &r_f));
    FactorPlan { projected, period }
}

fn solve_plan(g: &Dfg, wd: &WdMatrices, budget: &Budget) -> (u64, Retiming) {
    let mut solver = RetimeSolver::new(g, wd);
    let opt = solver
        .min_period_budgeted(budget)
        .expect("an unlimited budget never binds");
    let r_f = solver
        .min_span_from_base_budgeted(opt.period, &opt.retiming, budget)
        .expect("an unlimited budget never binds");
    (opt.period, r_f)
}

fn solve_period(g: &Dfg, wd: &WdMatrices, budget: &Budget) -> Retiming {
    RetimeSolver::new(g, wd)
        .min_period_budgeted(budget)
        .expect("an unlimited budget never binds")
        .retiming
}

/// Retiming work units [`plan`] spends on `(g, f)`, counted on a separate
/// solve: a counting budget pays an atomic add per unit, which must not
/// land inside a timed span.
pub fn plan_work(g: &Dfg, f: usize) -> u64 {
    let u = unfold(g, f);
    let budget = counting_budget();
    solve_plan(&u.graph, &WdMatrices::compute(&u.graph), &budget);
    budget.work_used()
}

/// Work units of a verify case's retiming solves and exact search,
/// counted outside the timed spans like [`plan_work`].
pub fn case_work(case: &cred_verify::Case, c: &mut Counters) {
    c.retime_work += match case.order {
        cred_verify::TransformOrder::RetimeUnfold => plan_work(&case.graph, case.f),
        cred_verify::TransformOrder::UnfoldRetime => {
            let u = unfold(&case.graph, case.f);
            let budget = counting_budget();
            solve_period(&u.graph, &WdMatrices::compute(&u.graph), &budget);
            budget.work_used()
        }
    };
    let budget = counting_budget();
    exact_schedule_budgeted(&case.graph, &case.machine, &budget)
        .expect("a counting budget never binds");
    c.exact_work += budget.work_used();
}

fn codegen(
    t: &mut Tracer,
    op: u64,
    c: &mut Counters,
    build: impl FnOnce() -> LoopProgram,
) -> LoopProgram {
    let p = t.span("codegen", op, |_| build());
    c.insts_emitted += p.code_size() as u64;
    if p.name.starts_with("cred") {
        c.cred_size += p.code_size() as u64;
    }
    p
}

fn maxlive(t: &mut Tracer, op: u64, k: impl FnOnce() -> KernelSchedule) -> usize {
    t.span("schedule.maxlive", op, |_| k().maxlive().maxlive)
}

/// A point built from a plan the way the explore engine builds it: both
/// programs generated to count their instructions, plus the maxlive of
/// the sequential kernel.
#[allow(clippy::too_many_arguments)]
pub fn point(
    t: &mut Tracer,
    op: u64,
    g: &Dfg,
    f: usize,
    plan: &FactorPlan,
    n: u64,
    mode: DecMode,
    c: &mut Counters,
) -> ParetoPoint {
    let r = &plan.projected;
    let plain = codegen(t, op, c, || retime_unfold_program(g, r, f, n));
    let cred = codegen(t, op, c, || cred_retime_unfold(g, r, f, n, mode));
    let maxlive = maxlive(t, op, || KernelSchedule::sequential(g, r, f));
    ParetoPoint {
        f,
        m_r: r.max_value(),
        plain_size: plain.code_size(),
        objectives: Objectives {
            cred_size: cred.code_size(),
            iteration_period: Ratio::new(plan.period as i64, f as i64),
            cond_registers: r.register_count(),
            maxlive,
        },
    }
}

/// The programs a verify case generates, in the oracle's order, plus the
/// retiming-unfold plan when the case has one.
pub fn case_programs(
    t: &mut Tracer,
    op: u64,
    case: &cred_verify::Case,
    c: &mut Counters,
) -> (Vec<LoopProgram>, Option<FactorPlan>) {
    let (g, n, f) = (&case.graph, case.n, case.f);
    let mut out = vec![codegen(t, op, c, || original_program(g, n))];
    match case.order {
        cred_verify::TransformOrder::RetimeUnfold => {
            let plan = plan(t, op, g, f, c);
            let r = &plan.projected;
            out.push(codegen(t, op, c, || pipelined_program(g, r, n)));
            out.push(codegen(t, op, c, || retime_unfold_program(g, r, f, n)));
            out.push(codegen(t, op, c, || {
                cred_retime_unfold(g, r, f, n, case.mode)
            }));
            if f > 1 {
                out.push(codegen(t, op, c, || cred_pipelined(g, r, n)));
            }
            maxlive(t, op, || KernelSchedule::sequential(g, r, f));
            (out, Some(plan))
        }
        cred_verify::TransformOrder::UnfoldRetime => {
            let u = unfold_traced(t, op, g, f, c);
            let wd = t.span("dfg.wd", op, |_| WdMatrices::compute(&u.graph));
            let r_f = t.span("retime.solve", op, |_| {
                solve_period(&u.graph, &wd, &Budget::unlimited())
            });
            out.push(codegen(t, op, c, || unfold_retime_program(g, &u, &r_f, n)));
            out.push(codegen(t, op, c, || cred_unfold_retime(g, &u, &r_f, n)));
            (out, None)
        }
    }
}

/// The exact scheduler, the maxlive of its modulo
/// kernel, and the pipelined program lowered from its stage retiming.
pub fn exact(
    t: &mut Tracer,
    op: u64,
    g: &Dfg,
    m: &MachineModel,
    n: u64,
    c: &mut Counters,
) -> (ExactSchedule, LoopProgram) {
    let sched = t.span("exact", op, |_| {
        exact_schedule_budgeted(g, m, &Budget::unlimited())
            .expect("an unlimited budget never binds")
    });
    maxlive(t, op, || {
        KernelSchedule::modulo(g, &sched.slot, &sched.stage, sched.ii)
    });
    let r = sched.stage_retiming();
    let p = codegen(t, op, c, || pipelined_program(g, &r, n));
    (sched, p)
}

/// Compile a program to a tape and run it.
pub fn execute(
    t: &mut Tracer,
    op: u64,
    p: &LoopProgram,
    c: &mut Counters,
) -> Result<cred_vm::ExecResult, cred_vm::ExecError> {
    let tape = t.span("vm.compile", op, |_| cred_vm::compile(p))?;
    let res = t.span("vm.execute", op, |_| tape.execute())?;
    c.insts_executed += res.computes_executed + res.computes_nullified;
    if let Some(l) = &p.body {
        c.max_loop_insts = c.max_loop_insts.max(l.trip_count() * l.body.len() as u64);
    }
    Ok(res)
}
