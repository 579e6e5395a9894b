//! `campaign`: a mutation campaign over vetted `gadt-corpus` programs —
//! the offline user of localization studies and the strategy lab. The
//! corpus is fixed: the programs the generator makes from seeds
//! `0..PROGRAMS`, vetted during set-up. One round is
//! `gadt_mutate::run_campaign` on one subject (every mutation site, one
//! worker, top-down strategy); a cycle is one round per subject, and the
//! run measures whole cycles until the time is up, so every run judges
//! the same mutants. `--seed` rotates the order of the subjects.
//!
//! Checks, made apart from the campaign: every judged mutant's class is
//! re-derived on the tree-walking reference interpreter, and every
//! blamed unit must have misbehaved against the golden program.

use crate::layers::{prepared_parts, traced_run, Layers, TimedOracle};
use crate::{median, secs, Args, EndToEnd, Report};
use gadt::debugger::{DebugConfig, DebugResult, Strategy};
use gadt::oracle::{ChainOracle, GoldenOracle, Oracle};
use gadt::session::{self, Engine, PreparedProgram, TracedRun};
use gadt::DebugState;
use gadt_corpus::campaign::{corpus_subjects, CorpusCampaignConfig};
use gadt_mutate::{apply, enumerate_sites, run_campaign, CampaignConfig, CampaignProgram};
use gadt_mutate::{MutOp, MutantStatus, MutationSite};
use gadt_obs::event::EventKind;
use gadt_pascal::ast::Program;
use gadt_pascal::interp::Limits;
use gadt_pascal::parser::parse_program;
use gadt_pascal::pretty::print_program;
use gadt_pascal::sema::{analyze, compile};
use gadt_trace::ExecTree;
use std::time::Instant;

/// Generated programs in the corpus (the vetted subset are the subjects).
pub const PROGRAMS: usize = 6;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 50;

/// The limits `run_campaign` runs every mutant under.
fn limits(config: &CampaignConfig) -> Limits {
    Limits {
        max_steps: config.max_steps,
        max_depth: 64,
    }
}

fn corpus_config() -> CorpusCampaignConfig {
    CorpusCampaignConfig {
        start_seed: 0,
        programs: PROGRAMS,
        campaign: CampaignConfig {
            threads: 1,
            max_mutants: 0,
            strategy: Strategy::TopDown,
            ..CampaignConfig::default()
        },
        ..CorpusCampaignConfig::default()
    }
}

/// One round's result: the subject and each mutant's site address and
/// status.
struct Round {
    subject: usize,
    statuses: Vec<(MutOp, u32, MutantStatus)>,
}

/// Runs whole cycles of rounds, starting at subject `first`, until
/// `seconds` have passed. A slice of the timed loop is one cycle, so
/// every slice judges the same mutants.
fn untraced_pass(
    subjects: &[CampaignProgram],
    first: usize,
    config: &CampaignConfig,
    seconds: f64,
    e2e: &mut EndToEnd,
) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    let mut slice = e2e.slice();
    while rounds.is_empty() || e2e.loop_s < seconds {
        let subject = (rounds.len() + first) % subjects.len();
        let summary = run_campaign(std::slice::from_ref(&subjects[subject]), config)
            .map_err(|e| e.to_string())?;
        for r in &summary.reports {
            if let Some(d) = r
                .journal
                .events_named("mutant")
                .find(|e| e.kind == EventKind::Exit)
                .and_then(|e| e.dur)
            {
                e2e.op_ms.push(d.as_secs_f64() * 1e3);
            }
            if let MutantStatus::Localized {
                questions_with_slicing,
                ..
            } = r.status
            {
                e2e.questions += questions_with_slicing as u64;
                e2e.bugs += 1;
            }
        }
        e2e.ops += summary.total() as u64;
        rounds.push(Round {
            subject,
            statuses: summary
                .reports
                .into_iter()
                .map(|r| (r.op, r.ordinal, r.status))
                .collect(),
        });
        if rounds.len().is_multiple_of(subjects.len()) {
            e2e.end_slice(slice);
            slice = e2e.slice();
        }
    }
    Ok(rounds)
}

/// The golden side of one subject, as the traced pipeline and the
/// reference check need it.
struct Golden {
    name: String,
    ast: Program,
    prepared: PreparedProgram,
    run: TracedRun,
    render: String,
    interface: String,
    input: Vec<gadt_pascal::value::Value>,
}

/// The observable top level of a run: the root and each top-level
/// invocation's In/Out line.
fn interface(tree: &ExecTree) -> String {
    let mut out = tree.render_node(tree.root);
    for &c in &tree.node(tree.root).children {
        out.push('\n');
        out.push_str(&tree.render_node(c));
    }
    out
}

fn golden(p: &CampaignProgram, engine: Engine) -> Result<Golden, String> {
    let ast = parse_program(&p.source).map_err(|e| e.to_string())?;
    let module = compile(&p.source).map_err(|e| e.to_string())?;
    let prepared = session::prepare(&module)
        .map_err(|e| e.to_string())?
        .with_engine(engine);
    let run = session::run_traced(&prepared, p.input.iter().cloned()).map_err(|e| e.to_string())?;
    Ok(Golden {
        name: p.name.clone(),
        render: run.tree.render(run.tree.root),
        interface: interface(&run.tree),
        ast,
        prepared,
        run,
        input: p.input.clone(),
    })
}

/// One debug session of the traced pipeline, pumped through a
/// `DebugState` with a timed golden oracle.
fn traced_debug(
    g: &Golden,
    prepared: &PreparedProgram,
    run: &TracedRun,
    slicing: bool,
    l: &mut Layers,
) -> (
    DebugResult,
    usize,
    Vec<gadt_analysis::slice_dynamic::SliceStats>,
) {
    let module = &prepared.transformed.module;
    let mapping = Some(&prepared.transformed.mapping);
    let oracle = l.time("core.oracle_setup_us", || {
        GoldenOracle::from_tree(&g.prepared.transformed.module, g.run.tree.clone())
    });
    let (oracle, clock) = TimedOracle::new(oracle);
    let mut chain = ChainOracle::new();
    chain.push(oracle);
    let config = DebugConfig {
        strategy: Strategy::TopDown,
        slicing,
    };
    let mut state = l.time("core.select_us", || {
        DebugState::new(module, mapping, run.tree.clone(), run.tree.root, config)
    });
    while let Some(q) = state.next_question() {
        let node = q.node;
        let answer = chain.judge(module, state.tree(), node);
        let source = chain.last_source().to_string();
        l.time("core.answer_us", || {
            state.answer(module, &run.trace, mapping, answer, &source)
        });
    }
    l.take_oracle("core.oracle.golden_us", &clock);
    let questions = state.transcript().len();
    let slices = state.slice_stats().to_vec();
    l.count("core.questions", questions as f64);
    l.count("core.slices", slices.len() as f64);
    let outcome = state.into_outcome();
    (outcome.result, questions, slices)
}

/// One mutant through the pipeline built from each layer's public calls;
/// must reproduce `run_campaign`'s status exactly.
fn traced_mutant(g: &Golden, site: &MutationSite, lim: Limits, l: &mut Layers) -> MutantStatus {
    let Some(mutant) = l.time("mutate.apply_us", || apply(&g.ast, site)) else {
        return MutantStatus::Stillborn {
            reason: "mutation site not found".into(),
        };
    };
    let source = l.time("pascal.print_us", || print_program(&mutant));
    if let Ok(tokens) = gadt_pascal::lexer::tokenize(&source) {
        l.count("pascal.tokens", tokens.len() as f64);
    }
    let module = match l
        .time("pascal.parse_us", || parse_program(&source))
        .and_then(|ast| l.time("pascal.sema_us", || analyze(ast)))
    {
        Ok(m) => m,
        Err(e) => return MutantStatus::Stillborn { reason: e.message },
    };
    let prepared = match l.time("core.prepare_us", || session::prepare(&module)) {
        Ok(p) => p,
        Err(e) => return MutantStatus::Stillborn { reason: e.message },
    };
    if prepared_parts(&module, l).is_err() {
        return MutantStatus::Stillborn {
            reason: "transform failed outside prepare".into(),
        };
    }
    if let Err(e) = l.time("vm.fast_run_us", || {
        session::run_fast_limited(&prepared, g.input.iter().cloned(), lim)
    }) {
        return MutantStatus::Crashed { error: e.message };
    }
    let run = match traced_run(&prepared, g.input.clone(), lim, l) {
        Ok(r) => r,
        Err(error) => return MutantStatus::Crashed { error },
    };
    let (observable, diverged) = l.time("mutate.kill_check_us", || {
        let observable = run.output != g.run.output || interface(&run.tree) != g.interface;
        let diverged = !observable && run.tree.render(run.tree.root) != g.render;
        (observable, diverged)
    });
    if !observable {
        return if diverged {
            MutantStatus::Masked
        } else {
            MutantStatus::Equivalent
        };
    }
    let (with, questions_with, slices) = traced_debug(g, &prepared, &run, true, l);
    let (_, questions_without, _) = traced_debug(g, &prepared, &run, false, l);
    let unit = match with {
        DebugResult::BugLocalized { unit, .. } => unit,
        DebugResult::NoBugFound => g.name.clone(),
    };
    let blamed = unit.strip_prefix("loop in ").unwrap_or(&unit);
    let exact = blamed.eq_ignore_ascii_case(&site.unit);
    for s in &slices {
        l.count("analysis.slice_events", s.events as f64);
    }
    MutantStatus::Localized {
        exact,
        questions_with_slicing: questions_with,
        questions_without_slicing: questions_without,
        slices_taken: slices.len(),
        slice_events: slices.iter().map(|s| s.events).sum(),
        slice_stmts: slices.iter().map(|s| s.stmts).sum(),
        slice_calls: slices.iter().map(|s| s.calls).sum(),
        unit,
    }
}

/// A mutant's class as the reference check derives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Stillborn,
    Crashed,
    Equivalent,
    Masked,
    Localized,
}

fn class_of(status: &MutantStatus) -> Class {
    match status {
        MutantStatus::Stillborn { .. } => Class::Stillborn,
        MutantStatus::Crashed { .. } => Class::Crashed,
        MutantStatus::Equivalent => Class::Equivalent,
        MutantStatus::Masked => Class::Masked,
        MutantStatus::Localized { .. } => Class::Localized,
    }
}

/// Tallies of the reference check.
#[derive(Debug, Default)]
struct CheckTally {
    mutants: usize,
    class_mismatches: usize,
    blamed_verified: usize,
    blamed_unmatched: usize,
    blamed_contradicted: usize,
}

/// Re-derives each mutant's class on the tree-walking interpreter:
/// stillborn = does not compile or transform, crashed = runtime error,
/// equivalent = identical output and tree, localized = observable
/// divergence (output or a top-level In/Out line), masked = the rest.
/// For a localized mutant, some invocation of the blamed unit must have
/// Out-values that differ from the golden run's invocation with the same
/// In-values; an invocation with no golden counterpart is tallied as
/// unmatched, not as a failure.
fn reference_check(
    g: &Golden,
    statuses: &[(MutOp, u32, MutantStatus)],
    lim: Limits,
    tally: &mut CheckTally,
    report: &mut Report,
) -> Result<(), String> {
    let sites = enumerate_sites(&g.ast);
    for (op, ordinal, status) in statuses {
        let site = find_site(&sites, *op, *ordinal)?;
        tally.mutants += 1;
        let (class, run) = reference_class(g, site, lim);
        if class != class_of(status) {
            tally.class_mismatches += 1;
            report.check(false, || {
                format!(
                    "{} {}#{}: campaign says {:?}, the tree-walker says {class:?}",
                    g.name,
                    site.op,
                    site.ordinal,
                    class_of(status)
                )
            });
            continue;
        }
        let (MutantStatus::Localized { unit, .. }, Some(run)) = (status, run) else {
            continue;
        };
        // Each invocation of the blamed unit: does a golden invocation
        // with the same In-values exist, and do its Out-values differ?
        let (mut differs, mut same, mut unmatched) = (0usize, 0usize, 0usize);
        let root = run.tree.node(run.tree.root);
        if root.name.eq_ignore_ascii_case(unit) {
            // Blamed the main program: its Out-values are the program's
            // output and top-level behaviour.
            if run.output != g.run.output || interface(&run.tree) != g.interface {
                differs += 1;
            } else {
                same += 1;
            }
        }
        for id in run.tree.preorder().into_iter().skip(1) {
            let n = run.tree.node(id);
            if !n.name.eq_ignore_ascii_case(unit) {
                continue;
            }
            let golden = g.run.tree.preorder().into_iter().find_map(|gid| {
                let gn = g.run.tree.node(gid);
                (gn.name.eq_ignore_ascii_case(&n.name) && gn.ins == n.ins).then_some(gn)
            });
            match golden {
                Some(gn) if gn.outs != n.outs => differs += 1,
                Some(_) => same += 1,
                None => unmatched += 1,
            }
        }
        if differs > 0 {
            tally.blamed_verified += 1;
        } else if unmatched > 0 {
            tally.blamed_unmatched += 1;
        } else {
            tally.blamed_contradicted += 1;
            report.check(false, || {
                format!(
                    "{} {}#{}: blamed `{unit}` behaves as in the golden run ({same} invocations)",
                    g.name, site.op, site.ordinal
                )
            });
        }
    }
    Ok(())
}

fn find_site(sites: &[MutationSite], op: MutOp, ordinal: u32) -> Result<&MutationSite, String> {
    sites
        .iter()
        .find(|s| s.op == op && s.ordinal == ordinal)
        .ok_or_else(|| format!("no mutation site {op}#{ordinal}"))
}

fn reference_class(g: &Golden, site: &MutationSite, lim: Limits) -> (Class, Option<TracedRun>) {
    let Some(mutant) = apply(&g.ast, site) else {
        return (Class::Stillborn, None);
    };
    let Ok(module) = compile(&print_program(&mutant)) else {
        return (Class::Stillborn, None);
    };
    let Ok(prepared) = session::prepare(&module) else {
        return (Class::Stillborn, None);
    };
    let prepared = prepared.with_engine(Engine::TreeWalker);
    let Ok(run) = session::run_traced_limited(&prepared, g.input.iter().cloned(), lim) else {
        return (Class::Crashed, None);
    };
    let class = if run.output != g.run.output || interface(&run.tree) != g.interface {
        Class::Localized
    } else if run.tree.render(run.tree.root) != g.render {
        Class::Masked
    } else {
        Class::Equivalent
    };
    (class, Some(run))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let cfg = corpus_config();
    let mut subjects: Vec<CampaignProgram> = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let vetted = if args.trace && rep == 0 {
            layers.time("corpus.vet_us", || corpus_subjects(&cfg))
        } else {
            corpus_subjects(&cfg)
        };
        e2e.setup_s.push(secs(t));
        if rep > 0 {
            let same = vetted.len() == subjects.len()
                && vetted
                    .iter()
                    .zip(&subjects)
                    .all(|(a, b)| a.source == b.source);
            report.check(same, || {
                "set-up repetitions vetted different corpora".into()
            });
        }
        subjects = vetted;
    }
    if subjects.is_empty() {
        return Err("the corpus vetted no subjects".into());
    }
    let config = &cfg.campaign;
    let lim = limits(config);

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let first = (args.seed % subjects.len() as u64) as usize;
    let rounds = untraced_pass(&subjects, first, config, seconds, &mut e2e)?;
    let plain_s = e2e.loop_s;
    let peak_rss = crate::peak_rss_mb();

    // Reference check, outside the timed loop: each distinct subject the
    // rounds covered, once.
    let mut tally = CheckTally::default();
    for round in rounds.iter().take(subjects.len()) {
        let g = golden(&subjects[round.subject], Engine::TreeWalker)?;
        reference_check(&g, &round.statuses, lim, &mut tally, &mut report)?;
    }
    report.note(format!(
        "corpus: {} vetted subjects of {PROGRAMS}; {} rounds; reference check: {} mutants, \
         {} class mismatches, blamed units verified {} / unmatched {} / contradicted {}",
        subjects.len(),
        rounds.len(),
        tally.mutants,
        tally.class_mismatches,
        tally.blamed_verified,
        tally.blamed_unmatched,
        tally.blamed_contradicted
    ));
    let mut counts = [0usize; 5];
    for r in &rounds {
        for (_, _, s) in &r.statuses {
            counts[class_of(s) as usize] += 1;
        }
    }
    report.note(format!(
        "mutant classes: stillborn {} crashed {} equivalent {} masked {} localized {}",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    ));

    if !args.trace {
        report.attempted = e2e.ops;
        e2e.peak_rss_mb = Some(peak_rss);
        e2e.finish(&mut report, "mutant");
        return Ok(report);
    }

    // Traced pass: the same rounds through the layers' public calls.
    let t0 = Instant::now();
    let (mut run_n, mut localized, mut exact) = (0usize, 0usize, 0usize);
    let mut traced_golden: Vec<Option<Golden>> = (0..subjects.len()).map(|_| None).collect();
    for round in &rounds {
        if traced_golden[round.subject].is_none() {
            traced_golden[round.subject] = Some(golden(&subjects[round.subject], Engine::Vm)?);
        }
        let g = traced_golden[round.subject]
            .as_ref()
            .expect("golden just built");
        let sites = enumerate_sites(&g.ast);
        for (op, ordinal, want) in &round.statuses {
            let site = find_site(&sites, *op, *ordinal)?;
            let got = traced_mutant(g, site, lim, &mut layers);
            run_n += 1;
            if let MutantStatus::Localized { exact: e, .. } = got {
                localized += 1;
                exact += usize::from(e);
            }
            report.check(&got == want, || {
                format!(
                    "{} {}#{}: traced pipeline gave {got:?}, run_campaign {want:?}",
                    g.name, site.op, site.ordinal
                )
            });
        }
    }
    let traced_s = secs(t0);
    layers.set(
        "tracing.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
    );
    layers.set(
        "mutate.useful_ratio",
        localized as f64 / run_n.max(1) as f64,
    );
    layers.set("mutate.exact", exact as f64 / localized.max(1) as f64);
    report.note(format!(
        "traced pass: {run_n} mutants in {traced_s:.3} s, untraced {plain_s:.3} s; \
         mutant latency p50 {:.3} ms",
        median(&e2e.op_ms)
    ));
    report.attempted = 2 * e2e.ops;
    layers.finish(&mut report);
    Ok(report)
}
