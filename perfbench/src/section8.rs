//! `section8_scaled`: the paper's §8 session on a scaled program — the
//! main body loops `sqrtest` over many arrays — debugged in process
//! through a `DebugHandle`. The oracle chain is §5.3's: a T-GEN test
//! database for `arrsum`, then the fixed program as reference oracle.
//! Slicing is on. Each session submits a fresh seeded variant, so
//! nothing carries over between sessions but the test database.

use crate::layers::{traced_front_end, Layers, TimedOracle};
use crate::model::{self, Bug, Main};
use crate::{median, millis, secs, Args, EndToEnd, Lcg, Report};
use gadt::debugger::{DebugConfig, DebugResult, Strategy};
use gadt::oracle::{Answer, ChainOracle, Oracle, ReferenceOracle};
use gadt::session::{prepare, run_traced, TracedRun};
use gadt::testlookup::TestLookup;
use gadt::DebugHandle;
use gadt_pascal::sema::{compile, Module};
use gadt_tgen::{cases, frames, spec, TestDb};
use std::sync::Arc;
use std::time::Instant;

/// Loop iterations of the scaled main body.
pub const ITERATIONS: u32 = 200;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 50;
/// Sessions per slice of the timed loop.
const SLICE: u64 = 10;

/// What one session produced — compared between the untraced and the
/// traced pass, and checked against the planted bug.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOut {
    pub blamed: Option<String>,
    /// `(query, answer, source)` per question.
    pub transcript: Vec<(String, String, String)>,
    pub slices: usize,
}

/// Latencies of one session, in milliseconds.
#[derive(Debug, Default)]
pub struct SessionTimes {
    pub total_ms: f64,
    pub first_question_ms: f64,
    pub answer_ms: Vec<f64>,
}

/// The main body of session `j` of a run with seed `seed`.
fn variant(seed: u64, j: u64) -> Main {
    let mut rng = Lcg::new(seed.wrapping_mul(1_000_003).wrapping_add(j));
    Main::seeded_loop(&mut rng, ITERATIONS)
}

/// The arrsum test database (§5.3.2: Figure 1's spec → frames → cases →
/// report database), built on the program under test.
fn build_test_db(module: &Module, layers: Option<&mut Layers>) -> Result<TestDb, String> {
    let s = spec::parse_spec(spec::ARRSUM_SPEC).map_err(|e| e.to_string())?;
    let g = frames::generate_frames(&s, Default::default());
    let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 2));
    let run = || {
        cases::run_cases(module, "arrsum", &tc, &|ins, r| {
            cases::arrsum_oracle(ins, r)
        })
        .map_err(|e| e.to_string())
    };
    match layers {
        Some(l) => l.time("tgen.run_cases_us", run),
        None => run(),
    }
}

/// Everything before the first timed session: compile the program under
/// test, build the test database, run one warm-up session.
fn setup(seed: u64, layers: Option<&mut Layers>) -> Result<TestDb, String> {
    let warm_up = variant(seed, u64::MAX);
    let module = compile(&model::program(Bug::Decrement, warm_up)).map_err(|e| e.to_string())?;
    let db = build_test_db(&module, layers)?;
    session(warm_up, &db, None)?;
    Ok(db)
}

/// One debugging session of the variant with main body `main`, from
/// submitting the source to the verdict; the reference oracle runs the
/// same variant with `decrement` fixed. With `layers`, each layer's
/// public function is called and timed on its own; the outputs must not
/// change.
pub fn session(
    main: Main,
    db: &TestDb,
    mut layers: Option<&mut Layers>,
) -> Result<(SessionOut, SessionTimes), String> {
    let source = &model::program(Bug::Decrement, main);
    let fixed_source = &model::program(Bug::None, main);
    let t0 = Instant::now();
    let (prepared, run) = match layers.as_deref_mut() {
        None => {
            let module = compile(source).map_err(|e| e.to_string())?;
            let prepared = prepare(&module).map_err(|e| e.to_string())?;
            let run = run_traced(&prepared, []).map_err(|e| e.to_string())?;
            (prepared, run)
        }
        Some(l) => traced_front_end(source, l)?,
    };
    let fixed = compile(fixed_source).map_err(|e| e.to_string())?;

    let mut lookup = TestLookup::new();
    lookup.register("arrsum", db.clone(), Box::new(cases::arrsum_frame_selector));
    let (lookup, db_clock) = TimedOracle::new(lookup);
    let reference = match layers.as_deref_mut() {
        None => ReferenceOracle::new(&fixed, []),
        Some(l) => l.time("core.oracle_setup_us", || ReferenceOracle::new(&fixed, [])),
    }
    .map_err(|e| e.to_string())?;
    let (reference, ref_clock) = TimedOracle::new(reference);
    let mut chain = ChainOracle::new();
    chain.push(lookup);
    chain.push(reference);

    let TracedRun { trace, tree, .. } = run;
    let config = DebugConfig {
        strategy: Strategy::TopDown,
        slicing: true,
    };
    let transformed = prepared.transformed;
    let start = || {
        DebugHandle::new(
            Arc::new(transformed.module),
            Arc::new(trace),
            Some(transformed.mapping),
            tree,
            config,
        )
    };
    let mut handle = match layers.as_deref_mut() {
        None => start(),
        Some(l) => l.time("core.select_us", start),
    };
    let mut times = SessionTimes {
        first_question_ms: millis(t0),
        ..SessionTimes::default()
    };
    let mut model_disagreements = 0usize;
    while let Some(q) = handle.next_question() {
        let (node, unit) = (q.node, q.unit.clone());
        let answer = chain.judge(handle.module(), handle.tree(), node);
        if let Some(expected) = model::judge(&unit, &q.ins, &q.outs) {
            if matches!(expected, Answer::Correct) != matches!(answer, Answer::Correct) {
                model_disagreements += 1;
            }
        }
        let source = chain.last_source().to_string();
        let ta = Instant::now();
        match layers.as_deref_mut() {
            None => {
                handle.answer_from(answer, &source);
            }
            Some(l) => {
                l.time("core.answer_us", || handle.answer_from(answer, &source));
            }
        }
        times.answer_ms.push(millis(ta));
    }
    times.total_ms = millis(t0);
    if model_disagreements > 0 {
        return Err(format!(
            "{model_disagreements} oracle answers disagree with the §8 unit model"
        ));
    }
    if let Some(l) = layers {
        l.take_oracle("core.oracle.test_database_us", &db_clock);
        l.take_oracle("core.oracle.reference_us", &ref_clock);
        l.count("core.questions", handle.transcript().len() as f64);
        l.count("core.slices", handle.slices_taken() as f64);
        for s in handle.slice_stats() {
            l.count("analysis.slice_events", s.events as f64);
        }
    }
    let blamed = match handle.result() {
        Some(DebugResult::BugLocalized { unit, .. }) => Some(unit.clone()),
        _ => None,
    };
    let out = SessionOut {
        blamed,
        transcript: handle
            .transcript()
            .iter()
            .map(|t| (t.query.clone(), t.answer.to_string(), t.source.clone()))
            .collect(),
        slices: handle.slices_taken(),
    };
    Ok((out, times))
}

/// Runs sessions `0..` in slices of [`SLICE`] until `seconds` have
/// passed (or exactly `count` sessions), checking each blames the planted
/// unit.
fn pass(
    seed: u64,
    db: &TestDb,
    seconds: f64,
    count: Option<u64>,
    mut layers: Option<&mut Layers>,
    e2e: &mut EndToEnd,
    report: &mut Report,
) -> Result<Vec<SessionOut>, String> {
    let mut outs = Vec::new();
    let mut j = 0u64;
    let mut slice = e2e.slice();
    loop {
        if j.is_multiple_of(SLICE) && j > 0 {
            e2e.end_slice(slice);
            slice = e2e.slice();
        }
        let done = match count {
            Some(n) => j >= n,
            None => j > 0 && j.is_multiple_of(SLICE) && e2e.loop_s >= seconds,
        };
        if done {
            break;
        }
        let (out, times) = session(variant(seed, j), db, layers.as_deref_mut())?;
        report.check(out.blamed.as_deref() == Some(Bug::Decrement.unit()), || {
            format!(
                "session {j} blamed {:?}, planted bug is in decrement",
                out.blamed
            )
        });
        e2e.ops += 1;
        e2e.op_ms.push(times.total_ms);
        e2e.first_question_ms.push(times.first_question_ms);
        e2e.answer_ms.extend(times.answer_ms);
        e2e.questions += out.transcript.len() as u64;
        e2e.bugs += u64::from(out.blamed.is_some());
        outs.push(out);
        j += 1;
    }
    Ok(outs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let mut db = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let traced = args.trace && rep == 0;
        let built = setup(args.seed, traced.then_some(&mut layers))?;
        e2e.setup_s.push(secs(t));
        if let Some(prev) = &db {
            report.check(prev == &built, || {
                "set-up repetitions built different test databases".into()
            });
        }
        db = Some(built);
    }
    let db = db.expect("at least one set-up repetition");
    report.note(format!(
        "test database: {} arrsum report(s); {ITERATIONS} loop iterations per session",
        db.len()
    ));

    if !args.trace {
        pass(
            args.seed,
            &db,
            args.seconds,
            None,
            None,
            &mut e2e,
            &mut report,
        )?;
        report.attempted = e2e.ops;
        e2e.finish(&mut report, "session");
        return Ok(report);
    }

    // Traced run: an untraced pass for half the time, then the same
    // sessions again through the layers' public calls.
    let untraced = pass(
        args.seed,
        &db,
        args.seconds / 2.0,
        None,
        None,
        &mut e2e,
        &mut report,
    )?;
    let plain_s = e2e.loop_s;
    let n = untraced.len() as u64;
    let mut traced_e2e = EndToEnd::default();
    let traced = pass(
        args.seed,
        &db,
        0.0,
        Some(n),
        Some(&mut layers),
        &mut traced_e2e,
        &mut report,
    )?;
    report.check(traced == untraced, || {
        "traced sessions differ from the untraced ones".into()
    });
    layers.set(
        "tracing.overhead_pct",
        (traced_e2e.loop_s - plain_s) / plain_s * 100.0,
    );
    layers.set(
        "session.first_question_ms_p50",
        median(&e2e.first_question_ms),
    );
    layers.set("session.answer_ms_p50", median(&e2e.answer_ms));
    report.attempted = 2 * n;
    report.note(format!(
        "traced pass: {n} sessions in {:.3} s, untraced {:.3} s",
        traced_e2e.loop_s, plain_s
    ));
    layers.finish(&mut report);
    Ok(report)
}
