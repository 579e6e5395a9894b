//! Per-layer accounting for the traced run: busy time around each call
//! into a layer's public function, and counts taken at the same calls.
//!
//! Spans are recorded by the benchmark around the calls it makes; the
//! program itself is not instrumented further. Every traced run reports
//! every metric of [`PER_LAYER`]; a layer the workload never calls
//! reports 0.

use crate::Report;
use gadt::oracle::{Answer, Oracle};
use gadt::session::{prepare, run_fast_limited, PreparedProgram, TracedRun};
use gadt_analysis::controldep::ProgramControlDeps;
use gadt_analysis::dyntrace::DependenceRecorder;
use gadt_pascal::interp::Limits;
use gadt_pascal::sema::{analyze, Module};
use gadt_pascal::value::Value;
use gadt_trace::{ExecTree, NodeId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit. Times are the mean per call;
/// counts are the mean per call of the function they describe, unless
/// README.md says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pascal.parse_us", "us"),
    ("pascal.sema_us", "us"),
    ("pascal.print_us", "us"),
    ("pascal.lower_us", "us"),
    ("pascal.tokens", "count"),
    ("transform.us", "us"),
    ("transform.rounds", "count"),
    ("vm.compile_us", "us"),
    ("vm.fast_run_us", "us"),
    ("analysis.control_deps_us", "us"),
    ("analysis.slice_events", "count"),
    ("trace.execute_us", "us"),
    ("trace.tree_us", "us"),
    ("trace.events", "count"),
    ("trace.tree_nodes", "count"),
    ("core.prepare_us", "us"),
    ("core.oracle_setup_us", "us"),
    ("core.select_us", "us"),
    ("core.answer_us", "us"),
    ("core.oracle.reference_us", "us"),
    ("core.oracle.test_database_us", "us"),
    ("core.oracle.golden_us", "us"),
    ("core.questions", "count"),
    ("core.slices", "count"),
    ("tgen.run_cases_us", "us"),
    ("mutate.apply_us", "us"),
    ("mutate.kill_check_us", "us"),
    ("mutate.useful_ratio", "ratio"),
    ("mutate.exact", "ratio"),
    ("corpus.vet_us", "us"),
    ("store.open_ms", "ms"),
    ("store.append_us", "us"),
    ("store.lookup_us", "us"),
    ("store.answers", "count"),
    ("store.wal_records", "count"),
    ("store.compactions", "count"),
    ("serve.ping_us", "us"),
    ("serve.create_ms", "ms"),
    ("serve.trace_ms", "ms"),
    ("serve.ask_ms", "ms"),
    ("serve.answer_ms", "ms"),
    ("serve.sessions_held", "count"),
    ("session.first_question_ms_p50", "ms"),
    ("session.answer_ms_p50", "ms"),
    ("tracing.overhead_pct", "%"),
];

/// Accumulated busy time and counts, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    times: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, (f64, u64)>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, charging its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        self.add_time(name, t.elapsed(), 1);
        r
    }

    /// Charges `d` spent over `calls` calls to `name`.
    pub fn add_time(&mut self, name: &'static str, d: Duration, calls: u64) {
        let e = self.times.entry(name).or_default();
        e.0 += d;
        e.1 += calls;
    }

    /// One observation of a count; the metric is the mean observation.
    pub fn count(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_default();
        e.0 += v;
        e.1 += 1;
    }

    /// Sets a metric outright (ratios, end-of-run store state).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Folds a timed oracle's accumulator into `name`.
    pub fn take_oracle(&mut self, name: &'static str, acc: &OracleClock) {
        let (d, n) = acc.get();
        if n > 0 {
            self.add_time(name, d, n);
        }
        acc.set((Duration::ZERO, 0));
    }

    /// Writes every metric of [`PER_LAYER`] into `report`.
    pub fn finish(&self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            let value = if let Some(v) = self.values.get(name) {
                *v
            } else if let Some((d, n)) = self.times.get(name) {
                let per_call = d.as_secs_f64() / (*n).max(1) as f64;
                match unit {
                    "ms" => per_call * 1e3,
                    _ => per_call * 1e6,
                }
            } else if let Some((sum, n)) = self.counts.get(name) {
                sum / (*n).max(1) as f64
            } else {
                0.0
            };
            report.metric(name, value, unit);
        }
        let calls: Vec<String> = self
            .times
            .iter()
            .map(|(k, (_, n))| format!("{k}={n}"))
            .collect();
        report.note(format!("layer calls timed: {}", calls.join(" ")));
    }
}

/// Shared busy-time accumulator of a [`TimedOracle`].
pub type OracleClock = Rc<Cell<(Duration, u64)>>;

/// An oracle wrapper that times `judge` into a shared clock, so a chain
/// can attribute time per knowledge source.
pub struct TimedOracle<O> {
    inner: O,
    clock: OracleClock,
}

impl<O: Oracle> TimedOracle<O> {
    pub fn new(inner: O) -> (TimedOracle<O>, OracleClock) {
        let clock: OracleClock = Rc::new(Cell::new((Duration::ZERO, 0)));
        (
            TimedOracle {
                inner,
                clock: Rc::clone(&clock),
            },
            clock,
        )
    }
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn judge(&mut self, module: &Module, tree: &ExecTree, node: NodeId) -> Answer {
        let t = Instant::now();
        let a = self.inner.judge(module, tree, node);
        let (d, n) = self.clock.get();
        self.clock.set((d + t.elapsed(), n + 1));
        a
    }

    fn source_name(&self) -> &str {
        self.inner.source_name()
    }
}

/// The front end and tracer of one session, built from each layer's
/// public calls. `session::prepare` bundles transform, CFG lowering and
/// VM compile; it is timed as `core.prepare_us`, and each part is timed
/// again on its own, on the same input.
pub fn traced_front_end(
    source: &str,
    l: &mut Layers,
) -> Result<(PreparedProgram, TracedRun), String> {
    let tokens = gadt_pascal::lexer::tokenize(source).map_err(|e| e.to_string())?;
    l.count("pascal.tokens", tokens.len() as f64);
    let ast = l
        .time("pascal.parse_us", || {
            gadt_pascal::parser::parse_program(source)
        })
        .map_err(|e| e.to_string())?;
    l.time("pascal.print_us", || {
        gadt_pascal::pretty::print_program(&ast)
    });
    let module = l
        .time("pascal.sema_us", || analyze(ast))
        .map_err(|e| e.to_string())?;
    let prepared = l
        .time("core.prepare_us", || prepare(&module))
        .map_err(|e| e.to_string())?;
    prepared_parts(&module, l)?;
    let run = traced_run(&prepared, Vec::new(), Limits::default(), l)?;
    let fast = l
        .time("vm.fast_run_us", || {
            run_fast_limited(&prepared, [], Limits::default())
        })
        .map_err(|e| e.to_string())?;
    if fast.output_text() != run.output {
        return Err("fast-path output differs from the traced run's".into());
    }
    Ok((prepared, run))
}

/// Times the parts `session::prepare` bundles, each on its own.
pub fn prepared_parts(module: &Module, l: &mut Layers) -> Result<(), String> {
    let mut rec = gadt_obs::Recorder::untimed();
    let t = l
        .time("transform.us", || {
            gadt_transform::transform_observed(module, &mut rec)
        })
        .map_err(|e| e.to_string())?;
    l.count(
        "transform.rounds",
        rec.finish().counter("transform.rounds") as f64,
    );
    let cfg = l.time("pascal.lower_us", || gadt_pascal::cfg::lower(&t.module));
    l.time("vm.compile_us", || {
        gadt_vm::VmProgram::compile(&t.module, &cfg)
    });
    Ok(())
}

/// A traced run from the tracer's public calls: control dependences,
/// execution under a `DependenceRecorder`, tree building. Returns the
/// run, or the runtime error message.
pub fn traced_run(
    prepared: &PreparedProgram,
    input: Vec<Value>,
    limits: Limits,
    l: &mut Layers,
) -> Result<TracedRun, String> {
    let module = &prepared.transformed.module;
    let cd = l.time("analysis.control_deps_us", || {
        ProgramControlDeps::compute(module, &prepared.cfg)
    });
    let mut rec = DependenceRecorder::new(&cd);
    let outcome = l
        .time("trace.execute_us", || {
            prepared.execute(input, limits, &mut rec)
        })
        .map_err(|e| e.message.clone())?;
    let trace = rec.finish();
    let tree = l.time("trace.tree_us", || gadt_trace::build_tree(module, &trace));
    l.count("trace.events", trace.events.len() as f64);
    l.count("trace.tree_nodes", tree.len() as f64);
    Ok(TracedRun {
        trace,
        tree,
        output: outcome.output_text().to_string(),
        engine: prepared.engine(),
        limits,
    })
}
