//! `serve_pooled` and `serve_seeding`: gadt-serve over a unix socket,
//! driven by one client connection in a closed loop, with one server
//! worker, in this process.
//!
//! * `serve_pooled`: the store is seeded with one §8 session during
//!   set-up; every later session is answered from pooled knowledge and
//!   the store is only read. Every tenth session debugs a second version
//!   of §8 with the bug moved from `decrement` to `increment`: pooled
//!   answers are keyed by unit and In-values only, so that session
//!   inherits the first version's verdicts and blames `decrement`. It is
//!   counted as failed.
//! * `serve_seeding`: each session debugs a §8 variant whose array sums
//!   are all distinct, so all 7 answers are new; each is appended and
//!   fsynced before it is acknowledged.
//!
//! The server keeps every session until it stops (it has no close op),
//! so the work is cut into blocks: each block starts a server on a fresh
//! store, runs a fixed number of sessions and shuts the server down.
//! Only the sessions are timed; block start-up is set-up. `peak_rss_mb`
//! is read when the first block's server has shut down: a deployed
//! server runs once per process, while later blocks measure how the
//! allocator reuses the memory of a stopped server's threads.
//!
//! Live questions are judged by the hand-written §8 model, not by the
//! server's pipeline.

use crate::layers::{traced_front_end, Layers};
use crate::model::{self, Bug, Main};
use crate::{median, millis, secs, Args, EndToEnd, Lcg, Report};
use gadt::oracle::Answer;
use gadt_pascal::value::Value;
use gadt_serve::{Client, Listen, Server, ServerConfig, ServerHandle, ServerReport};
use gadt_store::{obj, value_from_json, Json, ShardedStore, StoredAnswer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which traffic the server sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pooled,
    Seeding,
}

/// Server connection workers: one client connection keeps one busy.
const WORKERS: usize = 1;
/// Store shards.
const SHARDS: usize = 4;
/// Pooled: sessions per round, the last of which debugs version 2.
const POOLED_ROUND: u64 = 10;
/// Pooled: rounds per block (server lifetime).
const POOLED_ROUNDS_PER_BLOCK: u64 = 20;
/// Seeding: sessions per block; the store ends with 7 × this answers.
const SEEDING_SESSIONS_PER_BLOCK: u64 = 150;
/// Sessions per slice of the timed loop (one pooled round); block sizes
/// are multiples of it.
const SLICE: usize = 10;
/// Answers a §8 session asks.
const ANSWERS_PER_SESSION: u64 = 7;

/// What one client session produced.
#[derive(Debug, Clone, PartialEq)]
struct SessionOut {
    blamed: Option<String>,
    /// Questions answered, by the pool or by the client.
    questions: u64,
    /// Questions the client answered.
    live: u64,
    slices: u64,
}

/// One session's inputs.
struct Planned {
    source: String,
    bug: Bug,
}

fn json_pairs(j: Option<&Json>) -> Vec<(String, Value)> {
    j.and_then(Json::as_array)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    Some((
                        p.get("name")?.as_str()?.to_string(),
                        value_from_json(p.get("value")?)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn request(client: &mut Client, msg: &Json) -> Result<Json, String> {
    let resp = client.request(msg).map_err(|e| e.to_string())?;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("server error: {resp}"));
    }
    Ok(resp)
}

/// Per-op client timings of the traced run.
#[derive(Default)]
struct OpTimes {
    create: Vec<f64>,
    trace: Vec<f64>,
    ask: Vec<f64>,
    answer: Vec<f64>,
}

/// One session, from submitting the source to the verdict. Requests are
/// built by hand: the typed client's `AskReply` drops a question's
/// Out-values, which the model needs to judge it.
fn client_session(
    client: &mut Client,
    source: &str,
    e2e: &mut EndToEnd,
    mut ops: Option<&mut OpTimes>,
    asked: &mut Vec<(String, Vec<Value>)>,
) -> Result<SessionOut, String> {
    let t0 = Instant::now();
    let t = Instant::now();
    let created = request(
        client,
        &obj(vec![
            ("op", Json::Str("create".into())),
            ("source", Json::Str(source.to_string())),
            ("pool", Json::Bool(true)),
        ]),
    )?;
    let sid = created
        .get("session")
        .and_then(Json::as_int)
        .ok_or("create reply has no session")?;
    if let Some(o) = ops.as_deref_mut() {
        o.create.push(millis(t));
    }
    let t = Instant::now();
    request(
        client,
        &obj(vec![
            ("op", Json::Str("trace".into())),
            ("session", Json::Int(sid)),
            ("inputs", Json::Array(vec![Json::Array(Vec::new())])),
        ]),
    )?;
    if let Some(o) = ops.as_deref_mut() {
        o.trace.push(millis(t));
    }
    let t = Instant::now();
    let mut reply = request(
        client,
        &obj(vec![
            ("op", Json::Str("ask".into())),
            ("session", Json::Int(sid)),
            ("run", Json::Int(0)),
        ]),
    )?;
    if let Some(o) = ops.as_deref_mut() {
        o.ask.push(millis(t));
    }
    let mut live = 0u64;
    loop {
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            e2e.op_ms.push(millis(t0));
            return Ok(SessionOut {
                blamed: reply
                    .get("localized")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                questions: reply.get("questions").and_then(Json::as_int).unwrap_or(0) as u64,
                live,
                slices: reply.get("slices").and_then(Json::as_int).unwrap_or(0) as u64,
            });
        }
        if live == 0 {
            e2e.first_question_ms.push(millis(t0));
        }
        let q = reply.get("question").ok_or("reply has no question")?;
        let unit = q.get("unit").and_then(Json::as_str).unwrap_or_default();
        let ins = json_pairs(q.get("ins"));
        let outs = json_pairs(q.get("outs"));
        let verdict = model::judge(unit, &ins, &outs)
            .ok_or_else(|| format!("the §8 model cannot judge `{unit}`"))?;
        asked.push((unit.to_string(), ins.into_iter().map(|(_, v)| v).collect()));
        let mut fields = vec![
            ("op", Json::Str("answer".into())),
            ("session", Json::Int(sid)),
        ];
        match verdict {
            Answer::Correct => fields.push(("verdict", Json::Str("yes".into()))),
            Answer::Incorrect { wrong_output } => {
                fields.push(("verdict", Json::Str("no".into())));
                if let Some(k) = wrong_output {
                    fields.push(("wrong_output", Json::Int(k as i64)));
                }
            }
            Answer::DontKnow => fields.push(("verdict", Json::Str("dont_know".into()))),
        }
        let t = Instant::now();
        reply = request(client, &obj(fields))?;
        let dt = millis(t);
        e2e.answer_ms.push(dt);
        if let Some(o) = ops.as_deref_mut() {
            o.answer.push(dt);
        }
        live += 1;
    }
}

/// A running server on a fresh store, with its client.
struct Block {
    dir: PathBuf,
    server: ServerHandle,
    client: Client,
}

fn start_block(tag: &str, index: usize) -> Result<Block, String> {
    let dir = crate::work_dir(&format!("{tag}-{index}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut cfg = ServerConfig::new(Listen::Unix(dir.join("s.sock")), dir.join("store"));
    cfg.threads = WORKERS;
    cfg.shards = SHARDS;
    let server = Server::start(cfg).map_err(|e| e.to_string())?;
    let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    Ok(Block {
        dir,
        server,
        client,
    })
}

/// Stops a block's server; returns the `stats` reply taken before the
/// stop, the server's report, and the store directory's answers after a
/// reopen.
fn stop_block(mut block: Block) -> Result<(Json, ServerReport, usize, PathBuf), String> {
    let stats = request(
        &mut block.client,
        &obj(vec![("op", Json::Str("stats".into()))]),
    )?;
    drop(block.client);
    let served = block.server.shutdown().map_err(|e| e.to_string())?;
    let reopened = ShardedStore::open(block.dir.join("store"), SHARDS)
        .map_err(|e| e.to_string())?
        .answers_len();
    Ok((stats, served, reopened, block.dir))
}

/// The §8 array of seeding session `j` of block `b`: its sum is distinct
/// from every other session's in the block.
fn seeding_main(seed: u64, b: usize, j: u64) -> Main {
    let mut rng = Lcg::new(seed.wrapping_mul(7919).wrapping_add(b as u64));
    let base = rng.range(10, 10_000);
    let y = base + j as i64;
    let mut rng = Lcg::new(seed ^ (j << 20) ^ b as u64);
    let a1 = rng.range(1, y - 1);
    Main::Once { a1, a2: y - a1 }
}

fn pooled_main(seed: u64) -> Main {
    let mut rng = Lcg::new(seed);
    Main::Once {
        a1: rng.range(1, 500),
        a2: rng.range(1, 500),
    }
}

/// The sessions of block `b` after its set-up, in order.
fn plan(mode: Mode, seed: u64, b: usize) -> Vec<Planned> {
    match mode {
        Mode::Pooled => {
            let main = pooled_main(seed);
            (0..POOLED_ROUND * POOLED_ROUNDS_PER_BLOCK)
                .map(|j| {
                    let bug = if j % POOLED_ROUND == POOLED_ROUND - 1 {
                        Bug::Increment
                    } else {
                        Bug::Decrement
                    };
                    Planned {
                        source: model::program(bug, main),
                        bug,
                    }
                })
                .collect()
        }
        Mode::Seeding => (1..=SEEDING_SESSIONS_PER_BLOCK)
            .map(|j| Planned {
                source: model::program(Bug::Decrement, seeding_main(seed, b, j)),
                bug: Bug::Decrement,
            })
            .collect(),
    }
}

/// Set-up of block `b`: a fresh server on an empty store. Pooled: one
/// session answered by the client seeds the pool; with `ops`, its
/// client round trips are timed. Seeding: a warm-up session is created,
/// traced and asked for its first question, which is left unanswered,
/// so the store stays empty.
fn setup_block(
    mode: Mode,
    seed: u64,
    b: usize,
    tag: &str,
    ops: Option<&mut OpTimes>,
    asked: &mut Vec<(String, Vec<Value>)>,
) -> Result<Block, String> {
    let mut block = start_block(tag, b)?;
    let mut scratch = EndToEnd::default();
    match mode {
        Mode::Pooled => {
            let source = model::program(Bug::Decrement, pooled_main(seed));
            let out = client_session(&mut block.client, &source, &mut scratch, ops, asked)?;
            if out.blamed.as_deref() != Some("decrement") || out.live != ANSWERS_PER_SESSION {
                return Err(format!("the seeding session went wrong: {out:?}"));
            }
        }
        Mode::Seeding => {
            let source = model::program(Bug::Decrement, seeding_main(seed, b, 0));
            let created = request(
                &mut block.client,
                &obj(vec![
                    ("op", Json::Str("create".into())),
                    ("source", Json::Str(source)),
                ]),
            )?;
            let sid = created.get("session").and_then(Json::as_int).unwrap_or(-1);
            for op in [
                obj(vec![
                    ("op", Json::Str("trace".into())),
                    ("session", Json::Int(sid)),
                    ("inputs", Json::Array(vec![Json::Array(Vec::new())])),
                ]),
                obj(vec![
                    ("op", Json::Str("ask".into())),
                    ("session", Json::Int(sid)),
                    ("run", Json::Int(0)),
                ]),
            ] {
                request(&mut block.client, &op)?;
            }
        }
    }
    Ok(block)
}

/// Tallies of a pass.
#[derive(Default)]
struct Pass {
    outs: Vec<SessionOut>,
    attempted: u64,
    failed: u64,
    blocks: usize,
    dirs: Vec<PathBuf>,
}

/// Runs whole blocks until `seconds` of session time have passed (or
/// exactly `blocks` blocks).
#[allow(clippy::too_many_arguments)]
fn pass(
    mode: Mode,
    args: &Args,
    seconds: f64,
    blocks: Option<usize>,
    e2e: &mut EndToEnd,
    mut ops: Option<&mut OpTimes>,
    mut layers: Option<&mut Layers>,
    report: &mut Report,
) -> Result<Pass, String> {
    let tag = if ops.is_some() { "traced" } else { "plain" };
    let mut p = Pass::default();
    loop {
        let done = match blocks {
            Some(n) => p.blocks >= n,
            None => p.blocks > 0 && e2e.loop_s >= seconds,
        };
        if done {
            break;
        }
        let b = p.blocks;
        let mut asked = Vec::new();
        let t = Instant::now();
        let mut block = setup_block(mode, args.seed, b, tag, ops.as_deref_mut(), &mut asked)?;
        e2e.setup_s.push(secs(t));
        let planned = plan(mode, args.seed, b);
        let mut slice = e2e.slice();
        for (k, s) in planned.iter().enumerate() {
            let out = client_session(
                &mut block.client,
                &s.source,
                e2e,
                ops.as_deref_mut(),
                &mut asked,
            )?;
            p.attempted += 1;
            if out.blamed.as_deref() == Some(s.bug.unit()) {
                e2e.ops += 1;
                e2e.questions += out.questions;
                e2e.bugs += 1;
            } else if mode == Mode::Pooled && s.bug == Bug::Increment {
                p.failed += 1;
            } else {
                report.check(false, || {
                    format!(
                        "session blamed {:?}, planted bug is in {}",
                        out.blamed,
                        s.bug.unit()
                    )
                });
            }
            if mode == Mode::Seeding {
                report.check(out.live == ANSWERS_PER_SESSION, || {
                    format!(
                        "seeding session answered {} live questions, not 7",
                        out.live
                    )
                });
            }
            p.outs.push(out);
            if (k + 1) % SLICE == 0 {
                e2e.end_slice(slice);
                slice = e2e.slice();
            }
        }

        if let (Some(l), Some(o)) = (layers.as_deref_mut(), ops.as_deref_mut()) {
            let pings = 200;
            let t = Instant::now();
            for _ in 0..pings {
                request(
                    &mut block.client,
                    &obj(vec![("op", Json::Str("ping".into()))]),
                )?;
            }
            l.add_time("serve.ping_us", t.elapsed(), pings);
            for (name, xs) in [
                ("serve.create_ms", &o.create),
                ("serve.trace_ms", &o.trace),
                ("serve.ask_ms", &o.ask),
                ("serve.answer_ms", &o.answer),
            ] {
                let total: f64 = xs.iter().sum();
                l.add_time(name, Duration::from_secs_f64(total / 1e3), xs.len() as u64);
            }
            *o = OpTimes::default();
        }
        let (stats, report_at_stop, reopened, dir) = stop_block(block)?;
        let served = report_at_stop.answers;
        let int = |k: &str| stats.get(k).and_then(Json::as_int).unwrap_or(-1);
        let expected = match mode {
            Mode::Pooled => ANSWERS_PER_SESSION,
            Mode::Seeding => ANSWERS_PER_SESSION * planned.len() as u64,
        } as usize;
        report.check(served == expected && reopened == expected, || {
            format!(
                "block {b}: store holds {served} answers at shutdown and {reopened} after \
                 reopening, expected {expected}"
            )
        });
        if let Some(l) = layers.as_deref_mut() {
            l.set("serve.sessions_held", int("sessions") as f64);
            l.set("store.answers", int("answers") as f64);
            l.set("store.wal_records", int("wal_records") as f64);
            l.set("store.compactions", report_at_stop.compactions as f64);
            store_layer(&dir, &asked, l)?;
        }
        p.dirs.push(dir);
        p.blocks += 1;
        if e2e.peak_rss_mb.is_none() {
            e2e.peak_rss_mb = Some(crate::peak_rss_mb());
        }
    }
    // Stores are removed once the pass is over, so that no block's
    // set-up waits on another block's deletion.
    for dir in &p.dirs {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    Ok(p)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// `ShardedStore` calls in process, on a copy of a block's final store:
/// open, a lookup of every answer the block's client gave (for pooled,
/// the seeding session's answers, which every session reads), and
/// one-answer appends of new keys.
fn store_layer(dir: &Path, asked: &[(String, Vec<Value>)], l: &mut Layers) -> Result<(), String> {
    let copy = dir.join("store-copy");
    copy_dir(&dir.join("store"), &copy).map_err(|e| e.to_string())?;
    let store = l
        .time("store.open_ms", || ShardedStore::open(&copy, SHARDS))
        .map_err(|e| e.to_string())?;
    for (unit, ins) in asked {
        l.time("store.lookup_us", || store.lookup_answer(unit, ins));
    }
    for k in 0..20 {
        let entry = (
            "decrement".to_string(),
            vec![Value::Int(-1 - k)],
            StoredAnswer::Correct,
            "user".to_string(),
        );
        l.time("store.append_us", || store.record_answers(&[entry]))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(args: &Args, mode: Mode) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut e2e = EndToEnd::default();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = pass(mode, args, seconds, None, &mut e2e, None, None, &mut report)?;
    report.note(format!(
        "{} blocks of {} sessions; {} attempted, {} failed; VmHWM {:.1} MiB after the \
         first block, {:.1} MiB after the last",
        plain.blocks,
        plain.outs.len() / plain.blocks.max(1),
        plain.attempted,
        plain.failed,
        e2e.peak_rss_mb.unwrap_or(0.0),
        crate::peak_rss_mb()
    ));
    if !args.trace {
        report.attempted = plain.attempted;
        report.failed = plain.failed;
        e2e.finish(&mut report, "session");
        return Ok(report);
    }

    let mut layers = Layers::default();
    let mut ops = OpTimes::default();
    let mut traced_e2e = EndToEnd::default();
    let traced = pass(
        mode,
        args,
        0.0,
        Some(plain.blocks),
        &mut traced_e2e,
        Some(&mut ops),
        Some(&mut layers),
        &mut report,
    )?;
    report.check(traced.outs == plain.outs, || {
        "traced sessions differ from the untraced ones".into()
    });
    // The pipeline the server runs per session, in process, on the
    // first block's sources.
    for s in plan(mode, args.seed, 0).iter().take(20) {
        traced_front_end(&s.source, &mut layers)?;
    }
    layers.set(
        "tracing.overhead_pct",
        (traced_e2e.loop_s - e2e.loop_s) / e2e.loop_s * 100.0,
    );
    layers.set(
        "session.first_question_ms_p50",
        median(&e2e.first_question_ms),
    );
    layers.set("session.answer_ms_p50", median(&e2e.answer_ms));
    report.attempted = plain.attempted + traced.attempted;
    report.failed = plain.failed + traced.failed;
    layers.finish(&mut report);
    Ok(report)
}
