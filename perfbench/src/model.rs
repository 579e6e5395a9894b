//! The paper's §8 program (Figure 4), generated in the variants the
//! workloads debug, and a hand-written model of its units that judges
//! questions without the program's own pipeline.

use gadt::oracle::Answer;
use gadt_pascal::value::Value;

/// Where a variant's planted bug sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// The paper's bug: `decrement := y + 1` (should be `y - 1`).
    Decrement,
    /// The bug moved: `increment := y + 2` (should be `y + 1`).
    Increment,
    /// The fixed program, the reference oracle's source.
    None,
}

impl Bug {
    /// The unit a debugger must blame.
    pub fn unit(self) -> &'static str {
        match self {
            Bug::Decrement => "decrement",
            Bug::Increment => "increment",
            Bug::None => "",
        }
    }
}

/// How the main body drives `sqrtest`.
#[derive(Debug, Clone, Copy)]
pub enum Main {
    /// One call on the array `[a1, a2]`, as in the paper.
    Once { a1: i64, a2: i64 },
    /// A loop of `iterations` calls; iteration `i` sums the array
    /// `[(i*k1 + c1) mod 97 + 1, (i*k2 + c2) mod 89 + 1]`.
    Loop {
        iterations: u32,
        k1: i64,
        c1: i64,
        k2: i64,
        c2: i64,
    },
}

impl Main {
    /// A seeded loop main.
    pub fn seeded_loop(rng: &mut crate::Lcg, iterations: u32) -> Main {
        Main::Loop {
            iterations,
            k1: rng.range(1, 96),
            c1: rng.range(0, 96),
            k2: rng.range(1, 88),
            c2: rng.range(0, 88),
        }
    }
}

/// The §8 program with the given bug and main body.
pub fn program(bug: Bug, main: Main) -> String {
    let decrement = if bug == Bug::Decrement {
        "y + 1"
    } else {
        "y - 1"
    };
    let increment = if bug == Bug::Increment {
        "y + 2"
    } else {
        "y + 1"
    };
    let (extra_var, body) = match main {
        Main::Once { a1, a2 } => (
            "",
            format!("  ary[1] := {a1};\n  ary[2] := {a2};\n  sqrtest(ary, 2, isok);\n"),
        ),
        Main::Loop {
            iterations,
            k1,
            c1,
            k2,
            c2,
        } => (
            "    i: integer;\n",
            format!(
                "  for i := 1 to {iterations} do begin\n    \
                 ary[1] := (i * {k1} + {c1}) mod 97 + 1;\n    \
                 ary[2] := (i * {k2} + {c2}) mod 89 + 1;\n    \
                 sqrtest(ary, 2, isok);\n  end;\n"
            ),
        ),
    };
    format!(
        "program Main;
type intarray = array[1..2] of integer;
var isok: boolean;
    ary: intarray;
{extra_var}
procedure test(r1, r2: integer; var isok: boolean);
begin
  isok := r1 = r2;
end;

procedure arrsum(a: intarray; n: integer; var b: integer);
var i: integer;
begin
  b := 0;
  for i := 1 to n do b := b + a[i];
end;

procedure square(y: integer; var r2: integer);
begin
  r2 := y * y;
end;

procedure comput2(y: integer; var r2: integer);
begin
  square(y, r2);
end;

procedure add(s1, s2: integer; var r1: integer);
begin
  r1 := s1 + s2;
end;

function decrement(y: integer): integer;
begin
  decrement := {decrement};
end;

function increment(y: integer): integer;
begin
  increment := {increment};
end;

procedure sum2(y: integer; var s2: integer);
var t: integer;
begin
  s2 := decrement(y) * y div 2;
end;

procedure sum1(y: integer; var s1: integer);
var z: integer;
begin
  s1 := y * increment(y) div 2;
end;

procedure partialsums(y: integer; var s1, s2: integer);
begin
  sum1(y, s1);
  sum2(y, s2);
end;

procedure comput1(y: integer; var r1: integer);
var s1, s2: integer;
begin
  partialsums(y, s1, s2);
  add(s1, s2, r1);
end;

procedure computs(y: integer; var r1, r2: integer);
begin
  comput1(y, r1);
  comput2(y, r2);
end;

procedure sqrtest(ary: intarray; n: integer; var isok: boolean);
var r1, r2, t: integer;
begin
  arrsum(ary, n, t);
  computs(t, r1, r2);
  test(r1, r2, isok);
end;

begin (* Main *)
{body}end.
"
    )
}

fn int(ins: &[(String, Value)], name: &str) -> Option<i64> {
    match ins.iter().find(|(n, _)| n.eq_ignore_ascii_case(name))?.1 {
        Value::Int(v) => Some(v),
        _ => None,
    }
}

fn array_sum(ins: &[(String, Value)], name: &str, n: i64) -> Option<i64> {
    let Value::Array(a) = &ins.iter().find(|(k, _)| k.eq_ignore_ascii_case(name))?.1 else {
        return None;
    };
    let mut sum = 0;
    for i in 1..=n {
        let idx = usize::try_from(i - a.lo).ok()?;
        match a.elems.get(idx)? {
            Value::Int(v) => sum += v,
            _ => return None,
        }
    }
    Some(sum)
}

/// The intended Out-values of one §8 unit on `ins`, by Out name.
fn intended(unit: &str, ins: &[(String, Value)]) -> Option<Vec<(&'static str, Value)>> {
    let sq = |y: i64| y * y;
    Some(match unit.to_ascii_lowercase().as_str() {
        "sqrtest" => {
            let t = array_sum(ins, "ary", int(ins, "n")?)?;
            let r1 = t * (t + 1) / 2 + (t - 1) * t / 2;
            vec![("isok", Value::Bool(r1 == sq(t)))]
        }
        "arrsum" => vec![("b", Value::Int(array_sum(ins, "a", int(ins, "n")?)?))],
        "computs" => {
            let y = int(ins, "y")?;
            vec![("r1", Value::Int(sq(y))), ("r2", Value::Int(sq(y)))]
        }
        "comput1" => vec![("r1", Value::Int(sq(int(ins, "y")?)))],
        "comput2" => vec![("r2", Value::Int(sq(int(ins, "y")?)))],
        "square" => vec![("r2", Value::Int(sq(int(ins, "y")?)))],
        "partialsums" => {
            let y = int(ins, "y")?;
            vec![
                ("s1", Value::Int(y * (y + 1) / 2)),
                ("s2", Value::Int((y - 1) * y / 2)),
            ]
        }
        "sum1" => {
            let y = int(ins, "y")?;
            vec![("s1", Value::Int(y * (y + 1) / 2))]
        }
        "sum2" => {
            let y = int(ins, "y")?;
            vec![("s2", Value::Int((y - 1) * y / 2))]
        }
        "add" => vec![("r1", Value::Int(int(ins, "s1")? + int(ins, "s2")?))],
        "decrement" => vec![("decrement", Value::Int(int(ins, "y")? - 1))],
        "increment" => vec![("increment", Value::Int(int(ins, "y")? + 1))],
        "test" => vec![("isok", Value::Bool(int(ins, "r1")? == int(ins, "r2")?))],
        _ => return None,
    })
}

/// Judges one question on a §8 unit from the model: `Correct` when every
/// Out-value is the intended one, otherwise `Incorrect` naming the first
/// wrong output. `None` when the model does not know the unit or the
/// question's In/Out names.
pub fn judge(unit: &str, ins: &[(String, Value)], outs: &[(String, Value)]) -> Option<Answer> {
    let want = intended(unit, ins)?;
    if want.len() != outs.len() {
        return None;
    }
    for (k, (name, got)) in outs.iter().enumerate() {
        let (_, expected) = want.iter().find(|(w, _)| w.eq_ignore_ascii_case(name))?;
        if expected != got {
            return Some(Answer::Incorrect {
                wrong_output: Some(k),
            });
        }
    }
    Some(Answer::Correct)
}
