//! Small-size smoke test of every workload: each metric `BENCHMARK.json`
//! names must be printed, on the result line and in the table above it,
//! with its unit; bad arguments must be refused with a typed message.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A parsed JSON value (just what the benchmark files need).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.pos, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.pos),
            Some(&c),
            "expected `{}` at {}",
            c as char,
            self.pos
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.pos]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(m);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(key.clone(), v).is_none(), "duplicate key {key}");
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.pos;
                while self.pos < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.pos]) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.pos]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.pos..].starts_with(w.as_bytes()), "expected {w}");
        self.pos += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.pos];
            self.pos += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.pos];
                    self.pos += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    let start = self.pos - 1;
                    let len = match c {
                        0..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&self.s[start..start + len]).unwrap());
                    self.pos = start + len;
                }
            }
        }
    }
}

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// `(name, unit)` of every metric in one list of the manifest.
fn metric_list(manifest: &Json, list: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = manifest.get(list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run perfbench")
}

fn check_workload(workload: &str, trace: &str, expected: &[(String, String)]) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Parser::parse(last);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {stderr}"
    );
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted is not a number");
    };
    assert!(*attempted >= 1.0);
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let names: Vec<&String> = metrics.keys().collect();
    let mut want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    want.sort();
    assert_eq!(
        names, want,
        "{workload} --trace {trace} prints exactly the manifest metrics"
    );
    for (name, unit) in expected {
        let m = &metrics[name];
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        let Json::Num(v) = m.get("value") else {
            panic!("{workload}: {name} has no numeric value");
        };
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.ends_with(unit.as_str())),
            "{workload}: table row for {name} with unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let manifest = manifest();
    let end_to_end = metric_list(&manifest, "end_to_end");
    let per_layer = metric_list(&manifest, "per_layer");
    let Json::Arr(workloads) = manifest.get("workloads") else {
        panic!("workloads is not a list");
    };
    let mut names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    // Runnable by name but kept out of the manifest (see README.md).
    names.push("log-heavy");
    for name in names {
        check_workload(name, "0", &end_to_end);
        check_workload(name, "1", &per_layer);
    }
}

#[test]
fn bad_arguments_are_refused_with_typed_messages() {
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            "unknown workload `nope`",
        ),
        (
            &[
                "--workload",
                "service",
                "--seed",
                "x1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            "malformed --seed `x1`",
        ),
        (
            &[
                "--workload",
                "service",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "yes",
            ],
            "malformed --trace `yes`",
        ),
    ];
    for (args, message) in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
