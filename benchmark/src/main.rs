//! The repository's yardstick. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] [--report FILE]
//! benchmark all [--seed N] [--seconds S] [--reps N] [--workload NAME]... [--quick] [--out FILE]
//! benchmark compare A.json B.json
//! ```

mod daemon;
mod json;
mod layers;
mod live;
mod procfs;
mod report;
mod run;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::{Row, RunReport};
use run::RunArgs;
use spec::{Workload, WORKLOADS};

/// What `all` measures each workload for, unless told otherwise; the value
/// `BENCHMARK.json` gives as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => run_one(&args),
        _ => Err(usage()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] [--report FILE]\n  \
         benchmark all [--seed N] [--seconds S] [--reps N] [--workload NAME]... [--quick] [--out FILE]\n  \
         benchmark compare A.json B.json\nworkloads: {}",
        names.join(" ")
    )
}

/// `--flag value` pairs and bare `--switches`, in order.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn values(&self, flag: &str) -> Vec<&'a str> {
        self.args
            .windows(2)
            .filter(|pair| pair[0] == flag)
            .map(|pair| pair[1].as_str())
            .collect()
    }

    fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.values(flag).last() {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value {raw:?} for {flag}")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        let named = self.values("--workload");
        if named.is_empty() {
            return Ok(WORKLOADS.iter().collect());
        }
        named
            .into_iter()
            .map(|name| {
                spec::workload(name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))
            })
            .collect()
    }
}

/// The driver's entry: one workload, one trace mode, result on the last line.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags { args };
    let [workload] = flags.workloads()?[..] else {
        return Err("give exactly one --workload".to_owned());
    };
    let seconds: f64 = flags.value("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let run_args = RunArgs {
        workload,
        seed: flags.value("--seed", 1)?,
        seconds,
        traced: match flags.value("--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other} is neither 0 nor 1")),
        },
        trace_out: flags.values("--trace-out").last().map(PathBuf::from),
    };
    let report = run::run(&run_args)?;
    print!("{}", report.table());
    if let Some(path) = flags.values("--report").last() {
        std::fs::write(path, report.to_json().render_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", report.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a child process, so that peak memory and leftover
/// threads never leak from one workload into the next.
fn run_child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let report_path = scratch.join(format!("{}-{}.json", w.name, u8::from(traced)));
    let mut child = Command::new(exe);
    child
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--report")
        .arg(&report_path)
        .stdout(Stdio::null());
    if traced {
        child
            .arg("--trace-out")
            .arg(scratch.join(format!("{}.trace.json", w.name)));
    }
    let status = child
        .status()
        .map_err(|e| format!("cannot start {}: {e}", w.name))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", w.name));
    }
    let text = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    RunReport::from_json(&Json::parse(&text)?)
}

/// One metric across a workload's repetitions: the median is the value, the
/// single values stay for `compare` to take the spread from.
fn pass_rows(runs: &[RunReport], pick: impl Fn(&RunReport) -> &[Row]) -> Json {
    let first = pick(&runs[0]);
    Json::Obj(
        first
            .iter()
            .map(|row| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| pick(r).iter().find(|x| x.name == row.name))
                    .map(|x| x.value)
                    .collect();
                let median = Row {
                    value: stats::median(&values),
                    ..row.clone()
                };
                let Json::Obj(mut entry) = median.to_json() else {
                    unreachable!("a row renders as an object");
                };
                entry.push((
                    "values".to_owned(),
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ));
                (row.name.clone(), Json::Obj(entry))
            })
            .collect(),
    )
}

/// One command for the whole yardstick: every workload, untraced `--reps`
/// times and traced once, each in its own process; one pass object out.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags { args };
    let quick = flags.switch("--quick");
    let seed: u64 = flags.value("--seed", 1)?;
    let reps: usize = flags.value("--reps", 1)?;
    let mut seconds: f64 = flags.value("--seconds", DEFAULT_SECONDS)?;
    if quick {
        seconds /= 10.0;
    }
    if reps == 0 {
        return Err("--reps must be at least 1".to_owned());
    }
    let scratch = daemon::target_dir()?
        .join("bench_tmp")
        .join(format!("pass-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;

    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in flags.workloads()? {
        let untraced: Vec<RunReport> = (0..reps)
            .map(|_| run_child(w, seed, seconds, false, &scratch))
            .collect::<Result<_, _>>()?;
        let traced = run_child(w, seed, seconds, true, &scratch)?;
        for report in untraced.iter().chain([&traced]) {
            print!("{}", report.table());
            all_correct &= report.correct;
        }
        let attempted: u64 = untraced.iter().map(|r| r.attempted).sum();
        let failed: u64 = untraced.iter().map(|r| r.failed).sum();
        workloads.push((
            w.name.to_owned(),
            Json::obj([
                ("why", Json::str(w.why)),
                ("config", untraced[0].config.clone()),
                (
                    "correct",
                    Json::Bool(untraced.iter().all(|r| r.correct) && traced.correct),
                ),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("end_to_end", pass_rows(&untraced, |r| &r.metrics)),
                ("end_to_end_detail", pass_rows(&untraced, |r| &r.extras)),
                (
                    "per_layer",
                    pass_rows(std::slice::from_ref(&traced), |r| &r.metrics),
                ),
                (
                    "per_layer_detail",
                    pass_rows(std::slice::from_ref(&traced), |r| &r.extras),
                ),
            ]),
        ));
    }
    let pass = Json::obj([
        ("schema", Json::str(report::SCHEMA)),
        ("comparable", Json::Bool(!quick)),
        ("host", procfs::host_fingerprint()),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("reps", Json::Num(reps as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(out) = flags.values("--out").last() {
        std::fs::write(out, pass.render_pretty())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        // Traces are only worth keeping beside a pass someone asked for.
        for entry in std::fs::read_dir(&scratch).into_iter().flatten().flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".trace.json") {
                let kept = Path::new(out).with_file_name(&name);
                let _ = std::fs::copy(entry.path(), kept);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a correctness gate failed");
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
