//! The repo benchmark: seven workloads, end-to-end and per-layer metrics and
//! a traced run, all measured from outside the program under test (public
//! counters, a decorator over a public trait, direct calls into public
//! functions).  README.md explains the workloads, the metrics and the trace
//! file; `BENCHMARK.json` at the repo root is printed by `--print-manifest`.
//!
//! With `--workload W` the process measures that one workload and prints one
//! JSON result as its last line.  Without it, the process spawns itself once
//! per workload, one after the other, so peak memory is per workload.

mod alloc;
mod driver;
mod exec;
mod json;
mod metrics;
mod probes;
mod trace;
mod workloads;

use crate::exec::Pass;
use crate::json::Json;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{Inputs, OpKind, Workload};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The run length `BENCHMARK.json` declares; workload sizes are documented
/// at this value (`scale` 1.0).
const RUN_SECONDS: u64 = 10;

const USAGE: &str = "\
usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                 [--reps K] [--seed-step D] [--quick] [--json FILE]
                 [--print-manifest]

  --workload W     measure one workload and print one JSON result as the last
                   line (without it: every workload, one child process each)
  --seed N         benchmark seed, >= 1 (default 1, the development seed; a
                   claim must also hold on the held-out seed 101)
  --seconds S      amount of work, calibrated so a pass takes about 0.8 x S
                   seconds on the reference box (default 10)
  --trace 0|1      0: end-to-end metrics, tracing off (default)
                   1: per-layer metrics from an untraced pass, a traced pass
                      and the layer probes; writes the span file
  --reps K         all-workload mode: K untraced children per workload and a
                   noise report (min, median, max, quartile distance)
  --seed-step D    with --reps: child i uses seed N + i x D (default 0)
  --quick          self-check at a tenth of the size (--seconds 1)
  --json FILE      also write the result(s) to FILE
  --print-manifest print BENCHMARK.json and exit
";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reps: usize,
    pub seed_step: u64,
    pub json: Option<String>,
}

impl Args {
    /// Workload size relative to the documented one.
    fn scale(&self) -> f64 {
        self.seconds / RUN_SECONDS as f64
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read {text:?}"))
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        reps: 1,
        seed_step: 0,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number(flag, value("a number")?)?,
            "--seconds" => args.seconds = number(flag, value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--reps" => args.reps = number(flag, value("a number")?)?,
            "--seed-step" => args.seed_step = number(flag, value("a number")?)?,
            "--quick" => args.seconds = 1.0,
            "--json" => args.json = Some(value("a file name")?.to_string()),
            "--print-manifest" => {
                print!("{}", metrics::manifest(RUN_SECONDS).encode_pretty());
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seed == 0 {
        return Err("--seed starts at 1".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.reps == 0 {
        return Err("--reps starts at 1".into());
    }
    Ok(Some(args))
}

/// Peak resident set of this process, MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set up the workload several times (at least 3 and for at least 0.25 s)
/// and return the inputs with the median set-up time.  The first sample runs
/// from process start, so it includes argument parsing.
fn timed_setup(args: &Args, workload: Workload, started: Instant) -> (Inputs, f64) {
    let mut samples = Vec::new();
    let mut begin = started;
    let mut spent = 0.0;
    loop {
        let inputs = exec::setup(workload, args.seed, args.scale());
        let took = begin.elapsed().as_secs_f64();
        samples.push(took);
        spent += took;
        if (samples.len() >= 3 && spent >= 0.25) || samples.len() >= 50 {
            samples.sort_by(f64::total_cmp);
            return (inputs, driver::quartiles(&samples)[1]);
        }
        begin = Instant::now();
    }
}

/// Run the first operation again: the same input must give the same digest.
fn repeat_gate(inputs: &Inputs, pass: &Pass, failures: &mut Vec<String>) {
    let first = &inputs.ops[0];
    let again = Inputs {
        workload: inputs.workload,
        ops: vec![first.clone()],
        points: inputs.points.clone(),
        table1: None,
    };
    let repeat = exec::run_pass(&again, &mut Tracer::new(false));
    if repeat.op_digests[0] != pass.op_digests[0] {
        failures.push(format!(
            "{}: repeated with a different result digest",
            first.label
        ));
    }
}

/// The cost of the fluid layer, measured from outside: the pass's wall time
/// over that of the same scenarios without their background flows (0 for a
/// workload without any).
fn fluid_cost_ratio(inputs: &Inputs, pass: &Pass) -> f64 {
    let has_background = |op: &workloads::Op| matches!(&op.kind, OpKind::Sim { scenario, .. } if scenario.sim.background.is_some());
    if !inputs.ops.iter().any(has_background) {
        return 0.0;
    }
    let mut twin = Inputs {
        workload: inputs.workload,
        ops: inputs.ops.clone(),
        points: inputs.points.clone(),
        table1: None,
    };
    for op in &mut twin.ops {
        if let OpKind::Sim { scenario, .. } = &mut op.kind {
            scenario.sim.background = None;
        }
    }
    pass.wall_s / exec::run_pass(&twin, &mut Tracer::new(false)).wall_s
}

/// Where span files go: `<target dir>/benchmark/`, next to the profile
/// directory this executable was built into.
fn trace_path(workload: Workload) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.join("benchmark");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("trace-{}.json", workload.name())))
}

/// Measure one workload; the last line printed is the JSON result.
fn run_workload(args: &Args, workload: Workload, started: Instant) -> ExitCode {
    let (inputs, setup_s) = timed_setup(args, workload, started);
    let pass = exec::run_pass(&inputs, &mut Tracer::new(false));
    let mut failures = pass.failures.clone();
    repeat_gate(&inputs, &pass, &mut failures);

    let mut values = Values::default();
    let defs = if args.trace {
        pass.counts_into(&inputs, &mut values);
        let mut tracer = Tracer::new(true);
        let traced = tracer.span_labeled("workload", Some(workload.name()), |tracer| {
            let again = tracer.span("experiments.scenario_build", |_| {
                workloads::generate(workload, args.seed, args.scale())
            });
            exec::run_pass(&again, tracer)
        });
        failures.extend(traced.failures.iter().map(|f| format!("traced pass: {f}")));
        if traced.digest != pass.digest {
            failures.push("the traced pass's digest differs from its untraced twin's".into());
        }
        values.set(
            "experiments.scenario_build_s",
            tracer.total_s("experiments.scenario_build"),
        );
        traced.spans_into(&tracer, pass.wall_s, &mut values);
        values.set("netsim.fluid.cost_ratio", fluid_cost_ratio(&inputs, &pass));
        probes::run_all(&mut values);
        match trace_path(workload) {
            Some(path) => {
                let text = tracer.to_json(workload.name(), args.seed).encode_pretty();
                match std::fs::write(&path, text) {
                    Ok(()) => println!("trace {}", path.display()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
            None => eprintln!("no target directory to write the span file into"),
        }
        PER_LAYER
    } else {
        values.set("setup_s", setup_s);
        values.set("wall_s", pass.wall_s);
        match peak_rss_mb() {
            Some(mb) => values.set("peak_rss_mb", mb),
            None => failures.push("cannot read VmHWM from /proc/self/status".into()),
        }
        END_TO_END
    };
    if !values.all_finite() {
        failures.push("a metric is not a finite number".into());
    }

    // Lines the all-workload mode reads back, then the JSON result.
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("digest {:016x}", pass.digest);
    println!("slowest {:.3} ms: {}", pass.slowest.0, pass.slowest.1);
    for failure in &failures {
        println!("failure {failure}");
    }
    for def in defs {
        println!(
            "metric {} {} {}",
            def.name,
            values.value(def.name),
            def.unit
        );
    }
    let correct = failures.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(pass.attempted.max(1))),
        ("failed", Json::Int(pass.failed)),
        ("metrics", values.to_json(defs)),
    ]);
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, result.encode_pretty()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_workload(&args, workload, started),
        None => driver::run(&args),
    }
}
