//! Regenerate the paper's evaluation and drive the two diagnostic surfaces:
//! `reproduce <figures | attacks | trace FILE | explore> [flags]`.
//!
//! `reproduce --help` describes the four subcommands and `reproduce
//! <subcommand> --help` lists its flags; docs/THREAT_MODEL.md,
//! docs/OBSERVABILITY.md and docs/VERIFICATION.md explain what `attacks`,
//! `trace` and `explore` print.  Every argument is checked before the first
//! simulation starts: a bad one exits 2 with the subcommand's usage.  A
//! failed `trace` write or `explore` target exits 1.  Wall-clock is measured
//! by `benchmark/` and `tools/ab.py`, never here.

use manet_experiments::attacks::{attack_matrix, render_attack_matrix, AttackSweepSpec};
use manet_experiments::figures::{table1_relay_table, FigureId};
use manet_experiments::report::{render_figure, render_relay_table};
use manet_experiments::runner::{run_scenario_with_recorder, sweep, SweepSpec};
use manet_experiments::{Protocol, RunKey, Scenario};
use manet_mck::{
    blackhole_corridor, explore, outcome_digest, run_with_trace, ExploreSpec, Invariant, Verdict,
};
use manet_netsim::telemetry::{write_ndjson, FrameKind, TelemetryEvent, WriteSink};
use manet_netsim::{Duration, TelemetryConfig};
use std::str::FromStr;

/// One checked invocation.
#[derive(Debug, PartialEq)]
enum Command {
    /// The subcommand, as its index into [`SUBCOMMANDS`], and its arguments.
    Run(usize, Box<Args>),
    /// `--help` / `-h`: the usage text to print.
    Help(String),
}

/// What the flags set, `None` where one was not given (the runners hold the
/// defaults); a subcommand reads the fields its table names.
#[derive(Debug, Default, PartialEq)]
struct Args {
    duration: Option<f64>,
    seeds: Option<u64>,
    /// `None` with `table` unset prints every figure and the table.
    figure: Option<FigureId>,
    table: bool,
    speeds: Option<Vec<f64>>,
    /// The operand of `trace`.
    file: String,
    run: Option<RunKey>,
    nodes: Option<u16>,
    secs: Option<f64>,
    packet: Option<(u32, u64)>,
    horizon: Option<u32>,
    interventions: Option<u32>,
    budget: Option<u64>,
    seed: Option<u64>,
    invariant: Option<Invariant>,
    bound: Option<f64>,
    kinds: Option<Vec<&'static str>>,
    ndjson: Option<String>,
}

/// One `--flag VALUE` pair.  The parse loop and the usage text are both
/// generated from the tables below, so a flag is described in one place.
struct Flag {
    name: &'static str,
    /// The value's metavariable, then what it means, its valid range and its
    /// default: a rejected value is answered with this text.
    help: &'static str,
    /// Store the value, or `None` if it is outside what `help` says.
    parse: fn(&mut Args, &str) -> Option<()>,
}

struct Subcommand {
    name: &'static str,
    /// `" FILE"` for `trace`, which takes one operand; empty for the others.
    operand: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), String>,
}

const SUBCOMMANDS: [Subcommand; 4] = [
    Subcommand {
        name: "figures",
        operand: "",
        about: "run the paper sweep (3 protocols x 5 speeds x --seeds) and print Figs 5-11 and \
                Table I, or the one --figure / --table names",
        flags: &[DURATION, SEEDS, FIGURE, TABLE],
        run: run_figures,
    },
    Subcommand {
        name: "attacks",
        operand: "",
        about: "run DSR, AODV, MTS and hardened MTS against the canonical attacks and print one \
                table per (protocol, speed); deterministic per seed",
        flags: &[DURATION, SEEDS, SPEEDS],
        run: run_attacks,
    },
    Subcommand {
        name: "trace",
        operand: " FILE",
        about: "run one scaled MTS scenario, or the grid run --run names, with telemetry on (1 s \
                sampler windows) and write the event stream to FILE as NDJSON",
        flags: &[RUN, NODES, SECS, PACKET],
        run: run_trace,
    },
    Subcommand {
        name: "explore",
        operand: "",
        about: "on a static black-hole corridor, hunt a minimal delivery schedule that breaks \
                --invariant on plain MTS and replay it, then prove --bound on hardened MTS",
        flags: &[
            CORRIDOR, HORIZON, INTERVENE, BUDGET, SECS, SEED, INVARIANT, BOUND, KINDS, NDJSON,
        ],
        run: run_explore,
    },
];

const DURATION: Flag = Flag {
    name: "--duration",
    help: "SECS  simulated seconds per run, finite and > 0 [200]",
    parse: |a, v| put(&mut a.duration, seconds(v)),
};
const SEEDS: Flag = Flag {
    name: "--seeds",
    help: "N  seeds 1..=N averaged per point, a whole number >= 1 [5]",
    parse: |a, v| put(&mut a.seeds, at_least(v, 1)),
};
const FIGURE: Flag = Flag {
    name: "--figure",
    help: "N  print only Fig. N, a whole number in 5..=11",
    parse: |a, v| {
        let n = num(v, |n: &usize| (5..=11).contains(n));
        put(&mut a.figure, n.map(|n| FigureId::ALL[n - 5]))
    },
};
const TABLE: Flag = Flag {
    name: "--table",
    help: "1  print only Table I (one DSR run; the sweep runs only if --figure is given too)",
    parse: |a, v| num(v, |n: &u8| *n == 1).map(|_| a.table = true),
};
const SPEEDS: Flag = Flag {
    name: "--speeds",
    help: "S1,S2,..  maximum node speeds in m/s, each finite and >= 0 [1,10,20]",
    parse: |a, v| {
        let speed = |s: &str| num(s, |x: &f64| x.is_finite() && *x >= 0.0);
        put(&mut a.speeds, list(v, speed))
    },
};
const RUN: Flag = Flag {
    name: "--run",
    help: "KEY  trace this run of the figure and attack grid instead, \
           PROTOCOL/ATTACK/SPEED/SEED[/SECS] such as MTS-H/blackhole(x2)/10/1/30: PROTOCOL is \
           DSR, AODV, MTS or MTS-H, ATTACK a row label of `reproduce attacks`, SECS [200]; \
           not with --nodes or --secs",
    parse: |a, v| {
        let alone = a.nodes.is_none() && a.secs.is_none();
        put(&mut a.run, v.parse().ok().filter(|_| alone))
    },
};
const NODES: Flag = Flag {
    name: "--nodes",
    help: "N  node count of the scaled scenario (constant density), N >= 2, not with --run [200]",
    parse: |a, v| put(&mut a.nodes, at_least(v, 2).filter(|_| a.run.is_none())),
};
const SECS: Flag = Flag {
    name: "--secs",
    help: "S  simulated seconds per run, finite and > 0, not with --run [trace 10, explore 2]",
    parse: |a, v| put(&mut a.secs, seconds(v).filter(|_| a.run.is_none())),
};
const PACKET: Flag = Flag {
    name: "--packet",
    help: "CONN:SEQ  also follow one tagged packet end to end as provenance events, e.g. 0:1448",
    parse: |a, v| {
        let (conn, seq) = v.split_once(':')?;
        let pair = (conn.trim().parse().ok()?, seq.trim().parse().ok()?);
        put(&mut a.packet, Some(pair))
    },
};
const CORRIDOR: Flag = Flag {
    name: "--nodes",
    help: "N  corridor size of the hunt, N >= 4; the proof runs at min(N, 6) [8]",
    parse: |a, v| put(&mut a.nodes, at_least(v, 4)),
};
const HORIZON: Flag = Flag {
    name: "--horizon",
    help: "H  eligible receptions open to intervention, H >= 1 [12]",
    parse: |a, v| put(&mut a.horizon, at_least(v, 1)),
};
const INTERVENE: Flag = Flag {
    name: "--interventions",
    help: "K  most drop/delay interventions per schedule [2]",
    parse: |a, v| put(&mut a.interventions, at_least(v, 0)),
};
const BUDGET: Flag = Flag {
    name: "--budget",
    help: "RUNS  most simulations per target, RUNS >= 1 [2000]",
    parse: |a, v| put(&mut a.budget, at_least(v, 1)),
};
const SEED: Flag = Flag {
    name: "--seed",
    help: "SEED  scenario seed [9]",
    parse: |a, v| put(&mut a.seed, at_least(v, 0)),
};
const INVARIANT: Flag = Flag {
    name: "--invariant",
    help: "I  what the hunt breaks: no-capture | delivers-data | capture<=F [capture<=0.65]",
    parse: |a, v| put(&mut a.invariant, Invariant::parse(v)),
};
const BOUND: Flag = Flag {
    name: "--bound",
    help: "F  capture fraction the proof must hold, in 0..=1 [0.25]",
    parse: |a, v| put(&mut a.bound, num(v, |f| (0.0..=1.0).contains(f))),
};
const KINDS: Flag = Flag {
    name: "--kinds",
    help: "K1,K2,..  frames open to intervention: RREQ RREP RERR CHECK CHECK_ERR DATA [DATA]",
    parse: |a, v| {
        let known = |s: &str| {
            FrameKind::LABELS
                .into_iter()
                .find(|k| k.eq_ignore_ascii_case(s))
        };
        put(&mut a.kinds, list(v, known))
    },
};
const NDJSON: Flag = Flag {
    name: "--ndjson",
    help: "FILE  write the counterexample replay's telemetry stream as NDJSON",
    parse: |a, v| put(&mut a.ndjson, Some(v.to_string())),
};

fn put<T>(slot: &mut Option<T>, value: Option<T>) -> Option<()> {
    value.map(|v| *slot = Some(v))
}

fn num<T: FromStr>(v: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
    v.trim().parse().ok().filter(ok)
}

fn at_least<T: FromStr + PartialOrd>(v: &str, min: T) -> Option<T> {
    num(v, |n| *n >= min)
}

fn seconds(v: &str) -> Option<f64> {
    num(v, |s: &f64| s.is_finite() && *s > 0.0)
}

fn list<T>(v: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    v.split(',').map(|s| item(s.trim())).collect()
}

/// The usage text of subcommand `sub`, or the overview when there is none.
fn usage(sub: Option<&Subcommand>) -> String {
    let Some(sub) = sub else {
        let mut text = "usage: reproduce <subcommand> [flags]".to_string();
        for s in &SUBCOMMANDS {
            text += &format!("\n  {}{}: {}", s.name, s.operand, s.about);
        }
        return text + "\n`reproduce <subcommand> --help` lists its flags.";
    };
    let (name, operand, about) = (sub.name, sub.operand, sub.about);
    let mut text = format!("usage: reproduce {name}{operand} [flags]\n  {about}\nflags:");
    for flag in sub.flags {
        text += &format!("\n  {} {}", flag.name, flag.help);
    }
    text
}

/// Parse the arguments after the program name.  The error is a complete
/// message: what was wrong, naming the offending token, then the usage.
fn parse(args: &[&str]) -> Result<Command, String> {
    let name = args.first().copied();
    let index = SUBCOMMANDS.iter().position(|s| Some(s.name) == name);
    let sub = index.map(|i| &SUBCOMMANDS[i]);
    if args.iter().any(|a| *a == "--help" || *a == "-h") {
        return Ok(Command::Help(usage(sub)));
    }
    let parsed = match (index, name) {
        (Some(i), _) => parse_flags(&SUBCOMMANDS[i], &args[1..]).map(|a| Command::Run(i, a)),
        (None, Some(other)) => Err(format!("unknown subcommand {other:?}")),
        (None, None) => Err("missing subcommand".to_string()),
    };
    parsed.map_err(|why| format!("{why}\n\n{}", usage(sub)))
}

/// The table-driven loop: every `--flag VALUE` pair goes through its row of
/// `sub.flags`; anything else is an operand.
fn parse_flags(sub: &Subcommand, args: &[&str]) -> Result<Box<Args>, String> {
    let mut parsed = Box::<Args>::default();
    let mut operands = Vec::new();
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        if let Some(flag) = sub.flags.iter().find(|f| f.name == arg) {
            let help = flag.help;
            let value = it.next().ok_or(format!("{arg} needs a value: {help}"))?;
            let wrong = format!("{arg} {value:?} is not what {arg} takes: {help}");
            (flag.parse)(&mut parsed, value).ok_or(wrong)?;
        } else if arg.starts_with("--") {
            let owns = |s: &&Subcommand| s.flags.iter().any(|f| f.name == arg);
            let owners: Vec<&str> = SUBCOMMANDS.iter().filter(owns).map(|s| s.name).collect();
            let (owners, here) = (owners.join("` and `reproduce "), sub.name);
            return Err(match owners.is_empty() {
                true => format!("unknown flag {arg}"),
                false => format!("{arg} is a flag of `reproduce {owners}`, not of `{here}`"),
            });
        } else {
            operands.push(arg);
        }
    }
    let wanted = usize::from(!sub.operand.is_empty());
    parsed.file = operands.concat();
    match operands.get(wanted) {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None if operands.len() < wanted => Err(format!("missing the{} operand", sub.operand)),
        None => Ok(parsed),
    }
}

/// The paper's sweep size unless `--duration` / `--seeds` scale it down.
fn sweep_size(args: &Args) -> (f64, u64) {
    (args.duration.unwrap_or(200.0), args.seeds.unwrap_or(5))
}

fn run_figures(args: &Args) -> Result<(), String> {
    let (duration, seeds) = sweep_size(args);
    let spec = SweepSpec {
        seeds: (1..=seeds).collect(),
        duration,
        ..SweepSpec::paper()
    };
    let (runs, protocols, speeds) = (spec.total_runs(), spec.protocols.len(), spec.speeds.len());
    eprintln!(
        "# MTS reproduction: {runs} runs ({protocols} protocols x {speeds} speeds x {seeds} seeds), \
         {duration} simulated seconds each"
    );
    let all = args.figure.is_none() && !args.table;
    if all || args.figure.is_some() {
        let outcome = sweep(&spec);
        // Figs 5..=11 are the first seven of `ALL`; Table I follows them.
        let curves = FigureId::ALL[..7].iter();
        for figure in curves.filter(|f| args.figure.is_none_or(|only| only == **f)) {
            println!("{}", render_figure(*figure, &outcome));
        }
    }
    if all || args.table {
        // Table I is a worked example from a single DSR run at moderate speed.
        let table = table1_relay_table(10.0, 1, duration);
        println!("{}", render_relay_table(&table));
    }
    Ok(())
}

fn run_attacks(args: &Args) -> Result<(), String> {
    let (duration, seeds) = sweep_size(args);
    let mut spec = AttackSweepSpec::canonical(duration, seeds);
    spec.speeds = args.speeds.clone().unwrap_or(spec.speeds);
    let (runs, protocols, attacks) = (spec.total_runs(), spec.protocols.len(), spec.attacks.len());
    eprintln!(
        "# MTS attack matrix: {runs} runs ({protocols} protocols x {attacks} attacks x {} speeds x \
         {seeds} seeds), {duration} simulated seconds each",
        spec.speeds.len()
    );
    println!("{}", render_attack_matrix(&attack_matrix(&spec)));
    Ok(())
}

/// Write a telemetry event stream to `path` as NDJSON.
fn write_ndjson_file(events: &[TelemetryEvent], path: &str) -> Result<(), String> {
    use std::io::Write as _;
    let failed = |e: std::io::Error| format!("cannot write {path}: {e}");
    let file = std::fs::File::create(path).map_err(failed)?;
    let mut sink = WriteSink(std::io::BufWriter::new(file));
    write_ndjson(events, &mut sink).map_err(failed)?;
    sink.0.flush().map_err(failed)?;
    eprintln!("# wrote {} telemetry events to {path}", events.len());
    Ok(())
}

/// The stream `trace` records and `explore` replays its counterexample with.
fn telemetry_on(trace_packet: Option<(u32, u64)>) -> TelemetryConfig {
    let (enabled, window_secs) = (true, Some(1.0));
    TelemetryConfig {
        enabled,
        window_secs,
        trace_packet,
    }
}

fn run_trace(args: &Args) -> Result<(), String> {
    let (scenario, what) = match &args.run {
        Some(key) => (Scenario::from_key(key), format!("grid run {key}")),
        None => {
            let (nodes, secs) = (args.nodes.unwrap_or(200), args.secs.unwrap_or(10.0));
            let mut scenario = Scenario::scaled(Protocol::Mts, nodes, 10.0, 1);
            scenario.sim.duration = Duration::from_secs(secs);
            let what = format!("scaled MTS scenario, n={nodes}, {secs} simulated seconds");
            (scenario, what)
        }
    };
    let scenario = scenario.with_telemetry(telemetry_on(args.packet));
    let tagged = match args.packet {
        Some((conn, seq)) => format!(", tracing packet {conn}:{seq}"),
        None => String::new(),
    };
    eprintln!("# telemetry run: {what}{tagged}");
    let (_, recorder) = run_scenario_with_recorder(&scenario);
    write_ndjson_file(recorder.telemetry.events(), &args.file)
}

/// `Err` when a target misses its expectation, so CI can gate on the explorer.
fn run_explore(args: &Args) -> Result<(), String> {
    let (nodes, secs) = (args.nodes.unwrap_or(8), args.secs.unwrap_or(2.0));
    let (seed, horizon) = (args.seed.unwrap_or(9), args.horizon.unwrap_or(12));
    let (interventions, budget) = (args.interventions.unwrap_or(2), args.budget.unwrap_or(2000));
    let kinds = &args.kinds.clone().unwrap_or(vec!["DATA"]);
    let breaks = args.invariant.unwrap_or(Invariant::CaptureAtMost(0.65));
    let holds = Invariant::CaptureAtMost(args.bound.unwrap_or(0.25));
    let bounds = format!(
        "horizon {horizon} eligible points, <= {interventions} interventions, budget {budget} runs"
    );
    let spec_for = |scenario: Scenario, invariant: Invariant| ExploreSpec {
        scenario,
        horizon,
        max_interventions: interventions,
        budget,
        // One reorder quantum: longer than any in-flight frame, far shorter
        // than a retransmission timeout.
        delay: Duration::from_secs(0.002),
        kinds: kinds.clone(),
        invariant,
    };

    // Target (a): a worst-case delivery/drop/reorder schedule against the
    // un-hardened protocol's forged-RREP handling.
    let hunt = blackhole_corridor(Protocol::Mts, nodes, secs, seed);
    let endpoints: Vec<u16> = hunt.endpoints().iter().map(|n| n.0).collect();
    eprintln!(
        "# explore hunt: plain MTS blackhole corridor, n={nodes}, flow endpoints {endpoints:?}, \
         {secs} s simulated, seed {seed}; {bounds}"
    );
    let broken = breaks.describe();
    let report = explore(&spec_for(hunt.clone(), breaks));
    eprintln!(
        "# hunt search: {} runs, {} distinct states, {} dedup hits, {} eligible points max",
        report.runs, report.distinct_states, report.dedup_hits, report.max_eligible_seen
    );
    let found = match report.verdict {
        Verdict::Violated(v) => v,
        Verdict::Proved => Err("hunt found no violating schedule within these bounds")?,
        Verdict::BudgetExhausted => Err(format!("hunt budget ({budget} runs) exhausted"))?,
    };
    let choices = found.choice_count;
    println!("counterexample: {choices} adversarial choice(s) break \"{broken}\"");
    println!("  violation: {}", found.reason);
    // Replay with the telemetry stream on; telemetry is observational, so
    // the fingerprint recorded during the search must reappear.
    let replay = run_with_trace(&hunt.with_telemetry(telemetry_on(None)), &found.trace);
    for p in &replay.log.points {
        let Some(action) = p.action else { continue };
        println!(
            "  slot {:>2}: t={:>10.6} s  {:>3} -> {:<3}  {:<9} ({})  => {}",
            p.slot,
            p.at.as_secs(),
            p.from.0,
            p.to.0,
            p.kind,
            if p.broadcast { "bcast" } else { "ucast" },
            action.label(),
        );
    }
    let (digest, recorded) = (outcome_digest(&replay), found.state_hash);
    let violates = breaks.check(&replay.recorder).is_err();
    if digest != recorded || !violates {
        return Err(format!(
            "replay diverged — fingerprint {digest:#018x} vs recorded {recorded:#018x}, \
             still violating: {violates}"
        ));
    }
    println!("replay: reproduces the violating run byte-identically (fingerprint {digest:#018x})");
    if let Some(path) = &args.ndjson {
        write_ndjson_file(replay.recorder.telemetry.events(), path)?;
    }

    // Target (b): exhaustively prove the dispersion bound on hardened MTS.
    let n = nodes.min(6);
    let proof = blackhole_corridor(Protocol::MtsHardened, n, secs, seed);
    eprintln!("# explore proof: hardened MTS blackhole corridor, n={n}, seed {seed}; {bounds}");
    let held = holds.describe();
    let report = explore(&spec_for(proof, holds));
    let (runs, states, dedup) = (report.runs, report.distinct_states, report.dedup_hits);
    match report.verdict {
        Verdict::Proved => println!(
            "proved: {held} — for every schedule with <= {interventions} interventions over \
             the first {horizon} eligible {kinds:?} points at n={n} ({runs} runs, {states} \
             distinct states, {dedup} dedup hits)"
        ),
        Verdict::Violated(v) => Err(format!("proof target violated: {}", v.reason))?,
        Verdict::BudgetExhausted => Err(format!("proof budget ({budget} runs) exhausted"))?,
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let failed = match parse(&args) {
        Ok(Command::Help(text)) => return println!("{text}"),
        Ok(Command::Run(index, args)) => (SUBCOMMANDS[index].run)(&args).map_err(|e| (1, e)),
        Err(e) => Err((2, e)),
    };
    if let Err((code, e)) = failed {
        eprintln!("error: {e}");
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        parse(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn one_accepted_line_per_subcommand_round_trips() {
        let mut expected = [(); 4].map(|_| Args::default());
        let [figures, attacks, trace, explore] = &mut expected;
        (figures.duration, figures.seeds, figures.table) = (Some(10.0), Some(2), true);
        figures.figure = Some(FigureId::ALL[2]);
        (attacks.duration, attacks.seeds) = (Some(30.0), Some(1));
        attacks.speeds = Some(vec![0.0, 10.0]);
        (trace.file, trace.nodes, trace.secs) = ("out.ndjson".into(), Some(100), Some(3.0));
        trace.packet = Some((0, 1448));
        (explore.nodes, explore.horizon, explore.interventions) = (Some(6), Some(4), Some(1));
        (explore.budget, explore.secs, explore.seed) = (Some(50), Some(1.0), Some(3));
        (explore.invariant, explore.bound) = (Some(Invariant::NoAdversaryCapture), Some(0.5));
        (explore.kinds, explore.ndjson) = (Some(vec!["RREP", "DATA"]), Some("ce.ndjson".into()));
        let lines = [
            "figures --duration 10 --seeds 2 --figure 7 --table 1",
            "attacks --duration 30 --seeds 1 --speeds 0,10",
            "trace out.ndjson --nodes 100 --secs 3 --packet 0:1448",
            "explore --nodes 6 --horizon 4 --interventions 1 --budget 50 --secs 1 --seed 3 \
             --invariant no-capture --bound 0.5 --kinds rrep,DATA --ndjson ce.ndjson",
        ];
        for (index, (line, args)) in lines.into_iter().zip(expected).enumerate() {
            let expected = Ok(Command::Run(index, args.into()));
            assert_eq!(parse_line(line), expected, "{line}");
        }
        assert_eq!(parse_line("--help"), Ok(Command::Help(usage(None))));
        let key = "MTS-H/blackhole(x2)/10/1/30";
        let run = Args {
            file: "out.ndjson".into(),
            run: Some(key.parse().unwrap()),
            packet: Some((0, 0)),
            ..Args::default()
        };
        let line = format!("trace out.ndjson --run {key} --packet 0:0");
        assert_eq!(parse_line(&line), Ok(Command::Run(2, run.into())));
    }

    /// `arguments => what the error must mention`, one case per line.
    const REJECTED: &str = "
         => missing subcommand
        --duration 10 => unknown subcommand \"--duration\"
        figures --fast => unknown flag --fast
        figures --seeds => --seeds needs a value
        figures --figure 4 => --figure \"4\"
        figures --table 2 => --table \"2\"
        figures --duration -5 => --duration \"-5\"
        figures --duration nan => --duration \"nan\"
        figures --speeds 10 => --speeds is a flag of `reproduce attacks`, not of `figures`
        figures extra => unexpected argument \"extra\"
        attacks --seeds 0 => --seeds \"0\"
        attacks --secs 2 => --secs is a flag of `reproduce trace` and `reproduce explore`
        trace --nodes 100 => missing the FILE operand
        trace a.ndjson b.ndjson => unexpected argument \"b.ndjson\"
        trace f --packet 7 => --packet \"7\"
        trace f --nodes 1 => --nodes \"1\"
        trace f --run MTS/clean/10 => --run \"MTS/clean/10\"
        trace f --run MTS-X/clean/10/1 => --run \"MTS-X/clean/10/1\"
        trace f --run MTS/blackhole(x3)/10/1 => --run \"MTS/blackhole(x3)/10/1\"
        trace f --run MTS/clean/-1/1 => --run \"MTS/clean/-1/1\"
        trace f --run MTS/clean/10/-1 => --run \"MTS/clean/10/-1\"
        trace f --run MTS/clean/10/1/0 => --run \"MTS/clean/10/1/0\"
        trace f --nodes 100 --run MTS/clean/10/1 => --run \"MTS/clean/10/1\"
        trace f --run MTS/clean/10/1 --secs 3 => --secs \"3\"
        attacks --run MTS/clean/10/1 => --run is a flag of `reproduce trace`, not of `attacks`
        explore --nodes 3 => --nodes \"3\"
        explore --invariant safe => --invariant \"safe\"
        explore --kinds DATA,BEACON => --kinds \"DATA,BEACON\"";

    #[test]
    fn rejected_lines_name_the_offending_token_and_end_with_the_usage() {
        for case in REJECTED.lines().skip(1) {
            let (line, token) = case.split_once("=>").expect("`line => token`");
            let err = parse_line(line).expect_err(case);
            assert!(err.contains(token.trim()), "{case}: {err}");
            let sub = SUBCOMMANDS.iter().find(|s| line.trim().starts_with(s.name));
            assert!(err.ends_with(&usage(sub)), "{case}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_flag_of_its_table_exactly_once() {
        for sub in &SUBCOMMANDS {
            let text = usage(Some(sub));
            assert!(text.starts_with(&format!("usage: reproduce {} ", sub.name.trim())));
            for flag in sub.flags {
                let rows = text.matches(&format!("\n  {} ", flag.name)).count();
                assert_eq!(rows, 1, "{} {}:\n{text}", sub.name, flag.name);
                assert!(text.contains(&format!("{} {}", flag.name, flag.help)));
            }
            assert_eq!(usage(None).matches(&format!("\n  {}", sub.name)).count(), 1);
        }
    }
}
