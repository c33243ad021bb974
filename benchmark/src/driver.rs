//! All-workload mode: one child process per workload and trace mode, run one
//! after the other (the box has two cores; the children are single-threaded
//! and must not compete), their printed lines read back into one report.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// What one child printed.
struct ChildReport {
    seed: u64,
    ok: bool,
    digest: String,
    slowest: String,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl ChildReport {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }
}

fn spawn(args: &Args, workload: Workload, seed: u64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {}: {e}", workload.name()))?;
    let mut report = ChildReport {
        seed,
        ok: output.status.success(),
        digest: String::new(),
        slowest: String::new(),
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "digest" => report.digest = rest.to_string(),
            "slowest" => report.slowest = rest.to_string(),
            "failure" => report.failures.push(rest.to_string()),
            "metric" => {
                let mut fields = rest.split(' ');
                if let (Some(name), Some(Ok(value))) =
                    (fields.next(), fields.next().map(str::parse::<f64>))
                {
                    report.metrics.push((name.to_string(), value));
                }
            }
            _ => {}
        }
    }
    if !report.ok && report.failures.is_empty() {
        report
            .failures
            .push(format!("child exited with {}", output.status));
    }
    Ok(report)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method); `sorted` needs at least two values.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

fn print_metrics(defs: &[MetricDef], report: &ChildReport) {
    for def in defs {
        if let Some(value) = report.metric(def.name) {
            println!("  {:<44} {:>16.6} {}", def.name, value, def.unit);
        }
    }
}

/// The noise report of `--reps`: min, median, max and quartile distance of
/// every end-to-end metric over the children, flagged against its bound.
fn print_noise(reports: &[ChildReport]) -> bool {
    let mut steady = true;
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "metric", "min", "median", "max", "iqr/med", "bound"
    );
    for def in END_TO_END {
        let mut values: Vec<f64> = reports.iter().filter_map(|r| r.metric(def.name)).collect();
        if values.len() < 2 {
            continue;
        }
        values.sort_by(f64::total_cmp);
        let [q1, q2, q3] = quartiles(&values);
        let spread = (q3 - q1) / q2;
        let bound = def.bound.expect("end-to-end bound");
        let flag = if spread > bound {
            steady = false;
            "  <-- spread exceeds the bound"
        } else {
            ""
        };
        println!(
            "  {:<14} {:>12.5} {:>12.5} {:>12.5} {:>9.4} {:>7.2}{flag}",
            def.name,
            values[0],
            q2,
            values[values.len() - 1],
            spread,
            bound
        );
    }
    steady
}

fn report_json(defs: &[MetricDef], report: &ChildReport) -> Json {
    Json::obj([
        ("seed", Json::Int(report.seed)),
        ("correct", Json::Bool(report.ok)),
        ("digest", Json::str(report.digest.as_str())),
        ("slowest", Json::str(report.slowest.as_str())),
        (
            "metrics",
            Json::obj(defs.iter().filter_map(|def| {
                report.metric(def.name).map(|value| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
                    )
                })
            })),
        ),
    ])
}

/// Run every workload; `Ok(true)` when every check of every child passed.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut json_workloads = Vec::new();
    println!(
        "benchmark: seed {} (step {}), --seconds {}, {} untraced run(s) per workload",
        args.seed, args.seed_step, args.seconds, args.reps
    );
    for workload in Workload::ALL {
        println!("\n== {} ==", workload.name());
        let mut untraced = Vec::new();
        for rep in 0..args.reps {
            let seed = args.seed + rep as u64 * args.seed_step;
            untraced.push(spawn(args, workload, seed, false)?);
        }
        // Tracing is a separate run; one is enough, its counts are exact.
        let traced = spawn(args, workload, args.seed, true)?;
        for report in untraced.iter().chain([&traced]) {
            all_ok &= report.ok;
            for failure in &report.failures {
                println!("  FAILED (seed {}): {failure}", report.seed);
            }
        }
        println!("  result_digest {}", untraced[0].digest);
        println!("  slowest run   {}", untraced[0].slowest);
        if args.reps > 1 {
            // Equal seeds must give equal simulated statistics.
            if args.seed_step == 0 && untraced.iter().any(|r| r.digest != untraced[0].digest) {
                println!("  FAILED: equal seeds gave different result digests");
                all_ok = false;
            }
            if !print_noise(&untraced) {
                println!(
                    "  (a spread above its bound: the box is too noisy to resolve that metric)"
                );
            }
        } else {
            print_metrics(END_TO_END, &untraced[0]);
        }
        print_metrics(PER_LAYER, &traced);
        json_workloads.push((
            workload.name(),
            Json::obj([
                (
                    "untraced",
                    Json::Arr(
                        untraced
                            .iter()
                            .map(|r| report_json(END_TO_END, r))
                            .collect(),
                    ),
                ),
                ("traced", report_json(PER_LAYER, &traced)),
            ]),
        ));
    }
    println!(
        "\n{}",
        if all_ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("workloads", Json::obj(json_workloads)),
        ]);
        std::fs::write(path, doc.encode_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(all_ok)
}

pub fn run(args: &Args) -> ExitCode {
    match run_all(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
    }
}
