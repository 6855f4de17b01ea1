//! perfbench — the seeded end-to-end benchmark of the data-services
//! path. See `perfbench/NOTES.md` for workloads, metrics and the
//! defects the benchmark exposes.
//!
//! ```text
//! perfbench --workload <point_wire|report_wire|profile_rw|all> --seed <n>
//!           --seconds <n> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! One workload prints its report lines and, as the last line, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--workload all` runs every workload
//! untraced and traced and reports the tracing overhead; `--smoke` does
//! that briefly at small sizes. Any failed op or answer check makes the
//! exit code non-zero.

mod measure;
mod run;
mod world;

use run::{Config, Outcome};
use world::Workload;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => a.workload = None,
            "--workload" => {
                a.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// The end-to-end metrics of the result line; the others appear only in
/// the report lines (see NOTES.md for why).
const E2E_JSON: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_p50_ms",
    "cpu_ms_per_op",
    "peak_rss_mb",
];

fn e2e_json(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    E2E_JSON
        .iter()
        .map(|name| {
            let (n, v, u) = o
                .e2e
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("every result-line metric is computed");
            (*n, v.expect("every workload has ops"), *u)
        })
        .collect()
}

fn print_lines(o: &Outcome) {
    for l in &o.lines {
        println!("# {l}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.smoke || args.workload.is_none() {
        let seconds = if args.smoke { 1.0 } else { args.seconds };
        std::process::exit(run_all(args.seed, seconds, args.smoke));
    }
    let workload = args.workload.expect("checked above");
    if workload.pinned() {
        measure::nproc();
        match measure::pin_to_one_cpu() {
            Some(cpu) => println!("# pinned to cpu {cpu}"),
            None => println!("# could not pin to one cpu"),
        }
    }
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
    };
    let o = run::run(&cfg);
    print_lines(&o);
    let metrics = if cfg.trace {
        o.layers.clone()
    } else {
        e2e_json(&o)
    };
    println!(
        "{}",
        result_line(o.correct, o.attempted, o.failed, &metrics)
    );
    if !o.correct {
        std::process::exit(1);
    }
}

/// Every workload, untraced then traced, with the tracing overhead.
fn run_all(seed: u64, seconds: f64, smoke: bool) -> i32 {
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut summary = Vec::new();
    for w in Workload::ALL {
        let cfg = Config {
            workload: w,
            seed,
            seconds,
            trace: false,
            smoke,
        };
        let plain = run::run(&cfg);
        print_lines(&plain);
        let traced = run::run(&Config { trace: true, ..cfg });
        print_lines(&traced);
        for (n, v, u) in &traced.layers {
            println!("# layer {} {n} = {v:.4} {u}", w.name());
        }
        let overhead = traced.op_p50_ms - plain.op_p50_ms;
        println!(
            "# tracing overhead {}: op_p50_ms {:.4} untraced, {:.4} traced ({:+.1}%)",
            w.name(),
            plain.op_p50_ms,
            traced.op_p50_ms,
            100.0 * overhead / plain.op_p50_ms.max(1e-9)
        );
        for o in [&plain, &traced] {
            all_correct &= o.correct;
            attempted += o.attempted;
            failed += o.failed;
        }
        for (n, v, u) in e2e_json(&plain) {
            summary.push((format!("{}.{n}", w.name()), v, u));
        }
    }
    let metrics: Vec<(&str, f64, &str)> = summary
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    println!("{}", result_line(all_correct, attempted, failed, &metrics));
    if all_correct {
        0
    } else {
        1
    }
}
