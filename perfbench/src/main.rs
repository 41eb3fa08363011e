//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): repeats the workload's episode until the drive
//! phases have taken `--seconds` of wall time, and reports the end-to-end
//! metrics. Traced (`--trace 1`): one untraced and one traced episode of
//! the same seed; reports the per-layer metrics and per-virtual-hour
//! counter windows of the untraced one, the self time per span kind of
//! the traced one and the tracing overhead, and writes the spans as CSV
//! under `--out-dir` (default `.perfbench_out`). Either way the last
//! stdout line is one JSON object, and the exit code is non-zero when any
//! episode fails the correctness gate.
//!
//! `perfbench --all --seed <n> --seconds <s>` runs every workload untraced
//! and traced, each in a fresh process, and exits non-zero if any run
//! fails the gate. `--setup-only` times one set-up (the untraced run spawns
//! these, so each set-up is cold).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::episode::{self, Episode, Opts, Restarts, Tamper};
use perfbench::report::{self, Metric};
use perfbench::spec::Workload;

/// Cold set-ups timed per untraced run, each in a fresh process (the
/// set-up a user pays when regenerating a figure).
const SETUPS: usize = 7;
/// Crash/restart cycles per episode: enough that the median restart time
/// is steady even where one restart takes a millisecond.
const RESTARTS: Restarts = Restarts {
    min: 5,
    max: 31,
    min_secs: 0.3,
};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    setup_only: bool,
    all: bool,
    out_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut setup_only, mut all) = (false, false);
    let mut out_dir = PathBuf::from(".perfbench_out");
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = val()? == "1",
            "--out-dir" => out_dir = PathBuf::from(val()?),
            "--setup-only" => setup_only = true,
            "--all" => all = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !all && workload.is_none() {
        return Err("--workload or --all is required".into());
    }
    if !setup_only && seconds.is_none() {
        return Err("--seconds is required".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_only,
        all,
        out_dir,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!(
            "  {:<28} {:>16.6} {:<6} {}",
            x.name, x.value, x.unit, x.note
        );
    }
}

/// Time one cold set-up in a fresh process of this binary.
fn cold_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .strip_prefix("setup_s ")
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or(format!("set-up process failed: {}", out.status))
}

/// Every workload untraced and traced, each in a fresh process of this
/// binary (so each reports its own peak RSS); the labels of the runs that
/// failed the gate.
fn run_all(seed: u64, seconds: f64) -> Vec<String> {
    let mut failed = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let label = format!("{} trace={trace}", w.name());
            println!("=== {label}");
            let ok = std::env::current_exe()
                .and_then(|exe| {
                    std::process::Command::new(exe)
                        .args(["--workload", w.name(), "--trace", trace])
                        .args(["--seed", &seed.to_string()])
                        .args(["--seconds", &seconds.to_string()])
                        .status()
                })
                .is_ok_and(|s| s.success());
            if !ok {
                failed.push(label);
            }
        }
    }
    failed
}

fn gate(label: &str, e: &Episode, expect: u64, failures: &mut Vec<String>) {
    for f in &e.failures {
        failures.push(format!("{label}: {f}"));
    }
    if e.fingerprint != expect {
        failures.push(format!(
            "{label}: fingerprint {:016x} differs from {expect:016x}",
            e.fingerprint
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload.filter(|_| !args.all) else {
        let failed = run_all(args.seed, args.seconds.unwrap_or_default());
        if failed.is_empty() {
            println!("gate: every run passed");
            return ExitCode::SUCCESS;
        }
        println!("gate FAILED: {}", failed.join(", "));
        return ExitCode::FAILURE;
    };
    let size = w.full();
    if args.setup_only {
        println!("setup_s {}", episode::setup_only(w, size, args.seed));
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or_default();
    let untraced = Opts {
        traced: false,
        restarts: RESTARTS,
        tamper: Tamper::None,
    };
    let mut failures = Vec::new();
    println!(
        "workload {} seed {} nproc {} build release (default features)",
        w.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let (attempted, metrics) = if !args.trace {
        let mut eps: Vec<Episode> = Vec::new();
        while eps.is_empty() || eps.iter().map(|e| e.drive_s).sum::<f64>() < seconds {
            let e = episode::run(w, size, args.seed, untraced);
            println!(
                "episode {}: setup {:.4} s, drive {:.4} s, {} restarts (median {:.4} s), verify {:.4} s",
                eps.len() + 1,
                e.setup_s,
                e.drive_s,
                e.restart_s.len(),
                report::median(&e.restart_s),
                e.verify_s
            );
            let expect = eps.first().map_or(e.fingerprint, |f| f.fingerprint);
            gate(
                &format!("episode {}", eps.len() + 1),
                &e,
                expect,
                &mut failures,
            );
            eps.push(e);
        }
        let setups: Vec<f64> = (0..SETUPS)
            .filter_map(|_| cold_setup(w, args.seed).map_err(|e| failures.push(e)).ok())
            .collect();
        let metrics = report::end_to_end(w, &eps, &setups);
        println!(
            "{} episodes, fingerprint {:016x}",
            eps.len(),
            eps[0].fingerprint
        );
        print_metrics("end to end", &metrics);
        (eps.iter().map(|e| e.ops).sum::<u64>(), metrics)
    } else {
        let base = episode::run(w, size, args.seed, untraced);
        let traced = episode::run(
            w,
            size,
            args.seed,
            Opts {
                traced: true,
                ..untraced
            },
        );
        gate("untraced episode", &base, base.fingerprint, &mut failures);
        gate("traced episode", &traced, base.fingerprint, &mut failures);
        let e2e_untraced = report::end_to_end(w, std::slice::from_ref(&base), &[base.setup_s]);
        let e2e_traced = report::end_to_end(w, std::slice::from_ref(&traced), &[traced.setup_s]);
        println!(
            "fingerprint {:016x} (untraced and traced)",
            base.fingerprint
        );
        println!("{:<28} {:>16} {:>16}", "end to end", "untraced", "traced");
        for (u, t) in e2e_untraced.iter().zip(&e2e_traced) {
            println!(
                "  {:<26} {:>16.6} {:>16.6} {}",
                u.name, u.value, t.value, u.unit
            );
        }
        println!("self time per span kind (count, total s, self s, layers)");
        for (kind, n, total, own) in traced.log.self_times() {
            println!(
                "  {:<16} {:>9} {:>12.6} {:>12.6}  {}",
                kind.label(),
                n,
                total as f64 / 1e9,
                own as f64 / 1e9,
                kind.layer()
            );
        }
        println!("counter windows, one per virtual hour (untraced episode)");
        for line in report::window_table(&base) {
            println!("  {line}");
        }
        let mut metrics = report::per_layer(w, &base);
        metrics.push(report::tracing_overhead(&base, &traced));
        print_metrics("per layer", &metrics);
        let path = args.out_dir.join(format!("spans-{}.csv", w.name()));
        let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(f, "run_id,span,parent,kind,start_ns,end_ns")?;
            traced
                .log
                .write_spans(&mut f, &format!("{}-{}", w.name(), args.seed))?;
            f.flush()
        });
        match written {
            Ok(()) => println!(
                "{} spans written to {}",
                traced.log.spans().len(),
                path.display()
            ),
            Err(e) => failures.push(format!("writing spans: {e}")),
        }
        (traced.ops, metrics)
    };

    for x in metrics.iter().filter(|x| !x.value.is_finite()) {
        failures.push(format!("{} was not measured ({})", x.name, x.value));
    }
    for f in &failures {
        println!("GATE FAILED: {f}");
    }
    let (failed, correct) = report::outcome(&failures, attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            // JSON has no NaN; a run with one has already failed its gate.
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
