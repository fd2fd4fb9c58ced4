//! `dpbench` command line.
//!
//! ```text
//! dpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dpbench [--seed <n>] [--seconds <s>] [--quick]        # every workload, both passes
//! ```
//!
//! With `--workload` the process *is* the workload (so `peak_rss_mb` is
//! its own `VmHWM`): it prints the report and, as the last line of
//! standard output, the result object. Without it, one child per
//! workload and pass is spawned and their reports are relayed.

use std::process::{Command, ExitCode};

use rbs_benchmark::alloc::CountingAlloc;
use rbs_benchmark::host::HostInfo;
use rbs_benchmark::runner::{self, RunArgs};
use rbs_benchmark::workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DEFAULT_SECONDS: f64 = 18.0;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process.
fn run_one(cli: &Cli, workload: Workload) -> Result<(), String> {
    // Injected faults unwind through a panic; their messages are noise.
    std::panic::set_hook(Box::new(|_| {}));
    let host = HostInfo::detect();
    let outcome = runner::run(
        RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
        },
        &host,
    )?;
    print!("{}", outcome.report(&host));
    println!("{}", outcome.result_json().render());
    Ok(())
}

/// Runs every workload, untraced then traced, one child process each.
fn run_all(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating dpbench: {e}"))?;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", trace]);
            if cli.quick {
                child.arg("--quick");
            }
            // `status` waits for the child; its output is inherited.
            let status = child
                .status()
                .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {trace}) failed with {status}",
                    workload.name()
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("dpbench: {why}");
            ExitCode::FAILURE
        }
    }
}
