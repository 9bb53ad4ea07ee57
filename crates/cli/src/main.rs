//! `jigsaw` — command-line front end for the Slice-and-Dice NuFFT library
//! and the JIGSAW accelerator simulator.
//!
//! ```text
//! jigsaw recon     --n 192 --spokes 302 [--engine slice-dice] [--cg 15] [--out out/recon.pgm]
//! jigsaw simulate  --grid 512 --samples 100000 [--cycle-accurate]
//! jigsaw simulate3d --grid 32 --samples 20000 [--sorted]
//! jigsaw gridbench --n 256 --m 100000
//! jigsaw serve     --socket /tmp/jigsaw.sock [--cache-capacity 8] [--jobs 2]
//!                  [--snapshot /var/lib/jigsaw/cache.snap] [--snapshot-every-secs 30]
//! jigsaw request   --socket /tmp/jigsaw.sock --n 64 [--count 8] [--high] [--timeout-ms 120000]
//! jigsaw request   --socket /tmp/jigsaw.sock --stats [--format table|json|prom]
//! jigsaw request   --socket /tmp/jigsaw.sock --drain
//! jigsaw top       --socket /tmp/jigsaw.sock [--interval-ms 1000] [--iterations 0]
//! jigsaw profile   --n 256 --coils 8 --trace-out out/trace.json [--metrics]
//! jigsaw info
//! ```

mod args;
mod commands;
mod error;

use error::CliError;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let opts = match args::Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            let e = CliError::Config(e);
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::from(e.exit_code());
        }
    };
    // Every subcommand with the flags it reads; any other flag is a
    // configuration error raised before the command starts.
    type Command = fn(&args::Options) -> Result<(), CliError>;
    let (run, accepted): (Command, &[&str]) = match cmd.as_str() {
        "recon" => (
            commands::recon,
            &[
                "n",
                "spokes",
                "engine",
                "coils",
                "cg",
                "lambda",
                "out",
                "normal-op",
                "time-budget-ms",
                "trace-out",
                "metrics",
            ],
        ),
        "simulate" => (
            commands::simulate,
            &["grid", "samples", "cycle-accurate", "trace"],
        ),
        "simulate3d" => (commands::simulate3d, &["grid", "samples", "sorted"]),
        "gridbench" => (commands::gridbench, &["n", "m", "trace-out", "metrics"]),
        "profile" => (
            commands::profile,
            &[
                "n",
                "coils",
                "cg",
                "spokes",
                "samples",
                "trace-out",
                "metrics",
            ],
        ),
        "serve" => (
            commands::serve,
            &[
                "socket",
                "stdio",
                "cache-capacity",
                "jobs",
                "default-budget-ms",
                "max-queue-depth",
                "max-queued-bytes",
                "watchdog-multiple",
                "snapshot",
                "snapshot-every-secs",
                "trace-out",
            ],
        ),
        "request" => (
            commands::request,
            &[
                "socket",
                "timeout-ms",
                "ping",
                "shutdown",
                "drain",
                "stats",
                "format",
                "n",
                "spokes",
                "count",
                "high",
                "budget-ms",
                "tag",
                "retries",
                "backoff-ms",
            ],
        ),
        "top" => (commands::top, &["socket", "interval-ms", "iterations"]),
        "gpustats" => (commands::gpustats, &["grid", "samples"]),
        "emit-rtl" => (
            commands::emit_rtl,
            &["grid", "width", "table-oversampling", "out"],
        ),
        "info" => (|_| commands::info(), &[]),
        "help" | "--help" | "-h" => (
            |_| {
                println!("{}", commands::USAGE);
                Ok(())
            },
            &[],
        ),
        other => {
            eprintln!("unknown command `{other}`\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = opts.reject_unknown(cmd, accepted) {
        let e = CliError::Config(e);
        eprintln!("error: {e}\n\n{}", commands::USAGE);
        return ExitCode::from(e.exit_code());
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line, one category-specific exit code (see error.rs).
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
