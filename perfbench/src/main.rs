//! `perfbench` — runs one benchmark workload against a built `rtm` binary.
//!
//! ```text
//! perfbench --rtm PATH --work-dir DIR --workload serve-mix|compile-suite|large-trace \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a details line, then the result line (the last line of stdout).
//! `perfbench/run.sh` builds both binaries and passes `--rtm`/`--work-dir`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match perfbench::run::parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match perfbench::run::run(&opts) {
        Ok(report) => {
            println!("{}", report.details);
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
