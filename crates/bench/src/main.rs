//! `coic-bench <name>` prints one paper figure or extension table
//! (EXPERIMENTS.md); `coic-bench` alone lists the names, one a line.
//! `scripts/experiments.sh` runs them all against `bench/golden/`.

use coic_bench::experiments::ALL;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            for (name, _) in ALL {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        [name] => match ALL.iter().find(|(known, _)| known == name) {
            Some((_, print)) => {
                print();
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("coic-bench: no experiment named `{name}`; run it alone for the list");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: coic-bench [<name>]");
            ExitCode::from(2)
        }
    }
}
