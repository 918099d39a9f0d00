//! `zipnet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its table and, last, the one-line JSON
//! result. `--contract` prints the content of `BENCHMARK.json`.

use std::process::ExitCode;
use zipnet_benchmark::ledger;

fn usage() -> ExitCode {
    eprintln!(
        "usage: zipnet-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         zipnet-benchmark --contract",
        ledger::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--contract"] {
        println!("{}", ledger::contract().pretty());
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].iter().position(|t| t == value),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let traced = trace == 1;
    // A reply that never comes would block a client forever; the
    // contract gives a run 180 s.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(170));
        eprintln!("zipnet-benchmark: still running after 170 s, giving up");
        std::process::exit(3);
    });
    println!(
        "machine: {} cpus, isa {}, {} tensor threads, MTSR_NUM_THREADS={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        mtsr_tensor::isa::active_isa().name(),
        mtsr_tensor::parallel::num_threads(),
        std::env::var("MTSR_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    match zipnet_benchmark::run(&workload, seed, seconds, traced) {
        Ok(outcome) => {
            outcome.print(&workload, traced);
            if outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
