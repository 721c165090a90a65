//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric (median, min, max, samples), then a
//! report line with the environment, then the result line as the
//! last line of standard output. Exits 1 when an output check fails
//! and 2 on a usage error.

use perfbench::{env::Env, stats::json_str, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = perfbench::run(&cfg);
    let env = Env::detect();
    println!(
        "# {} seed {} trace {} jobs {} digest {:016x}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        outcome.jobs,
        outcome.digest
    );
    println!(
        "# {:<40} {:>16} {:>16} {:>16} {:>4}  unit",
        "metric", "median", "min", "max", "n"
    );
    for m in outcome.metrics.iter() {
        println!(
            "# {:<40} {:>16} {:>16} {:>16} {:>4}  {}",
            m.name,
            human(m.value()),
            human(m.min()),
            human(m.max()),
            m.samples.len(),
            m.unit
        );
    }
    if let Some(e) = &outcome.error {
        eprintln!("perfbench: output check failed: {e}");
    }
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"jobs\": {}, \"digest\": \"{:016x}\", {}, \"metrics\": {}}}}}",
        json_str(&cfg.workload),
        cfg.seed,
        cfg.trace,
        outcome.jobs,
        outcome.digest,
        env.json_members(),
        outcome.metrics.spread_json()
    );
    println!("{}", outcome.result_json(cfg.trace));
    if !outcome.correct {
        std::process::exit(1);
    }
}

/// Six significant digits, in exponent form for tiny magnitudes.
fn human(v: f64) -> String {
    if v == 0.0 || v.abs() >= 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.5e}")
    }
}
