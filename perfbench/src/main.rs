//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of stdout.
//! Exits 2 on a usage error.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match snslp_perfbench::Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = snslp_perfbench::run(&opts);
    println!("{}", outcome.render());
}
