//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(starsense_perfbench::runner::main_with(&args));
}
