//! `repro <artifact>... [--scale N] [--funcs F] [--jobs N] [--paper]`:
//! the paper's results, one artifact each (see [`fetch_bench::repro`]).

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (artifacts, opts) = fetch_bench::repro::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    fetch_bench::repro::run(&artifacts, &opts);
}
