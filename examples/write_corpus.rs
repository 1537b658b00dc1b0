//! Writes synthetic corpus binaries as ELF files — the input the
//! `fetch-serve` daemon takes by path — so the daemon can be driven by
//! hand or from a shell script.
//!
//! ```text
//! cargo run --release --example write_corpus -- DIR [COUNT]
//! ```
//!
//! Writes `DIR/corpus-<i>.elf` for `i` in `0..COUNT` (default 3), each a
//! small synthesized binary with its own seed, and prints each path.

use fetch_binary::write_elf;
use fetch_synth::{synthesize, SynthConfig};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, count) = match args.as_slice() {
        [dir] => (PathBuf::from(dir), 3),
        [dir, count] => match count.parse::<u64>() {
            Ok(n) if n > 0 => (PathBuf::from(dir), n),
            _ => usage(),
        },
        _ => usage(),
    };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&dir, e));
    for i in 0..count {
        let case = synthesize(&SynthConfig::small(7000 + i));
        let path = dir.join(format!("corpus-{i}.elf"));
        std::fs::write(&path, write_elf(&case.binary)).unwrap_or_else(|e| fail(&path, e));
        println!("{}", path.display());
    }
}

fn usage() -> ! {
    eprintln!("usage: write_corpus DIR [COUNT]  (COUNT a positive integer, default 3)");
    std::process::exit(2)
}

fn fail(path: &std::path::Path, e: std::io::Error) -> ! {
    eprintln!("error: cannot write {}: {e}", path.display());
    std::process::exit(1)
}
