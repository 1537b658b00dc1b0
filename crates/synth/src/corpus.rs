//! Corpus builders mirroring the paper's two datasets (§IV-A).
//!
//! Dataset 1: 43 binaries "from the wild" (Table I), 11 of which have
//! usable symbols. Dataset 2: 179 programs from 22 open-source projects
//! compiled into 1,352 binaries with GCC/Clang at O2/O3/Os/Ofast
//! (Table II). Project profiles carry the features that matter to the
//! experiments: hand-written assembly counts, language, and size class.

use crate::config::{FeatureRates, SynthConfig};
use crate::synthesize;
use fetch_binary::{BuildInfo, Compiler, Lang, OptLevel, TestCase};

/// Size/feature profile of a Dataset-2 project (one Table II row).
#[derive(Debug, Clone)]
pub struct ProjectProfile {
    /// Project name, e.g. `"Coreutils-8.30"`.
    pub name: &'static str,
    /// Project type column of Table II.
    pub ptype: &'static str,
    /// Number of distinct programs built from the project.
    pub programs: usize,
    /// Number of binaries this project contributes to the corpus
    /// (programs × the build configurations that succeed for it).
    pub bins: usize,
    /// Source language.
    pub lang: Lang,
    /// Functions per program at scale 1.0.
    pub funcs: usize,
    /// Hand-written assembly functions per program (OpenSSL/glibc-style
    /// infrastructure projects; 0 elsewhere — §IV-B).
    pub asm_funcs: usize,
    /// Figure-6b style mislabeled FDEs per program.
    pub mislabeled: usize,
}

/// The 22 projects of Table II. `bins` sums to 1,352.
pub const DATASET2: &[ProjectProfile] = &[
    ProjectProfile {
        name: "Coreutils-8.30",
        ptype: "Utilities",
        programs: 105,
        bins: 840,
        lang: Lang::C,
        funcs: 70,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Findutils-4.4",
        ptype: "Utilities",
        programs: 3,
        bins: 24,
        lang: Lang::C,
        funcs: 90,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Binutils-2.26",
        ptype: "Utilities",
        programs: 17,
        bins: 136,
        lang: Lang::Cpp,
        funcs: 160,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Openssl-1.1.0l",
        ptype: "Client",
        programs: 1,
        bins: 4,
        lang: Lang::C,
        funcs: 300,
        asm_funcs: 60,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "D8-6.4",
        ptype: "Client",
        programs: 1,
        bins: 4,
        lang: Lang::Cpp,
        funcs: 400,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Busybox-1.31",
        ptype: "Client",
        programs: 1,
        bins: 8,
        lang: Lang::C,
        funcs: 250,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Protobuf-c-1",
        ptype: "Client",
        programs: 1,
        bins: 6,
        lang: Lang::Cpp,
        funcs: 120,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "ZSH-5.7.1",
        ptype: "Client",
        programs: 1,
        bins: 2,
        lang: Lang::C,
        funcs: 200,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Openssh-8.0",
        ptype: "Client",
        programs: 7,
        bins: 28,
        lang: Lang::C,
        funcs: 130,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Mysql-5.7.27",
        ptype: "Client",
        programs: 1,
        bins: 6,
        lang: Lang::Cpp,
        funcs: 350,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Git-2.23",
        ptype: "Client",
        programs: 1,
        bins: 8,
        lang: Lang::C,
        funcs: 280,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "filezilla-3.44.2",
        ptype: "Client",
        programs: 1,
        bins: 4,
        lang: Lang::Cpp,
        funcs: 260,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Lighttpd-1.4.54",
        ptype: "Server",
        programs: 1,
        bins: 8,
        lang: Lang::C,
        funcs: 150,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Mysqld-5.7.27",
        ptype: "Server",
        programs: 1,
        bins: 6,
        lang: Lang::Cpp,
        funcs: 450,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Nginx-1.15.0",
        ptype: "Server",
        programs: 1,
        bins: 6,
        lang: Lang::C,
        funcs: 220,
        asm_funcs: 8,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "Glibc-2.27",
        ptype: "Library",
        programs: 1,
        bins: 3,
        lang: Lang::C,
        funcs: 320,
        asm_funcs: 40,
        mislabeled: 1,
    },
    ProjectProfile {
        name: "libpcap-1.9.0",
        ptype: "Library",
        programs: 1,
        bins: 8,
        lang: Lang::C,
        funcs: 110,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "libv8-6.4",
        ptype: "Library",
        programs: 1,
        bins: 4,
        lang: Lang::Cpp,
        funcs: 380,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "libtiff-4.0.10",
        ptype: "Library",
        programs: 1,
        bins: 8,
        lang: Lang::C,
        funcs: 120,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "libxml2-2.9.8",
        ptype: "Library",
        programs: 1,
        bins: 8,
        lang: Lang::C,
        funcs: 180,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "libprotobuf-c-1",
        ptype: "Library",
        programs: 1,
        bins: 8,
        lang: Lang::Cpp,
        funcs: 100,
        asm_funcs: 0,
        mislabeled: 0,
    },
    ProjectProfile {
        name: "SPEC CPU2006",
        ptype: "Benchmark",
        programs: 30,
        bins: 223,
        lang: Lang::Cpp,
        funcs: 140,
        asm_funcs: 0,
        mislabeled: 0,
    },
];

/// One Table I row (Dataset 1, binaries from the wild).
#[derive(Debug, Clone)]
pub struct WildProfile {
    /// Software name.
    pub name: &'static str,
    /// Open-source column.
    pub open: bool,
    /// Whether symbols are available (the 11 usable binaries).
    pub symbols: bool,
    /// Source language.
    pub lang: Lang,
    /// Functions at scale 1.0.
    pub funcs: usize,
}

/// The 43 wild binaries of Table I.
pub const DATASET1: &[WildProfile] = &[
    WildProfile {
        name: "Atom-1.49.0",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 420,
    },
    WildProfile {
        name: "Simplenot-1.4.13",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 180,
    },
    WildProfile {
        name: "OpenShot-2.4.4",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 200,
    },
    WildProfile {
        name: "seamonkey-2.49.5",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 400,
    },
    WildProfile {
        name: "mupdf-1.16.1",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 300,
    },
    WildProfile {
        name: "laverna-0.7.1",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 160,
    },
    WildProfile {
        name: "franz-5.4.0",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 170,
    },
    WildProfile {
        name: "Nightingale-1.12.1",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 190,
    },
    WildProfile {
        name: "palemoon-28.8.0",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 380,
    },
    WildProfile {
        name: "evince-3.34.3",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 210,
    },
    WildProfile {
        name: "amarok-2.9.0",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 230,
    },
    WildProfile {
        name: "deadbeef-1.8.2",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 150,
    },
    WildProfile {
        name: "qBittorrent-4.2.5",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 260,
    },
    WildProfile {
        name: "pdftex-3.14159265",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 240,
    },
    WildProfile {
        name: "eclipse-4.11",
        open: true,
        symbols: false,
        lang: Lang::C,
        funcs: 200,
    },
    WildProfile {
        name: "VS Code-1.40.2",
        open: true,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 350,
    },
    WildProfile {
        name: "VirtualBox-5.2.34",
        open: true,
        symbols: true,
        lang: Lang::Cpp,
        funcs: 330,
    },
    WildProfile {
        name: "gv-3.7.4",
        open: true,
        symbols: true,
        lang: Lang::C,
        funcs: 120,
    },
    WildProfile {
        name: "okular-1.3.3",
        open: true,
        symbols: true,
        lang: Lang::Cpp,
        funcs: 250,
    },
    WildProfile {
        name: "gcc-7.5",
        open: true,
        symbols: true,
        lang: Lang::C,
        funcs: 360,
    },
    WildProfile {
        name: "wkhtmltopdf-0.12.4",
        open: true,
        symbols: true,
        lang: Lang::C,
        funcs: 230,
    },
    WildProfile {
        name: "firefox-78.0.2",
        open: true,
        symbols: true,
        lang: Lang::Cpp,
        funcs: 450,
    },
    WildProfile {
        name: "qemu-system-2.11.1",
        open: true,
        symbols: true,
        lang: Lang::C,
        funcs: 380,
    },
    WildProfile {
        name: "ThunderBird-68.10.0",
        open: true,
        symbols: true,
        lang: Lang::Cpp,
        funcs: 400,
    },
    WildProfile {
        name: "Smuxi-Server",
        open: true,
        symbols: true,
        lang: Lang::C,
        funcs: 140,
    },
    WildProfile {
        name: "TeamViewer-15.0.8397",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 280,
    },
    WildProfile {
        name: "skype-8.55.0.141",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 300,
    },
    WildProfile {
        name: "trillian-6.1.0.5",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 220,
    },
    WildProfile {
        name: "opera-65.0.3467.69",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 380,
    },
    WildProfile {
        name: "yandex-browser-19.12.3",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 360,
    },
    WildProfile {
        name: "SpiderOakONE-7.5.01",
        open: false,
        symbols: false,
        lang: Lang::C,
        funcs: 200,
    },
    WildProfile {
        name: "slack-4.2.0",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 260,
    },
    WildProfile {
        name: "rainlendar2-2.15.2",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 180,
    },
    WildProfile {
        name: "sublime-3211",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 270,
    },
    WildProfile {
        name: "netease-cloud-music-1.2.1",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 240,
    },
    WildProfile {
        name: "wps-11.1.0.8865",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 320,
    },
    WildProfile {
        name: "wpp-11.1.0.8865",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 300,
    },
    WildProfile {
        name: "wpspdf-11.1.0.8865",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 280,
    },
    WildProfile {
        name: "wpsoffice-11.1.0.8865",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 340,
    },
    WildProfile {
        name: "ida64-7.2",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 330,
    },
    WildProfile {
        name: "zoom-7.19.2020",
        open: false,
        symbols: false,
        lang: Lang::Cpp,
        funcs: 310,
    },
    WildProfile {
        name: "binaryninja-1.2",
        open: false,
        symbols: true,
        lang: Lang::Cpp,
        funcs: 320,
    },
    WildProfile {
        name: "FoxitReader-4.4.0911",
        open: false,
        symbols: true,
        lang: Lang::Cpp,
        funcs: 290,
    },
];

/// Scaling knobs: divide binary counts and multiply function counts to fit
/// a time budget. `CorpusScale::default()` reproduces the full corpus
/// structure at reduced per-binary size.
#[derive(Debug, Clone)]
pub struct CorpusScale {
    /// Keep one of every `bin_divisor` binaries per project (min 1).
    pub bin_divisor: usize,
    /// Multiplier on per-binary function counts.
    pub func_scale: f64,
}

impl Default for CorpusScale {
    fn default() -> Self {
        CorpusScale {
            bin_divisor: 1,
            func_scale: 0.5,
        }
    }
}

impl CorpusScale {
    /// A fast scale for unit/integration tests: ~1/16 of the binaries at
    /// ~1/4 function counts.
    pub fn tiny() -> CorpusScale {
        CorpusScale {
            bin_divisor: 16,
            func_scale: 0.25,
        }
    }

    /// The paper-faithful scale (all 1,352 binaries, full sizes).
    pub fn paper() -> CorpusScale {
        CorpusScale {
            bin_divisor: 1,
            func_scale: 1.0,
        }
    }
}

fn stable_seed(parts: &[&str]) -> u64 {
    // FNV-1a over the joined parts: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0x2f;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The eight (compiler, opt) build configurations of Dataset 2.
pub fn build_matrix() -> Vec<(Compiler, OptLevel)> {
    let mut v = Vec::new();
    for c in Compiler::ALL {
        for o in OptLevel::ALL {
            v.push((c, o));
        }
    }
    v
}

/// Generates the [`SynthConfig`]s of Dataset 2 (self-built binaries,
/// Table II). The result is deterministic; pass it to [`synthesize`]
/// (or [`synthesize_all`]) to materialize binaries.
pub fn dataset2_configs(scale: &CorpusScale) -> Vec<SynthConfig> {
    let matrix = build_matrix();
    let mut out = Vec::new();
    for proj in DATASET2 {
        let base = (proj.bins / proj.programs).max(1);
        let remainder = proj.bins.saturating_sub(base * proj.programs);
        let mut ix = 0usize;
        for prog in 0..proj.programs {
            // Early programs absorb the remainder so counts sum to `bins`.
            let per_prog = base + usize::from(prog < remainder);
            for k in 0..per_prog {
                ix += 1;
                // Keep every `bin_divisor`-th binary, anchored so each
                // project contributes at least its first build (small
                // projects must not vanish at coarse scales — they carry
                // the assembly-function phenomena).
                if !(ix - 1).is_multiple_of(scale.bin_divisor) {
                    continue;
                }
                // Stagger the build matrix by program index so reduced
                // corpora (which keep each program's first build) spread
                // over the compiler/opt combinations. They need not cover
                // all of them: `--scale 32` keeps no Os binary.
                let (compiler, opt) = matrix[(k + prog) % matrix.len()];
                let mut rates = FeatureRates::default().tuned_for(opt);
                // Hot/cold splitting concentrates in large translation
                // units (§V-A: mysqld alone contributes thousands of FDE
                // false positives while most coreutils have none).
                rates.split_cold *= match proj.funcs {
                    0..=99 => 0.15,
                    100..=249 => 1.0,
                    _ => 1.5,
                };
                // Assembly populations scale with the rest of the
                // program so reduced corpora keep the paper's ratios.
                rates.asm_funcs = (proj.asm_funcs as f64 * scale.func_scale).round() as usize;
                // error()/error_at_line() usage clusters in the GNU
                // utilities; most other projects barely touch it. This
                // concentrates GHIDRA's control-flow-repair damage in
                // specific binaries, as the paper observes (§IV-C).
                rates.error_calls = match proj.ptype {
                    "Utilities" => 0.30,
                    _ => 0.01,
                };
                if proj.asm_funcs > 0 {
                    rates.asm_funcs = rates.asm_funcs.max(3);
                }
                rates.mislabeled_fdes = proj.mislabeled;
                // A couple of ICF thunks appear in big C++ builds.
                rates.bad_thunks = if proj.funcs >= 300 { 2 } else { 0 };
                let n_funcs = ((proj.funcs as f64 * scale.func_scale) as usize).max(12);
                out.push(SynthConfig {
                    seed: stable_seed(&[proj.name, &prog.to_string(), &k.to_string()]),
                    name: format!("{}/{}-{}-{}", proj.name, prog, compiler, opt),
                    n_funcs,
                    rates,
                    info: BuildInfo {
                        compiler,
                        opt,
                        lang: proj.lang,
                    },
                    symbols: true,
                });
            }
        }
    }
    out
}

/// Generates Dataset 1 (wild binaries, Table I): pre-built binaries with
/// diverse compilers; only some carry symbols. Returns the profile next
/// to each configuration so Table I can print its metadata columns.
pub fn dataset1_configs(scale: &CorpusScale) -> Vec<(&'static WildProfile, SynthConfig)> {
    DATASET1
        .iter()
        .map(|w| {
            let opt = match stable_seed(&[w.name]) % 3 {
                0 => OptLevel::O2,
                1 => OptLevel::O3,
                _ => OptLevel::Os,
            };
            let mut rates = FeatureRates::default().tuned_for(opt);
            rates.bad_thunks = if w.funcs >= 300 { 1 } else { 0 };
            let cfg = SynthConfig {
                seed: stable_seed(&["wild", w.name]),
                name: w.name.to_string(),
                n_funcs: ((w.funcs as f64 * scale.func_scale) as usize).max(12),
                rates,
                info: BuildInfo {
                    compiler: if stable_seed(&[w.name, "c"]).is_multiple_of(2) {
                        Compiler::Gcc
                    } else {
                        Compiler::Clang
                    },
                    opt,
                    lang: w.lang,
                },
                symbols: w.symbols,
            };
            (w, cfg)
        })
        .collect()
}

/// Synthesizes a batch of configurations in parallel using scoped threads.
pub fn synthesize_all(configs: &[SynthConfig]) -> Vec<TestCase> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunk = configs.len().div_ceil(threads.max(1)).max(1);
    let mut out: Vec<Option<TestCase>> = vec![None; configs.len()];
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (t, slice) in out.chunks_mut(chunk).enumerate() {
            let cfgs = &configs[t * chunk..(t * chunk + slice.len()).min(configs.len())];
            handles.push(s.spawn(move || {
                for (slot, cfg) in slice.iter_mut().zip(cfgs) {
                    *slot = Some(synthesize(cfg));
                }
            }));
        }
        for h in handles {
            h.join().expect("synthesis thread panicked");
        }
    });
    out.into_iter()
        .map(|c| c.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset2_full_size_matches_table_ii() {
        let configs = dataset2_configs(&CorpusScale {
            bin_divisor: 1,
            func_scale: 0.1,
        });
        let expected: usize = DATASET2.iter().map(|p| p.bins).sum();
        assert_eq!(expected, 1352, "Table II total");
        assert_eq!(configs.len(), expected);
    }

    #[test]
    fn dataset1_has_43_binaries_11_with_symbols() {
        let configs = dataset1_configs(&CorpusScale::tiny());
        assert_eq!(configs.len(), 43);
        let with_syms = configs.iter().filter(|(w, _)| w.symbols).count();
        assert_eq!(with_syms, 11);
    }

    #[test]
    fn configs_are_deterministic() {
        let a = dataset2_configs(&CorpusScale::tiny());
        let b = dataset2_configs(&CorpusScale::tiny());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.name, y.name);
        }
    }

    #[test]
    fn synthesize_all_small_batch() {
        let configs: Vec<SynthConfig> = dataset2_configs(&CorpusScale::tiny())
            .into_iter()
            .take(6)
            .collect();
        let cases = synthesize_all(&configs);
        assert_eq!(cases.len(), 6);
        for c in &cases {
            assert!(c.binary.has_eh_frame());
            assert!(c.truth.len() >= 12);
        }
    }
}
