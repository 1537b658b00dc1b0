//! Deterministic fault injection for the serving stack: a [`FaultPlan`]
//! names *sites* (fixed instrumentation points in the store and the
//! transports) and arms each with a [`FaultKind`] — an I/O error, a
//! short (torn) write, a single-byte corruption, or a stall-then-resume
//! — optionally bounded to a firing count.
//!
//! The plan is data, not code: tests build it with [`FaultPlan::parse`],
//! and the shipped daemon takes the same spec through its one knob, the
//! `--fault-plan` flag. An empty plan (the default) is a no-op with one
//! atomic load per site, so the instrumentation stays compiled into
//! production paths.
//!
//! ## Spec grammar
//!
//! ```text
//! plan  := rule ("," rule)*
//! rule  := site "=" kind ["#" count]          count omitted = unlimited
//! kind  := "io" | "short" | "corrupt" | "stall:" millis
//! ```
//!
//! e.g. `store.save=short#1,store.load=corrupt#2,conn.read=stall:50`.
//!
//! ## Sites
//!
//! | site            | where it fires                                       |
//! |-----------------|------------------------------------------------------|
//! | `store.save`    | persisting a result ([`crate::ResultStore::save_with_digest`]) |
//! | `store.load`    | loading a result ([`crate::ResultStore::load_full`])  |
//! | `conn.read`     | reading a request line off a socket/stdio transport  |
//! | `conn.write`    | writing a reply line to a socket/stdio transport     |
//! | `service.compute` | at the flight leader of an `analyze` or a       |
//! |                 | `reanalyze`, before its compute (stall widens the    |
//! |                 | coalescing window; io fails that one request)        |
//! | `service.persist` | between a leader's reply and its store save, on  |
//! |                 | the service's side worker (any kind but stall drops  |
//! |                 | the save: the crash-after-reply shape, which costs   |
//! |                 | restart warmth only; stall delays it)                |
//!
//! What each kind means is site-local: a `short` on `store.save`
//! persists a truncated entry (the crash-mid-write shape the recovery
//! sweep must heal); a `corrupt` on `store.load` flips one byte of the
//! file image in memory (the checksum must reject it); `stall` sleeps
//! and then proceeds at every site. Sites ignore kinds that cannot
//! apply to them (a `short` on `conn.read` behaves like `io`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many sites [`FaultPlan::SITES`] lists.
const SITE_COUNT: usize = FaultPlan::SITES.len();

/// What an armed fault does when it fires (see the [module docs](self)
/// for per-site semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected [`std::io::Error`].
    Io,
    /// Only a prefix of the payload is written (torn write) or read.
    Short,
    /// One byte of the payload is flipped in memory.
    Corrupt,
    /// The operation sleeps for the given time, then proceeds normally.
    Stall(Duration),
}

/// One armed rule: a site, a kind, and how many firings remain.
#[derive(Debug)]
struct FaultRule {
    site: String,
    kind: FaultKind,
    /// Remaining firings; `u64::MAX` means unlimited.
    remaining: AtomicU64,
}

/// A set of armed fault rules (see the [module docs](self)). The empty
/// plan never fires; [`FaultPlan::fire`] is the single entry point the
/// instrumented sites call.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// `Arc`-backed so the daemon can register the very same atomic
    /// into its metric registry (`fetch_faults_injected_total`).
    fired: Arc<AtomicU64>,
    /// Per-site firing counters, indexed like [`FaultPlan::SITES`] —
    /// surfaced by the daemon's `metrics` exposition so a chaos run can
    /// see *where* the plan landed, not just that it did.
    fired_by_site: [Arc<AtomicU64>; SITE_COUNT],
}

impl FaultPlan {
    /// The site name for store writes.
    pub const STORE_SAVE: &'static str = "store.save";
    /// The site name for store reads.
    pub const STORE_LOAD: &'static str = "store.load";
    /// The site name for transport request reads.
    pub const CONN_READ: &'static str = "conn.read";
    /// The site name for transport reply writes.
    pub const CONN_WRITE: &'static str = "conn.write";
    /// The site name armed at a flight leader, before its compute.
    pub const COMPUTE: &'static str = "service.compute";
    /// The site name armed between a leader's reply and its store save.
    pub const PERSIST: &'static str = "service.persist";

    /// Every instrumented site, for spec validation and docs — the one
    /// list: the per-site counters are sized from it.
    pub const SITES: [&'static str; 6] = [
        Self::STORE_SAVE,
        Self::STORE_LOAD,
        Self::CONN_READ,
        Self::CONN_WRITE,
        Self::COMPUTE,
        Self::PERSIST,
    ];

    /// Parses a plan spec (see the [module docs](self) for the
    /// grammar). The empty string is the empty plan.
    ///
    /// # Errors
    ///
    /// A message naming the malformed rule — unknown sites and kinds
    /// are rejected, not ignored, so a typo cannot silently disarm a
    /// chaos run.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for rule in spec.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            let (site, rest) = rule
                .split_once('=')
                .ok_or_else(|| format!("fault rule {rule:?} needs site=kind"))?;
            let site = site.trim();
            if !Self::SITES.contains(&site) {
                return Err(format!(
                    "unknown fault site {site:?} in {rule:?} (known: {})",
                    Self::SITES.join(", ")
                ));
            }
            let (kind_text, count) = match rest.split_once('#') {
                Some((k, n)) => {
                    let n: u64 = n.trim().parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                        format!("fault count in {rule:?} must be a positive integer")
                    })?;
                    (k.trim(), n)
                }
                None => (rest.trim(), u64::MAX),
            };
            let kind = match kind_text {
                "io" => FaultKind::Io,
                "short" => FaultKind::Short,
                "corrupt" => FaultKind::Corrupt,
                _ => match kind_text.strip_prefix("stall:") {
                    Some(ms) => {
                        let ms: u64 = ms
                            .parse()
                            .map_err(|_| format!("stall millis in {rule:?} must be an integer"))?;
                        FaultKind::Stall(Duration::from_millis(ms))
                    }
                    None => {
                        return Err(format!(
                            "unknown fault kind {kind_text:?} in {rule:?} \
                             (known: io, short, corrupt, stall:<ms>)"
                        ))
                    }
                },
            };
            rules.push(FaultRule {
                site: site.to_string(),
                kind,
                remaining: AtomicU64::new(count),
            });
        }
        Ok(FaultPlan {
            rules,
            ..FaultPlan::default()
        })
    }

    /// Whether no rule is armed (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Fires the first armed rule for `site`, if any. Decrements the
    /// rule's budget; a [`FaultKind::Stall`] sleeps *here* and returns
    /// `None` (the site proceeds normally afterwards — stall-then-
    /// resume), so call sites only ever handle `Io`/`Short`/`Corrupt`.
    pub fn fire(&self, site: &str) -> Option<FaultKind> {
        if self.rules.is_empty() {
            return None;
        }
        for rule in self.rules.iter().filter(|r| r.site == site) {
            // Claim one firing; skip rules whose budget ran out.
            let claimed = rule
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    if n == 0 {
                        None
                    } else if n == u64::MAX {
                        Some(u64::MAX)
                    } else {
                        Some(n - 1)
                    }
                })
                .is_ok();
            if !claimed {
                continue;
            }
            self.fired.fetch_add(1, Ordering::Relaxed);
            if let Some(idx) = Self::SITES.iter().position(|s| *s == site) {
                self.fired_by_site[idx].fetch_add(1, Ordering::Relaxed);
            }
            if let FaultKind::Stall(wait) = rule.kind {
                std::thread::sleep(wait);
                return None;
            }
            return Some(rule.kind);
        }
        None
    }

    /// Total faults fired so far (stalls included) — surfaced by the
    /// daemon's `stats` reply so a chaos run can prove the plan armed.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// The shared atomic behind [`FaultPlan::fired`], for registry
    /// backing (the exposition reads the plan's own counter).
    pub fn fired_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.fired)
    }

    /// The shared atomics behind the per-site counters, in
    /// [`FaultPlan::SITES`] order, for registry backing — always every
    /// site, so the `metrics` exposition lists every instrumented site
    /// whether or not it fired.
    pub fn site_counter_handles(&self) -> [(&'static str, Arc<AtomicU64>); SITE_COUNT] {
        std::array::from_fn(|i| (Self::SITES[i], Arc::clone(&self.fired_by_site[i])))
    }

    /// The injected error every `Io` firing surfaces: stable text, so
    /// operators and tests can tell injected failures from real ones.
    pub fn injected_error(site: &str) -> std::io::Error {
        std::io::Error::other(format!("injected fault at {site}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_counts_and_rejects_garbage() {
        let plan = FaultPlan::parse("store.save=short#1, store.load=corrupt#2").unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.fire(FaultPlan::STORE_SAVE), Some(FaultKind::Short));
        assert_eq!(plan.fire(FaultPlan::STORE_SAVE), None, "budget of 1 spent");
        assert_eq!(plan.fire(FaultPlan::STORE_LOAD), Some(FaultKind::Corrupt));
        assert_eq!(plan.fire(FaultPlan::STORE_LOAD), Some(FaultKind::Corrupt));
        assert_eq!(plan.fire(FaultPlan::STORE_LOAD), None);
        assert_eq!(plan.fired(), 3);
        let by_site = plan
            .site_counter_handles()
            .map(|(site, n)| (site, n.load(Ordering::Relaxed)));
        assert_eq!(by_site[0], (FaultPlan::STORE_SAVE, 1));
        assert_eq!(by_site[1], (FaultPlan::STORE_LOAD, 2));
        assert_eq!(
            by_site[2],
            (FaultPlan::CONN_READ, 0),
            "unfired sites listed"
        );

        assert!(FaultPlan::parse("").unwrap().is_empty());
        for bad in [
            "store.save",
            "nowhere=io",
            "store.save=explode",
            "store.save=io#0",
            "store.save=io#x",
            "conn.read=stall:soon",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unlimited_rules_keep_firing_and_stalls_resume() {
        let plan = FaultPlan::parse("conn.write=io,conn.read=stall:1").unwrap();
        for _ in 0..10 {
            assert_eq!(plan.fire(FaultPlan::CONN_WRITE), Some(FaultKind::Io));
        }
        let t = std::time::Instant::now();
        assert_eq!(
            plan.fire(FaultPlan::CONN_READ),
            None,
            "stall returns None: the site resumes"
        );
        assert!(t.elapsed() >= Duration::from_millis(1));
        assert_eq!(plan.fire(FaultPlan::STORE_SAVE), None, "unarmed site");
    }
}
