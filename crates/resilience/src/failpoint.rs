//! Deterministic fail points (`fail-rs` style, vendored and minimal).
//!
//! Library crates mark interesting spots in their hot paths with
//! [`hit`] / [`hit_infallible`] under a **named site**. A [`ChaosPlan`]
//! [`install`]ed on a thread trips chosen sites on that thread with one of
//! three [`FaultAction`]s:
//!
//! * `Panic` — unwind from the site with an [`InjectedPanic`] (tests
//!   worker isolation and lock poisoning);
//! * `Delay` — sleep briefly (tests deadlines and the absence of hangs);
//! * `Error` — surface a typed [`InjectedFault`] through the site's error
//!   channel (tests the degradation ladder). Sites without an error
//!   channel use [`hit_infallible`], which escalates `Error` to a panic.
//!
//! A fourth action, `Offset`, is read only by [`offset`]: it lets a
//! mutation test shift a number the code relies on.
//!
//! Plans are generated deterministically from a seed
//! ([`ChaosPlan::sample`]), so a failing chaos case reproduces from its
//! `(seed, case index)` alone. A plan is scoped to the thread that arms
//! it: other threads never see it, so a test injecting faults cannot
//! touch one running beside it. A thread that fans work out to helpers
//! hands them its plan with [`current`] and [`enter`]. While no plan is
//! armed anywhere in the process, a site costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// What an armed fail point does when execution reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognizable message.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Return a typed [`InjectedFault`] from [`hit`].
    Error,
    /// Make [`offset`] return this value ([`hit`] ignores it).
    Offset(u32),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Delay(d) => write!(f, "delay {d:?}"),
            FaultAction::Error => write!(f, "error"),
            FaultAction::Offset(n) => write!(f, "offset {n}"),
        }
    }
}

/// The typed error an `Error`-armed site surfaces through its caller's
/// error channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault injected at {}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// The payload (the rendered message) of every panic an injected fault
/// raises. The panic hook that [`install`] sets up mutes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPanic(pub String);

/// Unwind with an [`InjectedPanic`] carrying `message`.
pub(crate) fn escalate(message: String) -> ! {
    std::panic::panic_any(InjectedPanic(message))
}

/// The catalog of named sites threaded through the workspace. A site not
/// in this list can still be tripped by name; the catalog is what
/// [`ChaosPlan::sample`] draws from, and what DESIGN.md documents.
pub mod sites {
    /// Inside the warm-started SPFA relaxation loop (`cred-retime`).
    pub const RETIME_SPFA: &str = "retime.spfa";
    /// Entry of the period binary search (`cred-retime`).
    pub const RETIME_MIN_PERIOD: &str = "retime.min_period";
    /// Before the fast (solver) path of a plan computation
    /// (`cred-explore`).
    pub const EXPLORE_PLAN_FAST: &str = "explore.plan.fast";
    /// Before the reference fallback of a plan computation
    /// (`cred-explore`).
    pub const EXPLORE_PLAN_REFERENCE: &str = "explore.plan.reference";
    /// Inside the sweep cache's locked insert section (`cred-explore`) —
    /// a panic here poisons the cache mutex on purpose.
    pub const EXPLORE_CACHE_INSERT: &str = "explore.cache.insert";
    /// Entry of CRED code generation (`cred-codegen`; no error channel).
    pub const CODEGEN_CRED: &str = "codegen.cred";
    /// Entry of retime+unfold code generation (`cred-codegen`; no error
    /// channel).
    pub const CODEGEN_UNFOLD: &str = "codegen.unfold";
    /// Once per loop iteration of the VM interpreter (`cred-vm`).
    pub const VM_EXEC: &str = "vm.exec";
    /// Entry of the tape compiler lowering a program (`cred-vm`).
    pub const VM_COMPILE: &str = "vm.compile";
    /// Once per branch-and-bound decision of the exact resource-
    /// constrained scheduler (`cred-exact`).
    pub const EXACT_BRANCH: &str = "exact.branch";

    /// Read once per exact search (`cred-exact`): an `Offset(n)` action
    /// makes the reservation check believe every capped class has `n`
    /// more units than the machine declares. A mutation-test site, not in
    /// [`ALL`], so chaos plans never arm it.
    pub const EXACT_RESERVATION_SLACK: &str = "exact.reservation_slack";

    /// Every site above but [`EXACT_RESERVATION_SLACK`], for plan
    /// sampling and documentation.
    pub const ALL: &[&str] = &[
        RETIME_SPFA,
        RETIME_MIN_PERIOD,
        EXPLORE_PLAN_FAST,
        EXPLORE_PLAN_REFERENCE,
        EXPLORE_CACHE_INSERT,
        CODEGEN_CRED,
        CODEGEN_UNFOLD,
        VM_EXEC,
        VM_COMPILE,
        EXACT_BRANCH,
    ];
}

/// A set of armed sites. Deterministic: iteration order is the site
/// name's, and sampling is a pure function of the seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    actions: BTreeMap<String, FaultAction>,
}

impl ChaosPlan {
    /// An empty plan (no site fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `site` with `action` (builder style).
    pub fn trip(mut self, site: &str, action: FaultAction) -> Self {
        self.actions.insert(site.to_string(), action);
        self
    }

    /// The action armed for `site`, if any.
    pub fn action_for(&self, site: &str) -> Option<&FaultAction> {
        self.actions.get(site)
    }

    /// Armed `(site, action)` pairs in site-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FaultAction)> {
        self.actions.iter().map(|(s, a)| (s.as_str(), a))
    }

    /// Draw a random plan: each site in `catalog` is armed independently
    /// with probability `trip_percent`/100, with a uniformly chosen panic,
    /// delay or error action (delays are 1..=`max_delay_ms` ms). Pure in
    /// `seed`.
    pub fn sample(seed: u64, catalog: &[&str], trip_percent: u32, max_delay_ms: u64) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64 — deterministic and dependency-free.
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut plan = ChaosPlan::new();
        for &site in catalog {
            if next() % 100 >= trip_percent as u64 {
                continue;
            }
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Delay(Duration::from_millis(1 + next() % max_delay_ms.max(1))),
                _ => FaultAction::Error,
            };
            plan = plan.trip(site, action);
        }
        plan
    }
}

/// Guards alive in the process that arm a plan. Zero in every run that
/// injects nothing, which keeps each site to one relaxed load. `Relaxed`
/// is enough: a thread only reads its own plan, and it armed that plan
/// with its own earlier increment.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The plan armed on this thread.
    static PLAN: RefCell<Option<Arc<ChaosPlan>>> = const { RefCell::new(None) };
}

/// Arms a plan on its thread; dropping it restores the plan that thread
/// had before. Not `Send`: it must drop where it was made.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct ChaosGuard {
    prev: Option<Arc<ChaosPlan>>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        PLAN.with(|p| *p.borrow_mut() = self.prev.take());
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Arm `plan` on the calling thread until the returned guard drops.
pub fn install(plan: ChaosPlan) -> ChaosGuard {
    enter(Arc::new(plan))
}

/// The plan armed on the calling thread. A thread that fans work out to
/// helpers passes it to [`enter`] on each helper, so the helpers run
/// under the same plan.
pub fn current() -> Option<Arc<ChaosPlan>> {
    PLAN.with(|p| p.borrow().clone())
}

/// Arm a shared plan on the calling thread until the returned guard
/// drops.
pub fn enter(plan: Arc<ChaosPlan>) -> ChaosGuard {
    mute_injected_panics();
    ARMED.fetch_add(1, Ordering::SeqCst);
    ChaosGuard {
        prev: PLAN.with(|p| p.replace(Some(plan))),
        _thread: PhantomData,
    }
}

/// Install, once per process, a panic hook that drops [`InjectedPanic`]
/// payloads (each is expected and caught, and the default hook would
/// print a backtrace for every one) and forwards every other panic to
/// the hook it replaces.
fn mute_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<InjectedPanic>() {
                prev(info);
            }
        }));
    });
}

/// The action the calling thread's plan arms at `site`: one relaxed load
/// while no plan is armed anywhere in the process.
#[inline]
fn armed_action(site: &str) -> Option<FaultAction> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    PLAN.with(|p| p.borrow().as_ref()?.action_for(site).cloned())
}

/// Reach the named site. Fires the calling thread's plan's action, if
/// any: `Err(InjectedFault)` for `Error`, an [`InjectedPanic`] for
/// `Panic`, a sleep for `Delay`.
#[inline]
pub fn hit(site: &'static str) -> Result<(), InjectedFault> {
    match armed_action(site) {
        Some(FaultAction::Panic) => escalate(format!("fail point '{site}': injected panic")),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultAction::Error) => Err(InjectedFault { site }),
        Some(FaultAction::Offset(_)) | None => Ok(()),
    }
}

/// [`hit`] for sites without an error channel: an `Error` action is
/// escalated to a panic (documented in the site catalog), so no injection
/// is ever silently swallowed.
#[inline]
pub fn hit_infallible(site: &'static str) {
    if let Err(f) = hit(site) {
        escalate(format!(
            "fail point '{site}': {f} (no error channel; escalated)"
        ));
    }
}

/// The `Offset` the calling thread's plan arms at `site`, else 0. Read
/// by sites that perturb a number instead of failing.
#[inline]
pub fn offset(site: &'static str) -> u32 {
    match armed_action(site) {
        Some(FaultAction::Offset(n)) => n,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_respects_probability() {
        let a = ChaosPlan::sample(7, sites::ALL, 50, 3);
        let b = ChaosPlan::sample(7, sites::ALL, 50, 3);
        assert_eq!(a, b);
        assert_eq!(ChaosPlan::sample(1, sites::ALL, 0, 3), ChaosPlan::new());
        assert_eq!(
            ChaosPlan::sample(1, sites::ALL, 100, 3).iter().count(),
            sites::ALL.len()
        );
    }

    #[test]
    fn plan_builder_arms_sites() {
        let p = ChaosPlan::new()
            .trip("a.b", FaultAction::Error)
            .trip("c.d", FaultAction::Panic);
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.action_for("a.b"), Some(&FaultAction::Error));
        assert_eq!(p.action_for("nope"), None);
    }

    #[test]
    fn installed_plan_fires_and_disarms_on_drop() {
        {
            let _g = install(
                ChaosPlan::new()
                    .trip("t.error", FaultAction::Error)
                    .trip("t.offset", FaultAction::Offset(3)),
            );
            assert_eq!(hit("t.error"), Err(InjectedFault { site: "t.error" }));
            assert_eq!(hit("t.other"), Ok(()));
            assert_eq!(hit("t.offset"), Ok(()));
            assert_eq!(offset("t.offset"), 3);
            assert_eq!(offset("t.error"), 0);
        }
        // Guard dropped: the sites are disarmed again.
        assert_eq!(hit("t.error"), Ok(()));
        assert_eq!(offset("t.offset"), 0);
    }

    #[test]
    fn panic_action_unwinds_with_recognizable_message() {
        let _g = install(ChaosPlan::new().trip("t.panic", FaultAction::Panic));
        let err = std::panic::catch_unwind(|| hit("t.panic")).unwrap_err();
        assert!(err.is::<InjectedPanic>());
        let msg = crate::panic_message(err.as_ref());
        assert_eq!(msg, "fail point 't.panic': injected panic");
    }

    #[test]
    fn escalated_error_message_is_unchanged() {
        let _g = install(ChaosPlan::new().trip("t.escalate", FaultAction::Error));
        let err = std::panic::catch_unwind(|| hit_infallible("t.escalate")).unwrap_err();
        assert_eq!(
            crate::panic_message(err.as_ref()),
            "fail point 't.escalate': fault injected at t.escalate \
             (no error channel; escalated)"
        );
    }

    #[test]
    fn plan_stays_on_its_thread_unless_entered() {
        let _g = install(ChaosPlan::new().trip("t.scoped", FaultAction::Error));
        let fault = Err(InjectedFault { site: "t.scoped" });
        assert_eq!(hit("t.scoped"), fault);
        let plan = current().expect("a plan is armed on this thread");
        std::thread::scope(|s| {
            // A spawned thread starts with no plan...
            s.spawn(|| assert_eq!(hit("t.scoped"), Ok(())));
            // ...and runs under the spawner's once it enters it.
            s.spawn(|| {
                let _entered = enter(plan.clone());
                assert_eq!(hit("t.scoped"), fault);
            });
        });
        assert_eq!(hit("t.scoped"), fault);
    }

    #[test]
    fn nested_install_restores_the_outer_plan() {
        let _outer = install(ChaosPlan::new().trip("t.outer", FaultAction::Error));
        {
            let _inner = install(ChaosPlan::new().trip("t.inner", FaultAction::Error));
            assert_eq!(hit("t.outer"), Ok(()));
            assert!(hit("t.inner").is_err());
        }
        assert!(hit("t.outer").is_err());
        assert_eq!(hit("t.inner"), Ok(()));
    }

    #[test]
    fn uninstalled_sites_are_free() {
        assert_eq!(hit("never.installed"), Ok(()));
        hit_infallible("never.installed");
        assert_eq!(offset("never.installed"), 0);
    }
}
