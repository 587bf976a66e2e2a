//! Warn-once environment-knob resolution.
//!
//! Every `VER_*` tuning knob in the workspace follows the same contract:
//!
//! * the variable is read and parsed **once per process** (knobs are
//!   consulted on hot paths — config construction, connection setup — and
//!   a typo'd value must not spam one warning per query);
//! * a malformed value logs one stderr warning and **falls back** to the
//!   built-in default — a long-running service never aborts because an
//!   operator exported a typo, and the determinism invariants guarantee
//!   the fallback computes identical output anyway;
//! * an unset variable silently takes the default.
//!
//! [`EnvKnob`] packages that contract so `VER_THREADS`, `VER_ADDR`,
//! `VER_MAX_CONNS`, `VER_RETRIES`, `VER_BACKOFF_MS` and `VER_BREAKER` all
//! share one implementation instead of one hand-rolled `OnceLock` block
//! each. The per-knob *syntax* stays with the knob (callers
//! pass their own parse function); this module owns only the
//! once-per-process + warn-once-and-fall-back mechanics.

use std::sync::OnceLock;

/// One warn-once environment knob. Declare as a `static`, resolve with
/// [`get`](EnvKnob::get):
///
/// ```
/// use ver_common::env::EnvKnob;
/// static KNOB: EnvKnob<usize> = EnvKnob::new("VER_DOCTEST_KNOB", "want a count");
/// let v = KNOB.get(|raw| raw.trim().parse().ok(), 4);
/// assert_eq!(v, 4); // unset → fallback
/// ```
pub struct EnvKnob<T: Copy + 'static> {
    name: &'static str,
    /// Human hint for the warning, e.g. `"want a positive integer"`.
    hint: &'static str,
    cell: OnceLock<T>,
}

impl<T: Copy> EnvKnob<T> {
    /// A knob reading `name`, warning with `hint` on malformed values.
    pub const fn new(name: &'static str, hint: &'static str) -> Self {
        EnvKnob {
            name,
            hint,
            cell: OnceLock::new(),
        }
    }

    /// The environment variable this knob reads.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Resolve the knob: parse the variable with `parse` on first call
    /// (malformed → one stderr warning + `fallback`; unset → `fallback`)
    /// and return the cached value ever after. The first caller's
    /// `parse`/`fallback` win; by convention each knob has exactly one
    /// call site, so they never disagree.
    pub fn get(&self, parse: impl FnOnce(&str) -> Option<T>, fallback: T) -> T {
        *self.cell.get_or_init(|| match std::env::var(self.name) {
            Ok(raw) => parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "ver: warning: ignoring malformed {}={raw:?} ({}); using the default",
                    self.name, self.hint
                );
                fallback
            }),
            Err(_) => fallback,
        })
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for EnvKnob<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvKnob")
            .field("name", &self.name)
            .field("resolved", &self.cell.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name and its own static: knobs
    // resolve once per process, so sharing either would couple tests.

    #[test]
    fn unset_variable_takes_the_fallback() {
        static KNOB: EnvKnob<usize> = EnvKnob::new("VER_TEST_ENV_UNSET", "want a count");
        assert_eq!(KNOB.get(|r| r.trim().parse().ok(), 7), 7);
    }

    #[test]
    fn set_variable_parses_and_caches() {
        static KNOB: EnvKnob<usize> = EnvKnob::new("VER_TEST_ENV_SET", "want a count");
        std::env::set_var("VER_TEST_ENV_SET", "42");
        assert_eq!(KNOB.get(|r| r.trim().parse().ok(), 7), 42);
        // Resolved once: later environment changes are invisible.
        std::env::set_var("VER_TEST_ENV_SET", "43");
        assert_eq!(KNOB.get(|r| r.trim().parse().ok(), 7), 42);
    }

    #[test]
    fn malformed_variable_falls_back() {
        static KNOB: EnvKnob<usize> = EnvKnob::new("VER_TEST_ENV_BAD", "want a count");
        std::env::set_var("VER_TEST_ENV_BAD", "not-a-number");
        assert_eq!(KNOB.get(|r| r.trim().parse().ok(), 7), 7);
    }

    #[test]
    fn non_integer_payloads_work_too() {
        static KNOB: EnvKnob<(u32, u32)> = EnvKnob::new("VER_TEST_ENV_PAIR", "want a:b");
        std::env::set_var("VER_TEST_ENV_PAIR", "3:9");
        let parse = |raw: &str| {
            let (a, b) = raw.split_once(':')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        };
        assert_eq!(KNOB.get(parse, (0, 0)), (3, 9));
    }
}
