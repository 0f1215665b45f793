//! Fixture: escapes that do not parse or name unknown rules — each is
//! itself a diagnostic, so a typo cannot silently disable checking.

// lint: allow(no-unwarp)
pub fn misspelled() {}

// lint: deny(no-unwrap)
pub fn wrong_verb() {}

// Retired rules (clippy owns panic-freedom; allocation is measured by
// `droplens mem diff`) are unknown names now, not silent no-ops.
// lint: allow(no-unwrap)
pub fn retired_panic_rule() {}

// lint: allow(no-unbounded-collect)
pub fn retired_collect_rule() {}
