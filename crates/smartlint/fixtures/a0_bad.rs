// Fixture: A0 violations. Analyzed as crates/archsim/src/pipeline.rs.
// smartlint annotations that do not parse must be findings themselves,
// or a typo silently disables enforcement.

// smartlint: allow(nondeterminism)
pub fn missing_reason(x: Option<u64>) -> u64 {
    x.unwrap_or(0)
}

// smartlint: allow(not-a-rule, "the key does not exist")
pub fn unknown_key() -> u64 {
    1
}
