//! Deliberate violations of the lint rules rustc and clippy enforce
//! (see `Cargo.toml`). Each item must stay rejected.

// L1: the panic-family deny set of `crates/core/src/sim.rs`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// L1: a panic site with no `#[expect]` (`expect_used`).
pub fn bare_expect(x: Option<u32>) -> u32 {
    x.expect("no justification")
}

/// L1: an `#[expect]` whose site is gone (`unfulfilled_lint_expectations`).
#[expect(clippy::expect_used, reason = "the site it covered was removed")]
pub fn stale_expect(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

/// L3: a host clock read (`disallowed_methods`).
pub fn host_time() -> std::time::Instant {
    std::time::Instant::now()
}

/// L3: an environment read through an `_os` form (`disallowed_methods`).
pub fn environment() -> Option<std::ffi::OsString> {
    std::env::var_os("PP_SCALE")
}
