//! Integration-test crate: see the `tests/` directory.
//!
//! The library target is intentionally empty; every test here spans
//! multiple workspace crates end-to-end.

#![forbid(unsafe_code)]
