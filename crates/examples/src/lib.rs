//! Anchor crate for the workspace-level `examples/` binaries and `tests/`
//! integration tests (Cargo targets must belong to a package; the target
//! paths in this package's manifest point one level up).

#![forbid(unsafe_code)]
