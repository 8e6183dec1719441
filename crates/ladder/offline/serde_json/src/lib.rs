//! Empty on purpose: this crate only has to resolve (see Cargo.toml).
