//! The workspace's bottom crate: `std` only, linked by everything that
//! draws a random number, runs a loop on more than one thread or reads a
//! command line.
//!
//! * [`cli`] — the one argv reader every binary shares: flag iteration,
//!   missing and malformed values, and the usage-error contract
//!   (`<bin>: <message>` on stderr, exit code 2).
//! * [`rng`] — the seeded generator behind every partition (xoshiro256++
//!   through SplitMix64), with the one [`rng::splitmix64`] in the tree.
//! * [`par`] — fork-join loops over `std::thread::scope`, with helper
//!   threads drawn from one process-wide permit counter.

#![warn(missing_docs)]

pub mod cli;
pub mod par;
pub mod rng;
