//! The workspace's bottom crate: `std` only, linked by everything that
//! draws a random number or runs a loop on more than one thread.
//!
//! * [`rng`] — the seeded generator behind every partition (xoshiro256++
//!   through SplitMix64), with the one [`rng::splitmix64`] in the tree.
//! * [`par`] — fork-join loops over `std::thread::scope`, with helper
//!   threads drawn from one process-wide permit counter.

#![warn(missing_docs)]

pub mod par;
pub mod rng;
