//! `decstation` — a calibrated cost model of the DECstation 5000/200
//! host the paper measured.
//!
//! The original system was a 25 MHz MIPS R3000 workstation running
//! ULTRIX 4.2A with the BSD 4.4 alpha TCP, a FORE TCA-100 ATM
//! interface on the TurboChannel, and a 40 ns real-time clock used for
//! all measurements. None of that hardware exists here, so the
//! reproduction charges *virtual time* for every kernel operation from
//! the [`CostModel`] in this crate.
//!
//! # Calibration
//!
//! Every constant is fitted from numbers the paper itself publishes
//! (see `DESIGN.md` §4 and the field documentation in
//! [`cost::CostModel`]):
//!
//! - Table 5 pins the four user-level data-touching rates (ULTRIX
//!   checksum, `bcopy`, optimized checksum, integrated copy+checksum);
//! - Tables 2 and 3 pin the kernel span costs at the same probe
//!   granularity the paper used;
//! - §2.2.1 pins the mbuf allocator at ≈7 µs per allocate/free pair;
//! - §3 pins the PCB lookup at ≈1.3 µs per list entry.
//!
//! End-to-end round-trip times are *not* calibrated — they must emerge
//! from composing these costs inside the simulator (see
//! `EXPERIMENTS.md` for the paper-vs-measured comparison).

#![warn(missing_docs)]

pub mod cost;
pub mod fit;
pub mod machine;

pub use cost::{ChecksumImpl, CostModel, CostTables, LinearCost};
pub use fit::{linear_fit, LinearFit};
pub use machine::DECSTATION_5000_200;
