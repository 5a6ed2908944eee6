//! # ftmap-energy
//!
//! The CHARMM/ACE energy model and the energy-minimization engine of FTMap
//! (paper §II.B and §IV), plus the GPU restructuring the paper contributes.
//!
//! The total energy (Equation 3) is the sum of non-bonded terms — ACE continuum
//! electrostatics (self energies, Equations 5–6, and generalized-Born pairwise
//! interactions, Equation 7) and a smoothed Lennard-Jones 6-12 van der Waals term
//! (Equations 8–10) — and bonded terms (bond, angle, torsion, improper). The
//! non-bonded part is >99 % of the evaluation cost (Fig. 3), which is what the paper
//! moves to the GPU.
//!
//! Module map:
//!
//! * [`terms`] — the per-pair / per-atom energy and gradient functions.
//! * [`evaluator`] — the serial reference evaluator over neighbor lists (the structure
//!   of the original FTMap code, Fig. 7) and the per-term breakdown of Fig. 3(b).
//! * [`pairs`] — the restructured data layouts of §IV.B: the flat pairs-list, the
//!   forward/reverse split pairs-lists, and the static assignment table that maps
//!   pair-groups onto thread blocks.
//! * [`gpu`] — the three minimization kernels (self energies, pairwise + van der Waals,
//!   force update) on the device model, in each of the paper's three mapping schemes.
//! * [`minimize`] — the iterative minimizer (host or GPU evaluation path) and its
//!   per-phase profile.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod evaluator;
pub mod gpu;
pub mod minimize;
pub mod pairs;
pub mod terms;

pub use evaluator::{EnergyBreakdown, Evaluator};
pub use minimize::{MinimizationConfig, MinimizationResult, Minimizer, ReceptorHalf};
pub use pairs::{AssignmentTable, PairsList, SplitPairsLists};
