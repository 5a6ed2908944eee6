//! # ftmap-molecule
//!
//! Molecular substrate for the ftmap-rs workspace: everything the docking and
//! energy-minimization engines need to know about the molecules themselves.
//!
//! The original FTMap/PIPER pipeline reads PDB structures and CHARMM parameter files.
//! Neither production data set ships with this reproduction, so this crate provides:
//!
//! * [`Atom`], [`AtomKind`] and [`ForceField`] — a compact CHARMM-like parameter set
//!   (partial charge, Lennard-Jones `eps`/`rmin`, ACE solvation volume, Born radius)
//!   sufficient to evaluate every term in the paper's Equations (3)–(10).
//! * [`probe::ProbeLibrary`] — the 16 small-molecule probes FTMap docks
//!   (ethanol, isopropanol, acetone, …) with idealized geometries.
//! * [`protein::SyntheticProtein`] — a deterministic generator of protein-sized atom sets
//!   (~2200 atoms, the complex size quoted in the paper's §V.B) with surface pockets, so
//!   the docking grids, neighbor lists and pair counts have realistic statistics.
//! * [`topology::Topology`] — bonds / angles / torsions / impropers plus exclusion rules,
//!   needed by the bonded energy terms and by neighbor-list construction.
//! * [`neighbor::NeighborList`] — the cutoff neighbor lists that the minimization engine
//!   restructures into pairs-lists (the core of the paper's §IV).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod atom;
pub mod complex;
pub(crate) mod forcefield;
mod neighbor;
pub mod probe;
pub mod protein;
pub mod topology;

pub use atom::{Atom, AtomKind, Element};
pub use complex::Complex;
pub use forcefield::{ForceField, NonbondedParams};
pub use neighbor::NeighborList;
pub use probe::{Probe, ProbeLibrary, ProbeType};
pub use protein::{ProteinSpec, SyntheticProtein};
pub use topology::Topology;
