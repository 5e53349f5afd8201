//! Inter-DBC distribution: which DBC stores which variable.
//!
//! * [`Afd`] — the state-of-the-art baseline, *Access Frequency based
//!   Distribution* (Chen et al., TVLSI'16, §III-A of the paper).
//! * [`Dma`] — the paper's contribution (Algorithm 1): *Disjoint Memory
//!   Accesses* are separated from the rest and stored in access order.

mod afd;
mod dma;
mod dma_multi;

pub use afd::Afd;
pub use dma::{Dma, DmaPartition};
pub use dma_multi::DmaMulti;

#[cfg(test)]
pub(crate) use dma::tests::scan_chain_reference;

use crate::error::PlacementError;
use rtm_trace::{AccessSequence, VarId};

/// An inter-DBC distribution heuristic.
///
/// The result assigns every accessed variable of `seq` to exactly one of
/// `dbcs` DBCs; the per-DBC variable order is the heuristic's *native* order
/// (for AFD the deal order, for DMA the access order of disjoint variables
/// and the frequency order of the rest) and may be refined afterwards by an
/// [`IntraHeuristic`](crate::intra::IntraHeuristic).
pub trait InterHeuristic {
    /// Short, stable name (used in experiment tables: `AFD`, `DMA`).
    fn name(&self) -> &'static str;

    /// Distributes the variables of `seq` over `dbcs` DBCs of `capacity`
    /// locations each.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InsufficientCapacity`] when the variables
    /// cannot fit.
    fn distribute(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<Vec<Vec<VarId>>, PlacementError>;
}

/// Membership bitmap of `vars` over the ids `0..len`.
pub(crate) fn var_mask(len: usize, vars: &[VarId]) -> Vec<bool> {
    let mut mask = vec![false; len];
    for v in vars {
        mask[v.index()] = true;
    }
    mask
}

/// Number of leading DBCs of `dist` whose first variable is marked in
/// `mask` — for DMA, the DBCs holding selected disjoint variables, which a
/// composite strategy must leave in access order.
pub(crate) fn leading_marked(dist: &[Vec<VarId>], mask: &[bool]) -> usize {
    dist.iter()
        .take_while(|l| l.first().is_some_and(|v| mask[v.index()]))
        .count()
}

/// Checks the basic fit `vars ≤ dbcs × capacity` shared by all heuristics.
pub(crate) fn check_fit(vars: usize, dbcs: usize, capacity: usize) -> Result<(), PlacementError> {
    if dbcs == 0 || capacity == 0 {
        return Err(PlacementError::EmptyGeometry);
    }
    if vars > dbcs * capacity {
        return Err(PlacementError::InsufficientCapacity {
            vars,
            dbcs,
            capacity,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_fit_boundaries() {
        assert!(check_fit(4, 2, 2).is_ok());
        assert!(matches!(
            check_fit(5, 2, 2),
            Err(PlacementError::InsufficientCapacity { .. })
        ));
        assert_eq!(check_fit(1, 0, 4), Err(PlacementError::EmptyGeometry));
        assert_eq!(check_fit(1, 4, 0), Err(PlacementError::EmptyGeometry));
    }

    #[test]
    fn names() {
        assert_eq!(Afd.name(), "AFD");
        assert_eq!(Dma.name(), "DMA");
    }
}
