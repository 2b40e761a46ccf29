//! Where a walk's qubits live: the placement of one state over `D = 2^d`
//! devices.
//!
//! The host holds one state in **physical order**. Physical slot `s < m`
//! (with `m` local qubits per device) is bit `s` of a device-local
//! amplitude index; slot `s ≥ m` is bit `s - m` of the device id, so shard
//! `p` is `amps[p << m .. (p + 1) << m]`. A [`QubitLayout`] tracks which
//! logical qubit each slot holds; an exchange epoch swaps a local slot
//! with a global one, in the layout and — as one in-place index-bit swap
//! ([`swap_index_bits`]) — in the amplitudes. The walker takes a
//! [`Placer`] that builds the [`Placement`] of a plan; without one, a walk
//! is the single-device case: one device, every qubit local, the identity
//! layout.

use gpu_model::runtime::StreamId;
use qsim_core::types::{Cplx, Float, Precision};

use crate::plan::FusionPlan;
use crate::report::DistReport;
use crate::sim_backend::BackendError;

/// A permutation between logical qubits and physical slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitLayout {
    /// `slot_of[q]` = physical slot currently holding logical qubit `q`.
    slot_of: Vec<usize>,
    /// `logical_at[s]` = logical qubit currently in physical slot `s`.
    logical_at: Vec<usize>,
    /// Local qubits per device (`m`); slots `>= m` are global.
    local_qubits: usize,
}

impl QubitLayout {
    /// Identity layout for `n` qubits with `m = n - d` local slots.
    pub fn new(n: usize, local_qubits: usize) -> Self {
        assert!(local_qubits <= n, "more devices than amplitudes");
        QubitLayout { slot_of: (0..n).collect(), logical_at: (0..n).collect(), local_qubits }
    }

    /// Local qubits per device.
    pub fn local_qubits(&self) -> usize {
        self.local_qubits
    }

    /// Physical slot of logical qubit `q`.
    pub fn slot_of(&self, q: usize) -> usize {
        self.slot_of[q]
    }

    /// Logical qubit living in physical slot `s`.
    pub fn logical_at(&self, s: usize) -> usize {
        self.logical_at[s]
    }

    /// Whether logical qubit `q` currently lives in a local slot.
    pub fn is_local(&self, q: usize) -> bool {
        self.slot_of[q] < self.local_qubits
    }

    /// Swap the contents of two physical slots (records the permutation
    /// only; the backend moves the data).
    pub fn swap_slots(&mut self, a: usize, b: usize) {
        let qa = self.logical_at[a];
        let qb = self.logical_at[b];
        self.logical_at.swap(a, b);
        self.slot_of[qa] = b;
        self.slot_of[qb] = a;
    }

    /// Choose a local slot to evict for an incoming global qubit: the
    /// highest local slot whose logical qubit is not in `protect`.
    /// Preferring high slots keeps the device's low slots (the
    /// `ApplyGateL_Kernel`-triggering ones) stable.
    pub fn pick_victim(&self, protect: &[usize]) -> usize {
        (0..self.local_qubits)
            .rev()
            .find(|&s| !protect.contains(&self.logical_at[s]))
            .expect("at least one local slot must be free (gate width < local qubits)")
    }
}

/// Kernel-stat name of the modeled shard exchange.
pub const EXCHANGE_KERNEL: &str = "GlobalSwapExchange";

/// The exchanges before one fused op, as the walker replays them.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// `(local_slot, global_slot)` swaps of the op's epochs, in
    /// application order.
    pub pairs: Vec<(usize, usize)>,
    /// Modeled link occupancy of the op's epochs, µs.
    pub link_us: f64,
}

/// How one walk spreads its state over several devices.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The layout the walk starts from and evolves; its
    /// [`QubitLayout::local_qubits`] is the shard width `m`.
    pub layout: QubitLayout,
    /// `exchanges[i]` = the swaps applied immediately before fused op `i`.
    pub exchanges: Vec<Exchange>,
    /// The comm stream and pipeline depth when exchanges overlap the
    /// dependent gate kernel; `None` serializes them on the compute
    /// stream.
    pub overlap: Option<(StreamId, usize)>,
    /// The report's sharding section: device count and exchange totals.
    pub sharding: DistReport,
}

/// Builds the placement a walk of `plan` runs over. The walker asks for it
/// after the plan's pre-run verdict, so a placer only ever sees plans the
/// gate admitted; an error rejects the walk before any state is touched.
pub trait Placer {
    /// The placement of `plan` at `precision`.
    fn place(&self, plan: &FusionPlan, precision: Precision) -> Result<Placement, BackendError>;
}

/// Exchange index bits `a < b` of every amplitude index in place: the
/// amplitude at an index with bit `a` set and bit `b` clear trades places
/// with its partner across both bits. Runs of `2^a` amplitudes move as
/// slices.
pub fn swap_index_bits<F: Float>(amps: &mut [Cplx<F>], a: usize, b: usize) {
    debug_assert!(a < b && amps.len() >= 2 << b);
    let run = 1usize << a;
    for block in amps.chunks_exact_mut(2 << b) {
        let (lo, hi) = block.split_at_mut(1 << b);
        for start in (0..1usize << b).step_by(2 * run) {
            lo[start + run..start + 2 * run].swap_with_slice(&mut hi[start..start + run]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_layout() {
        let l = QubitLayout::new(6, 4);
        assert!((0..6).all(|q| l.slot_of(q) == q && l.logical_at(q) == q));
        assert!(l.is_local(3));
        assert!(!l.is_local(4));
    }

    #[test]
    fn swap_updates_both_maps() {
        let mut l = QubitLayout::new(6, 4);
        l.swap_slots(2, 5); // logical 5 becomes local, logical 2 global
        assert_eq!(l.slot_of(5), 2);
        assert_eq!(l.slot_of(2), 5);
        assert_eq!(l.logical_at(2), 5);
        assert_eq!(l.logical_at(5), 2);
        assert!(l.is_local(5));
        assert!(!l.is_local(2));
        assert_ne!(l, QubitLayout::new(6, 4));
        // Swap back restores identity.
        l.swap_slots(2, 5);
        assert_eq!(l, QubitLayout::new(6, 4));
    }

    #[test]
    fn swapping_index_bits_exchanges_them_in_every_index() {
        for (a, b) in [(0, 1), (0, 4), (1, 3), (2, 4)] {
            let mut amps: Vec<Cplx<f64>> = (0..32).map(|i| Cplx::new(i as f64, 0.0)).collect();
            swap_index_bits(&mut amps, a, b);
            for (i, amp) in amps.iter().enumerate() {
                let (ba, bb) = ((i >> a) & 1, (i >> b) & 1);
                let from = i & !(1 << a | 1 << b) | bb << a | ba << b;
                assert_eq!(amp.re, from as f64, "bits {a},{b} at index {i}");
            }
            // An involution: the second swap restores the order.
            swap_index_bits(&mut amps, a, b);
            assert!(amps.iter().enumerate().all(|(i, amp)| amp.re == i as f64));
        }
    }

    #[test]
    fn victim_prefers_high_slots_and_respects_protection() {
        let l = QubitLayout::new(8, 5);
        assert_eq!(l.pick_victim(&[]), 4);
        assert_eq!(l.pick_victim(&[4]), 3);
        assert_eq!(l.pick_victim(&[4, 3, 2]), 1);
    }

    #[test]
    #[should_panic(expected = "more devices than amplitudes")]
    fn too_many_devices_rejected() {
        let _ = QubitLayout::new(3, 4);
    }
}
