//! Memory-system substrate: addresses, coherence states, caches.
//!
//! This crate models the storage side of the embedded-ring multiprocessor of
//! the Flexible Snooping paper (ISCA 2006):
//!
//! * [`addr`] — byte and line addresses, home-node mapping.
//! * [`ids`] — typed identifiers for CMPs and cores.
//! * [`state`] — the seven-state coherence lattice
//!   (`I, S, SL, SG, E, D, T`) with the paper's Figure 2(b) compatibility
//!   matrix and the supply/downgrade transition rules.
//! * [`cache`] — a generic set-associative, LRU-replaced cache array.
//! * [`l2`] — the per-core L2 cache tracking a coherence state per line.
//! * [`cmp`] — a CMP's group of L2s with local-supply and remote-snoop
//!   lookups, built on first fill, and the machine-wide set of CMPs.
//!
//! The protocol logic that *drives* state changes lives in the `flexsnoop`
//! core crate; this crate only guarantees the storage-level invariants.

pub mod addr;
pub mod cache;
pub mod cmp;
pub mod ids;
pub mod invariants;
pub mod l2;
pub mod state;

pub use addr::{Addr, LineAddr};
pub use cache::{CacheGeometry, SetAssocCache};
pub use cmp::{CmpCaches, CmpGeometry, InvalidateOutcome, MachineCaches};
pub use ids::{CmpId, CoreId};
pub use l2::L2Cache;
pub use state::CoherState;
