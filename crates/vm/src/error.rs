//! Access-failure classification.

use crate::watch::WatchArea;

/// Why a user-mode (or kernel-mode) access to an address space failed.
///
/// The kernel maps these onto the paper's machine faults: `Unmapped`
/// becomes `FLTBOUNDS` (after transparent stack growth has been ruled
/// out), `Protection` becomes `FLTACCESS`, and `Watch` becomes the
/// proposed `FLTWATCH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessDenied {
    /// No mapping covers the faulting address.
    Unmapped {
        /// The first unmapped address in the attempted range.
        addr: u64,
    },
    /// A mapping covers the address but its protections forbid the access.
    Protection {
        /// The first protected address in the attempted range.
        addr: u64,
    },
    /// The access overlaps a watched area; the paper's proposed watchpoint
    /// facility reports the watched range that fired.
    Watch {
        /// The first watched address touched.
        addr: u64,
        /// The watched area that fired.
        area: WatchArea,
    },
    /// The kernel could not materialise a page frame for the access
    /// (memory exhaustion, real or injected by a fault plan). Surfaces
    /// as `ENOMEM` on /proc address-space I/O.
    NoMemory {
        /// The address whose backing frame could not be allocated.
        addr: u64,
    },
}

impl AccessDenied {
    /// The faulting address, whatever the kind.
    pub fn addr(&self) -> u64 {
        match self {
            AccessDenied::Unmapped { addr }
            | AccessDenied::Protection { addr }
            | AccessDenied::Watch { addr, .. }
            | AccessDenied::NoMemory { addr } => *addr,
        }
    }
}
