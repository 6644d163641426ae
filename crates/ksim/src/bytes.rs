//! Little-endian scalar extraction from length-validated byte slices.
//!
//! Callers have already bounds-checked their input (wire images, signal
//! frames, poll vectors, and in the `/proc` layer ioctl argument
//! buffers, status images and ctl messages); these helpers centralise
//! the slice-to-array step so the panic-free gate (`clippy::unwrap_used`)
//! holds without scattering manual array copies. Each panics if `b` is
//! shorter than the value it reads.

/// The first 8 bytes of `b` as a little-endian `u64`.
pub fn le_u64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// The first 4 bytes of `b` as a little-endian `u32`.
pub fn le_u32(b: &[u8]) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[..4]);
    u32::from_le_bytes(w)
}

/// The first 2 bytes of `b` as a little-endian `u16`.
pub fn le_u16(b: &[u8]) -> u16 {
    let mut w = [0u8; 2];
    w.copy_from_slice(&b[..2]);
    u16::from_le_bytes(w)
}
