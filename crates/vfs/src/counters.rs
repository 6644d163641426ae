//! Counter families, declared once.
//!
//! Every stats-style `PIOC*` reply is a family of `u64` counters sent as
//! little-endian words in declaration order. [`counters!`](crate::counters)
//! turns one field list into the struct, its counter names and its wire
//! codec, so a family's layout is written down in exactly one place and
//! a renderer can walk any family by zipping `NAMES` with `values()`.

/// Declares a counter family from one list of field names:
///
/// ```text
/// vfs::counters! {
///     /// Snapshot-cache counters.
///     pub struct PrCacheStats {
///         /// Renders served from cache.
///         hits,
///         ...
///     }
/// }
/// ```
///
/// The struct gets one `pub u64` field per name (doc comments kept) and
/// derives `Clone, Copy, Debug, Default, PartialEq, Eq`. Its inherent
/// impl gets:
///
/// * `NAMES`: the field names, in wire order;
/// * `WIRE_LEN`: eight bytes per counter;
/// * `values()`: the counters, in wire order;
/// * `to_bytes()`: the little-endian wire image;
/// * `from_bytes()`: the inverse, `None` unless given exactly
///   `WIRE_LEN` bytes.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )*
        }

        impl $name {
            /// Counter names, in wire order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Encoded length: one little-endian `u64` per counter.
            pub const WIRE_LEN: usize = 8 * $name::NAMES.len();

            /// Every counter, in wire order.
            pub fn values(&self) -> [u64; $name::NAMES.len()] {
                [$(self.$field),*]
            }

            /// Serialises to the little-endian wire image.
            pub fn to_bytes(&self) -> Vec<u8> {
                self.values().iter().flat_map(|v| v.to_le_bytes()).collect()
            }

            /// Deserialises a wire image; `None` unless `b` is exactly
            /// [`Self::WIRE_LEN`] bytes.
            pub fn from_bytes(b: &[u8]) -> Option<$name> {
                if b.len() != $name::WIRE_LEN {
                    return None;
                }
                let mut words = b
                    .chunks_exact(8)
                    .map(|w| <[u8; 8]>::try_from(w).map(u64::from_le_bytes));
                Some($name { $($field: words.next()?.ok()?,)* })
            }
        }
    };
}
