//! Shared stripe-geometry validation.
//!
//! Codec construction and every encode/reconstruct entry point funnel
//! through [`check_geometry`], so a geometry accepted once is accepted
//! everywhere with the same error text.

use crate::{RaidError, Result};

/// Largest `data + parity` total any code in this crate supports: the
/// Cauchy construction needs `k + m` distinct evaluation points in
/// GF(2⁸).
pub const MAX_TOTAL_SHARDS: usize = 256;

/// Largest data-shard count for codes whose coefficients are the distinct
/// powers `g⁰..g^{k−1}` (RAID-6's Q row, RS with m = 2).
pub const MAX_POWER_DATA_SHARDS: usize = 255;

/// Validates a `(data, parity)` stripe geometry.
///
/// - `data` must be ≥ 1 — `data = 1` is valid (mirroring, with parity);
/// - `parity = 0` is valid (plain striping, no fault tolerance);
/// - `parity = 1` places no further limit (XOR parity is field-free);
/// - `parity = 2` requires `data ≤ 255` (distinct `gⁱ` coefficients);
/// - `parity ≥ 3` requires `data + parity ≤ 256` (distinct Cauchy points).
pub fn check_geometry(data: usize, parity: usize) -> Result<()> {
    if data == 0 {
        return Err(RaidError::BadGeometry {
            detail: "stripe needs at least one data shard".into(),
        });
    }
    if parity == 2 && data > MAX_POWER_DATA_SHARDS {
        return Err(RaidError::BadGeometry {
            detail: format!(
                "dual parity supports at most {MAX_POWER_DATA_SHARDS} data shards"
            ),
        });
    }
    if parity >= 3 && data + parity > MAX_TOTAL_SHARDS {
        return Err(RaidError::BadGeometry {
            detail: format!(
                "RS({data},{parity}) exceeds {MAX_TOTAL_SHARDS} total shards"
            ),
        });
    }
    Ok(())
}

/// Validates that every shard fits within the stripe `width` (shards may
/// be shorter — they are logically zero-padded).
pub(crate) fn check_within_width(shards: &[&[u8]], width: usize) -> Result<()> {
    if shards.iter().any(|s| s.len() > width) {
        return Err(RaidError::BadGeometry {
            detail: format!("shard longer than stripe width {width}"),
        });
    }
    Ok(())
}

/// Validates that all shards share one length, returning it.
pub(crate) fn check_equal_lengths(shards: &[&[u8]]) -> Result<usize> {
    let len = shards.first().map_or(0, |s| s.len());
    if shards.iter().any(|s| s.len() != len) {
        return Err(RaidError::ShardLengthMismatch);
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_is_valid_for_every_parity_count() {
        // Regression: k = 1 used to be accepted by raid5 but the stripe
        // facade's wording differed; now one helper answers for all.
        for m in 0..=8 {
            assert!(check_geometry(1, m).is_ok(), "m={m}");
        }
    }

    #[test]
    fn m0_is_valid_striping() {
        // Regression: parity = 0 (RaidLevel::None) must pass for any k.
        for k in [1usize, 2, 255, 256, 1000] {
            assert!(check_geometry(k, 0).is_ok(), "k={k}");
        }
    }

    #[test]
    fn k0_rejected_uniformly() {
        for m in 0..=4 {
            assert!(matches!(
                check_geometry(0, m),
                Err(RaidError::BadGeometry { .. })
            ));
        }
    }

    #[test]
    fn field_limits_by_parity_count() {
        // m = 1: XOR, unlimited k.
        assert!(check_geometry(1000, 1).is_ok());
        // m = 2: distinct powers cap at 255 data shards.
        assert!(check_geometry(255, 2).is_ok());
        assert!(check_geometry(256, 2).is_err());
        // m ≥ 3: Cauchy cap at 256 total.
        assert!(check_geometry(252, 4).is_ok());
        assert!(check_geometry(253, 4).is_err());
    }

    #[test]
    fn width_and_length_helpers() {
        let a = [1u8, 2, 3];
        let b = [4u8];
        assert!(check_within_width(&[&a, &b], 3).is_ok());
        assert!(check_within_width(&[&a, &b], 2).is_err());
        assert_eq!(check_equal_lengths(&[&a, &a]).unwrap(), 3);
        assert_eq!(check_equal_lengths(&[]).unwrap(), 0);
        assert_eq!(
            check_equal_lengths(&[&a, &b]).unwrap_err(),
            RaidError::ShardLengthMismatch
        );
    }
}
