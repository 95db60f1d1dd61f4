//! Modulation-and-coding-scheme selection and spectral efficiency.
//!
//! The XCAL logs report the primary cell's MCS index per 500 ms interval,
//! which the paper correlates against throughput (Table 2). We use the
//! 3GPP NR 256-QAM MCS table (TS 38.214 Table 5.1.3.1-2) efficiencies and a
//! standard ~1.26 dB/step SINR-to-MCS link adaptation map.

/// Highest MCS index (256-QAM table has 28 entries, 0..=27).
pub const MAX_MCS: u8 = 27;

/// Spectral efficiency per MCS index, bits/s/Hz per layer
/// (TS 38.214 Table 5.1.3.1-2, Qm·R/1024).
const EFFICIENCY: [f64; MAX_MCS as usize + 1] = [
    0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.6953, 1.9141, 2.1602, 2.4063, 2.5703, 2.7305,
    3.0293, 3.3223, 3.6094, 3.9023, 4.2129, 4.5234, 4.8164, 5.1152, 5.3320, 5.5547, 5.8906, 6.2266,
    6.5703, 6.9141, 7.1602, 7.4063,
];

/// Implementation gap from Shannon capacity, dB. Real link adaptation
/// operates ~3 dB from the bound.
const SHANNON_GAP_DB: f64 = 3.0;

/// The gapped Shannon bound at `sinr_db`, bits/s/Hz: the spectral
/// efficiency ceiling both MCS selection and capacity clamp against.
/// Real link adaptation operates ~3 dB from the bound; picking the MCS
/// under it guarantees the resulting capacity never exceeds physics,
/// which linear dB-per-step maps violate at low SINR.
pub(crate) fn gapped_shannon_bound(sinr_db: f64) -> f64 {
    let snr_lin = 10f64.powf((sinr_db - SHANNON_GAP_DB) / 10.0);
    (1.0 + snr_lin).log2()
}

/// Largest MCS whose spectral efficiency fits under a precomputed gapped
/// Shannon bound (see [`gapped_shannon_bound`]).
pub(crate) fn mcs_from_bound(bound: f64) -> u8 {
    // EFFICIENCY is strictly increasing, so the last entry `<= bound` sits
    // just before the partition point.
    match EFFICIENCY.partition_point(|&e| e <= bound) {
        0 => 0,
        i => (i - 1) as u8,
    }
}

/// Spectral efficiency of an MCS index, bits/s/Hz per spatial layer.
///
/// # Panics
/// Panics if `mcs > MAX_MCS` — MCS indices are produced by
/// `mcs_from_bound`, so an out-of-range index is a programming error.
pub fn spectral_efficiency(mcs: u8) -> f64 {
    EFFICIENCY[mcs as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The MCS link adaptation picks at `sinr_db`.
    fn mcs_from_sinr(sinr_db: f64) -> u8 {
        mcs_from_bound(gapped_shannon_bound(sinr_db))
    }

    #[test]
    fn efficiency_monotone() {
        for m in 1..=MAX_MCS {
            assert!(spectral_efficiency(m) > spectral_efficiency(m - 1));
        }
    }

    #[test]
    fn mcs_monotone_in_sinr() {
        let mut last = 0;
        for s in -15..35 {
            let m = mcs_from_sinr(s as f64);
            assert!(m >= last);
            last = m;
        }
    }

    #[test]
    fn mcs_clamps() {
        assert_eq!(mcs_from_sinr(-40.0), 0);
        assert_eq!(mcs_from_sinr(60.0), MAX_MCS);
    }

    #[test]
    fn midrange_sinr_gives_midrange_mcs() {
        let m = mcs_from_sinr(10.0);
        assert!((10..=17).contains(&m), "{m}");
    }

    #[test]
    fn peak_efficiency_is_256qam() {
        assert!((spectral_efficiency(MAX_MCS) - 7.4063).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_mcs_panics() {
        let _ = spectral_efficiency(MAX_MCS + 1);
    }
}
