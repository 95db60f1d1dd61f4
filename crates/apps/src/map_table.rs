//! Table 5: object-detection accuracy (mAP) vs E2E offloading latency.
//!
//! The paper measured, offline on the Argoverse dataset with Faster R-CNN
//! and an off-the-shelf local-tracking algorithm, the mAP achieved when the
//! edge result arrives N frame-times late (the tracker moves stale boxes
//! forward until the fresh result lands). Two columns: without and with
//! (lossy) frame compression.

/// mAP (%) per E2E-latency bin (bin i = latency in [i, i+1) frame times),
/// without compression. 30 bins (Table 5).
pub const MAP_NO_COMPRESSION: [f64; 30] = [
    38.45, 37.22, 36.04, 34.65, 33.36, 32.20, 31.08, 28.03, 27.01, 25.62, 25.77, 23.29, 22.75,
    22.48, 21.59, 20.59, 20.11, 19.53, 18.40, 18.01, 17.52, 16.96, 16.59, 15.41, 15.78, 15.86,
    14.81, 14.70, 14.44, 14.05,
];

/// mAP (%) per E2E-latency bin, with compression (lossy, slightly lower).
pub const MAP_WITH_COMPRESSION: [f64; 30] = [
    38.45, 36.14, 34.75, 33.12, 31.82, 30.50, 29.53, 26.99, 25.73, 25.21, 24.35, 22.44, 21.56,
    21.64, 21.16, 20.35, 19.69, 18.95, 17.61, 17.85, 17.00, 16.55, 15.97, 15.16, 14.94, 15.37,
    14.71, 13.77, 13.62, 13.70,
];

/// mAP (%) for an E2E latency expressed in *frame times*.
///
/// Latencies beyond the table's 30 bins clamp to the last bin — the
/// tracker's accuracy floor.
pub fn map_for_latency(frame_times: f64, compressed: bool) -> f64 {
    let table = if compressed {
        &MAP_WITH_COMPRESSION
    } else {
        &MAP_NO_COMPRESSION
    };
    let bin = (frame_times.max(0.0) as usize).min(table.len() - 1);
    table.get(bin).copied().unwrap_or(0.0)
}

/// mAP (%) for an E2E latency in ms at a given source frame rate.
pub(crate) fn map_for_latency_ms(e2e_ms: f64, fps: f64, compressed: bool) -> f64 {
    map_for_latency(e2e_ms / (1_000.0 / fps), compressed)
}

/// Render Table 5 as the paper prints it: one row per latency bin, both
/// columns.
pub fn render_table5() -> String {
    let mut s = String::from(
        "Table 5 — mAP vs E2E latency (frame times)\nbin   mAP w/o comp   mAP w/ comp\n",
    );
    let rows = MAP_NO_COMPRESSION.iter().zip(MAP_WITH_COMPRESSION.iter());
    for (i, (without, with)) in rows.enumerate() {
        s.push_str(&format!(
            "{:>2}-{:<2}   {:>8.2}      {:>8.2}\n",
            i,
            i + 1,
            without,
            with
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_30_bins() {
        assert_eq!(MAP_NO_COMPRESSION.len(), 30);
        assert_eq!(MAP_WITH_COMPRESSION.len(), 30);
    }

    #[test]
    fn first_bin_identical_across_columns() {
        // Within one frame time the result is fresh; compression loss has
        // not yet had a chance to matter (Table 5 row 0-1: 38.45 / 38.45).
        assert_eq!(MAP_NO_COMPRESSION[0], MAP_WITH_COMPRESSION[0]);
    }

    #[test]
    fn accuracy_broadly_decreasing() {
        // The table has small non-monotonic wiggles (measurement noise);
        // check the broad trend over 5-bin strides.
        for t in [&MAP_NO_COMPRESSION, &MAP_WITH_COMPRESSION] {
            for i in 0..(t.len() - 5) {
                assert!(t[i] > t[i + 5], "bin {i}");
            }
        }
    }

    #[test]
    fn lookup_bins_correctly() {
        assert_eq!(map_for_latency(0.5, false), 38.45);
        assert_eq!(map_for_latency(1.5, false), 37.22);
        assert_eq!(map_for_latency(6.4, true), 29.53);
    }

    #[test]
    fn clamps_beyond_table() {
        assert_eq!(map_for_latency(99.0, false), 14.05);
        assert_eq!(map_for_latency(-1.0, true), 38.45);
    }

    #[test]
    fn ms_conversion_at_30fps() {
        // 214 ms at 30 FPS = 6.42 frame times -> bin 6 (compressed: 29.53),
        // matching the paper's driving median mAP of ~30.1.
        let m = map_for_latency_ms(214.0, 30.0, true);
        assert_eq!(m, 29.53);
    }
}
