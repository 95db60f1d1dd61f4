//! Table 4: configurations for the AR and CAV applications, verbatim.
//!
//! | | AR | CAV |
//! |---|---|---|
//! | Frames per second (FPS) | 30 | 10 |
//! | Frame size (raw) | 450 KB | 2000 KB |
//! | Frame size (compressed) | 50 KB | 38 KB |
//! | Frame compression time | 6.3 ms | 34.8 ms |
//! | Server inference time (A100) | 24.9 ms | 44.0 ms |
//! | Frame decompression time | 1.0 ms | 19.1 ms |
//! | Duration of a run | 20 s | 20 s |
//!
//! The run length is not part of an app's configuration: a campaign runs
//! each AR/CAV session for its scenario's `app_offload_s` (20 s in the
//! paper), and [`render_table4`] prints the length it is given.

use serde::Serialize;

/// Configuration of one offloading app (one column of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OffloadConfig {
    /// Source frame rate, frames/second.
    pub fps: f64,
    /// Raw frame size, bytes.
    pub frame_raw_bytes: f64,
    /// Compressed frame size, bytes.
    pub frame_compressed_bytes: f64,
    /// Compression time, ms.
    pub compression_ms: f64,
    /// Server inference time on the A100, ms.
    pub inference_ms: f64,
    /// Decompression time (server side), ms.
    pub decompression_ms: f64,
}

impl OffloadConfig {
    /// Frame period, ms.
    pub fn frame_period_ms(&self) -> f64 {
        1_000.0 / self.fps
    }

    /// Bytes sent per frame given the compression setting.
    pub fn frame_bytes(&self, compressed: bool) -> f64 {
        if compressed {
            self.frame_compressed_bytes
        } else {
            self.frame_raw_bytes
        }
    }
}

/// The AR column of Table 4.
pub const AR_CONFIG: OffloadConfig = OffloadConfig {
    fps: 30.0,
    frame_raw_bytes: 450.0 * 1_024.0,
    frame_compressed_bytes: 50.0 * 1_024.0,
    compression_ms: 6.3,
    inference_ms: 24.9,
    decompression_ms: 1.0,
};

/// The CAV column of Table 4.
pub const CAV_CONFIG: OffloadConfig = OffloadConfig {
    fps: 10.0,
    frame_raw_bytes: 2_000.0 * 1_024.0,
    frame_compressed_bytes: 38.0 * 1_024.0,
    compression_ms: 34.8,
    inference_ms: 44.0,
    decompression_ms: 19.1,
};

/// Render Table 4 as the paper prints it, with `run_s` as the duration of
/// a run (both apps run for the same session length).
pub fn render_table4(run_s: f64) -> String {
    let (a, c) = (AR_CONFIG, CAV_CONFIG);
    format!(
        "{:<32}{:>10}{:>10}\n{:<32}{:>10}{:>10}\n{:<32}{:>9.0}KB{:>8.0}KB\n{:<32}{:>9.0}KB{:>8.0}KB\n{:<32}{:>8.1}ms{:>8.1}ms\n{:<32}{:>8.1}ms{:>8.1}ms\n{:<32}{:>8.1}ms{:>8.1}ms\n{:<32}{:>9.0}s{:>9.0}s\n",
        "", "AR", "CAV",
        "Frames per second (FPS)", a.fps, c.fps,
        "Frame size (raw)", a.frame_raw_bytes / 1_024.0, c.frame_raw_bytes / 1_024.0,
        "Frame size (compressed)", a.frame_compressed_bytes / 1_024.0, c.frame_compressed_bytes / 1_024.0,
        "Frame compression time", a.compression_ms, c.compression_ms,
        "Server inference time (A100)", a.inference_ms, c.inference_ms,
        "Frame decompression time", a.decompression_ms, c.decompression_ms,
        "Duration of a run", run_s, run_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values_verbatim() {
        assert_eq!(AR_CONFIG.fps, 30.0);
        assert_eq!(CAV_CONFIG.fps, 10.0);
        assert_eq!(AR_CONFIG.frame_raw_bytes, 460_800.0);
        assert_eq!(CAV_CONFIG.frame_raw_bytes, 2_048_000.0);
        assert_eq!(AR_CONFIG.compression_ms, 6.3);
        assert_eq!(CAV_CONFIG.inference_ms, 44.0);
        assert_eq!(CAV_CONFIG.decompression_ms, 19.1);
    }

    #[test]
    fn ar_frame_period_33ms() {
        assert!((AR_CONFIG.frame_period_ms() - 33.333).abs() < 0.01);
    }

    #[test]
    fn compression_shrinks_frames() {
        for c in [AR_CONFIG, CAV_CONFIG] {
            assert!(c.frame_bytes(true) < c.frame_bytes(false));
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let t = render_table4(20.0);
        assert!(t.contains("Frames per second"));
        assert!(t.contains("Server inference time"));
        assert!(t.contains("450KB") || t.contains("450 KB") || t.contains("  450KB"));
    }
}
