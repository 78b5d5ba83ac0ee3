//! A small on-die SRAM buffer.
//!
//! Iridium's logic die needs somewhere DRAM-fast to hold packet buffers
//! and transient kernel data — programming NAND pages per packet would be
//! absurd. The paper leaves this implicit; we model a flat-latency SRAM
//! region on the logic die (documented as a substitution in DESIGN.md).
//! Mercury needs no such buffer: its DRAM plays both roles.

use densekv_sim::Duration;

use crate::{AccessKind, MemoryTiming, LINE_BYTES};

/// A flat-latency on-die buffer RAM.
///
/// # Examples
///
/// ```
/// use densekv_mem::sram::SramBuffer;
/// use densekv_mem::{AccessKind, MemoryTiming};
/// use densekv_sim::Duration;
///
/// let mut sram = SramBuffer::on_die();
/// assert_eq!(sram.line_access(0, AccessKind::Write), Duration::from_nanos(100));
/// assert_eq!(sram.bytes_moved(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SramBuffer {
    latency: Duration,
    bytes_moved: u64,
    mw_per_gbps: f64,
}

impl SramBuffer {
    /// The Iridium logic-die buffer: 100 ns per line, cheap to drive.
    pub fn on_die() -> Self {
        SramBuffer {
            latency: Duration::from_nanos(100),
            bytes_moved: 0,
            mw_per_gbps: 20.0,
        }
    }

    /// A buffer with an explicit access latency.
    pub fn with_latency(latency: Duration) -> Self {
        SramBuffer {
            latency,
            ..SramBuffer::on_die()
        }
    }
}

impl MemoryTiming for SramBuffer {
    fn line_access(&mut self, _line_addr: u64, _kind: AccessKind) -> Duration {
        self.bytes_moved += LINE_BYTES;
        self.latency
    }

    fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    fn reset_counters(&mut self) {
        self.bytes_moved = 0;
    }

    fn active_power_w(&self, gb_per_s: f64) -> f64 {
        self.mw_per_gbps * gb_per_s / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_latency_both_directions() {
        let mut s = SramBuffer::on_die();
        let r = s.line_access(5, AccessKind::Read);
        let w = s.line_access(5, AccessKind::Write);
        assert_eq!(r, w);
        assert_eq!(s.bytes_moved(), 128);
        s.reset_counters();
        assert_eq!(s.bytes_moved(), 0);
    }

    #[test]
    fn custom_latency() {
        let mut s = SramBuffer::with_latency(Duration::from_nanos(5));
        assert_eq!(s.line_access(0, AccessKind::Read), Duration::from_nanos(5));
    }

    #[test]
    fn much_faster_than_flash() {
        let mut s = SramBuffer::on_die();
        let mut f = crate::flash::FlashArray::new(crate::flash::FlashConfig::default());
        assert!(s.line_access(0, AccessKind::Write) * 100 < f.line_access(0, AccessKind::Write));
    }
}
