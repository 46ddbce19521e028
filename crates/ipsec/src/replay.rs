//! The anti-replay sliding window of RFC 4303 §3.4.3.
//!
//! A 64-bit bitmap tracks which of the last 64 sequence numbers were
//! seen. Packets older than the window or already seen are rejected;
//! newer packets slide the window forward.

/// Window size in sequence numbers.
pub const WINDOW_SIZE: u32 = 64;

/// Outcome of a replay check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Fresh sequence number; accepted.
    Ok,
    /// Duplicate within the window.
    Replayed,
    /// Older than the left edge of the window.
    TooOld,
    /// Sequence number zero is never valid in ESP.
    Zero,
}

/// Anti-replay state for one inbound SA.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayWindow {
    /// Highest sequence number accepted so far.
    top: u32,
    /// Bitmap of seen packets; bit 0 = `top`, bit n = `top - n`.
    bitmap: u64,
}

impl ReplayWindow {
    /// A fresh window (nothing seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Check `seq` without mutating (would it be accepted?).
    pub fn check(&self, seq: u32) -> ReplayVerdict {
        if seq == 0 {
            return ReplayVerdict::Zero;
        }
        if seq > self.top {
            return ReplayVerdict::Ok;
        }
        let offset = self.top - seq;
        if offset >= WINDOW_SIZE {
            return ReplayVerdict::TooOld;
        }
        if self.bitmap & (1u64 << offset) != 0 {
            ReplayVerdict::Replayed
        } else {
            ReplayVerdict::Ok
        }
    }

    /// Record `seq` after successful authentication. Must only be called
    /// when [`check`](Self::check) returned `Ok` *and* the ICV verified
    /// (RFC 4303 mandates updating the window only post-auth).
    pub fn update(&mut self, seq: u32) {
        debug_assert_eq!(self.check(seq), ReplayVerdict::Ok);
        if seq > self.top {
            let shift = seq - self.top;
            if shift >= WINDOW_SIZE {
                self.bitmap = 1; // only the new top is marked
            } else {
                self.bitmap = (self.bitmap << shift) | 1;
            }
            self.top = seq;
        } else {
            let offset = self.top - seq;
            self.bitmap |= 1u64 << offset;
        }
    }

    /// Highest accepted sequence number.
    pub fn top(&self) -> u32 {
        self.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_monotone_sequence() {
        let mut w = ReplayWindow::new();
        for seq in 1..=100 {
            assert_eq!(w.check(seq), ReplayVerdict::Ok, "seq {seq}");
            w.update(seq);
        }
        assert_eq!(w.top(), 100);
    }

    #[test]
    fn rejects_duplicates() {
        let mut w = ReplayWindow::new();
        w.update(5);
        assert_eq!(w.check(5), ReplayVerdict::Replayed);
        w.update(7);
        assert_eq!(w.check(5), ReplayVerdict::Replayed);
        assert_eq!(w.check(7), ReplayVerdict::Replayed);
        assert_eq!(w.check(6), ReplayVerdict::Ok);
    }

    #[test]
    fn rejects_zero_and_too_old() {
        let mut w = ReplayWindow::new();
        assert_eq!(w.check(0), ReplayVerdict::Zero);
        w.update(100);
        assert_eq!(w.check(100 - WINDOW_SIZE), ReplayVerdict::TooOld);
        assert_eq!(w.check(100 - WINDOW_SIZE + 1), ReplayVerdict::Ok);
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = ReplayWindow::new();
        w.update(10);
        w.update(8);
        w.update(9);
        assert_eq!(w.check(8), ReplayVerdict::Replayed);
        assert_eq!(w.check(9), ReplayVerdict::Replayed);
        assert_eq!(w.check(7), ReplayVerdict::Ok);
        assert_eq!(w.top(), 10);
    }

    #[test]
    fn big_jump_resets_bitmap() {
        let mut w = ReplayWindow::new();
        w.update(1);
        w.update(1000);
        assert_eq!(w.check(1000), ReplayVerdict::Replayed);
        // 999 was never seen and is within the window of 1000.
        assert_eq!(w.check(999), ReplayVerdict::Ok);
        // 1 is far outside the window now.
        assert_eq!(w.check(1), ReplayVerdict::TooOld);
    }

    #[test]
    fn window_edge_exact() {
        let mut w = ReplayWindow::new();
        w.update(WINDOW_SIZE + 1); // top = 65, window covers 2..=65
        assert_eq!(w.check(2), ReplayVerdict::Ok);
        assert_eq!(w.check(1), ReplayVerdict::TooOld);
        w.update(2);
        assert_eq!(w.check(2), ReplayVerdict::Replayed);
    }
}
