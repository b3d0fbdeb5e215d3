//! The adaptive FRF controller: epoch-based phase detection driving the
//! FinFET back-gate mode signal (§IV-C).
//!
//! Every 50 cycles a 9-bit counter of issued instructions is compared
//! against a threshold (85 of the 400 possible issue slots ≈ 20%); when the
//! SM is in a low-compute phase, the *next* epoch runs the FRF in low-power
//! mode (back gate grounded, 2-cycle access, 5.25 pJ) instead of high-power
//! mode (1-cycle, 7.65 pJ).

/// FRF power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrfMode {
    /// Back gate at Vdd: 1-cycle access.
    #[default]
    High,
    /// Back gate grounded: 2-cycle access, reduced dynamic energy.
    Low,
}

impl std::fmt::Display for FrfMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrfMode::High => "FRF_high",
            FrfMode::Low => "FRF_low",
        })
    }
}

/// Configuration of the epoch detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveFrfConfig {
    /// Epoch length in cycles (the paper uses 50 and shows insensitivity
    /// in §V-C).
    pub epoch_length: u64,
    /// Low-compute threshold in issued instructions per epoch (85 for a
    /// 50-cycle epoch on an 8-issue SM — 20% of the 400 issue slots).
    pub threshold: u32,
}

impl AdaptiveFrfConfig {
    /// The paper's design point: 50-cycle epochs, threshold 85.
    pub fn paper_default() -> Self {
        AdaptiveFrfConfig {
            epoch_length: 50,
            threshold: 85,
        }
    }

    /// A config with the same 20% threshold *ratio* at a different epoch
    /// length (used by the epoch-length sensitivity study, §V-C).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_length` is zero, or if the epoch's issue-slot
    /// count (`epoch_length * issue_width`) does not fit the u32 hardware
    /// threshold counter — `epoch_length as u32` used to truncate here
    /// silently, deriving a nonsense threshold for large sweep points.
    pub fn with_epoch(epoch_length: u64, issue_width: u32) -> Self {
        assert!(epoch_length > 0, "epoch length must be positive");
        let slots = epoch_length
            .checked_mul(u64::from(issue_width))
            .expect("epoch_length * issue_width overflows u64");
        // slots/5 + slots*5/400, with the second term reduced to slots/80
        // (identical for integers) so the intermediate cannot overflow.
        let threshold = slots / 5 + slots / 80;
        let threshold = u32::try_from(threshold).unwrap_or_else(|_| {
            panic!(
                "epoch of {epoch_length} cycles x {issue_width}-issue gives a \
                 threshold of {threshold} slots, which exceeds the u32 \
                 threshold counter"
            )
        });
        AdaptiveFrfConfig {
            epoch_length,
            threshold,
        }
    }
}

impl Default for AdaptiveFrfConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The runtime controller. One per SM, as in the paper.
#[derive(Debug, Clone)]
pub struct AdaptiveFrf {
    config: AdaptiveFrfConfig,
    /// 9-bit issue counter (saturates at 511, like the hardware counter).
    count: u32,
    cycles_in_epoch: u64,
    mode: FrfMode,
    /// Epochs spent in each mode (telemetry).
    pub high_epochs: u64,
    /// Epochs spent in low mode (telemetry).
    pub low_epochs: u64,
}

/// Saturation limit of the 9-bit hardware counter.
const COUNTER_MAX: u32 = 511;

impl AdaptiveFrf {
    /// Creates a controller starting in high-power mode.
    pub fn new(config: AdaptiveFrfConfig) -> Self {
        AdaptiveFrf {
            config,
            count: 0,
            cycles_in_epoch: 0,
            mode: FrfMode::High,
            high_epochs: 0,
            low_epochs: 0,
        }
    }

    /// Current FRF mode.
    pub fn mode(&self) -> FrfMode {
        self.mode
    }

    /// Advances one cycle in which `issued` instructions were issued.
    /// At an epoch boundary the mode for the next epoch is chosen; returns
    /// true on that cycle, the only one that changes the epoch counters.
    pub fn tick(&mut self, issued: u32) -> bool {
        self.count = (self.count + issued).min(COUNTER_MAX);
        self.cycles_in_epoch += 1;
        if self.cycles_in_epoch >= self.config.epoch_length {
            match self.mode {
                FrfMode::High => self.high_epochs += 1,
                FrfMode::Low => self.low_epochs += 1,
            }
            self.mode = if self.count < self.config.threshold {
                FrfMode::Low
            } else {
                FrfMode::High
            };
            self.count = 0;
            self.cycles_in_epoch = 0;
            return true;
        }
        false
    }

    /// Restarts phase detection (kernel launch).
    pub fn reset(&mut self) {
        self.count = 0;
        self.cycles_in_epoch = 0;
        self.mode = FrfMode::High;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_85_of_400() {
        let c = AdaptiveFrfConfig::paper_default();
        assert_eq!(c.epoch_length, 50);
        assert_eq!(c.threshold, 85);
    }

    #[test]
    fn with_epoch_preserves_ratio() {
        // 100-cycle epoch, 8-issue: 800 slots -> 20% + the same 85/400
        // rounding the paper uses: 160 + 10 = 170.
        let c = AdaptiveFrfConfig::with_epoch(100, 8);
        assert_eq!(c.epoch_length, 100);
        assert_eq!(c.threshold, 170);
        // 50-cycle epoch recovers the paper threshold.
        assert_eq!(AdaptiveFrfConfig::with_epoch(50, 8).threshold, 85);
    }

    #[test]
    fn with_epoch_handles_large_epochs_without_truncation() {
        // Regression: `epoch_length as u32 * issue_width` truncated the
        // epoch length, so epochs beyond u32::MAX slots got tiny (or
        // wrapped) thresholds. 2^29 cycles x 8-issue = 2^32 slots is
        // exactly the first point the old arithmetic destroyed.
        let epoch = 1u64 << 29;
        let c = AdaptiveFrfConfig::with_epoch(epoch, 8);
        let slots = epoch * 8;
        assert_eq!(u64::from(c.threshold), slots / 5 + slots / 80);
    }

    #[test]
    #[should_panic(expected = "u32 threshold counter")]
    fn with_epoch_rejects_epochs_beyond_the_hardware_counter() {
        // 2^32 cycles x 8-issue wants a ~915M-slot threshold x 8 — over
        // u32::MAX; the old code silently truncated instead of panicking.
        AdaptiveFrfConfig::with_epoch(1u64 << 34, 8);
    }

    #[test]
    fn busy_epochs_stay_high() {
        let mut a = AdaptiveFrf::new(AdaptiveFrfConfig::paper_default());
        for _ in 0..50 {
            a.tick(4); // 200 issued >= 85
        }
        assert_eq!(a.mode(), FrfMode::High);
        assert_eq!(a.high_epochs, 1);
        assert_eq!(a.low_epochs, 0);
    }

    #[test]
    fn idle_epoch_switches_to_low_next_epoch() {
        let mut a = AdaptiveFrf::new(AdaptiveFrfConfig::paper_default());
        for i in 0..49 {
            a.tick(1);
            assert_eq!(
                a.mode(),
                FrfMode::High,
                "mode holds within epoch (cycle {i})"
            );
        }
        a.tick(1); // epoch ends with 50 < 85
        assert_eq!(a.mode(), FrfMode::Low, "next epoch runs in low mode");
    }

    #[test]
    fn tick_reports_only_the_epoch_closing_cycle() {
        let mut a = AdaptiveFrf::new(AdaptiveFrfConfig::paper_default());
        for _ in 0..2 {
            for _ in 0..49 {
                assert!(!a.tick(1));
            }
            assert!(a.tick(1));
        }
        assert_eq!((a.high_epochs, a.low_epochs), (1, 1));
    }

    #[test]
    fn recovers_to_high_when_busy_resumes() {
        let mut a = AdaptiveFrf::new(AdaptiveFrfConfig::paper_default());
        for _ in 0..50 {
            a.tick(0);
        }
        assert_eq!(a.mode(), FrfMode::Low);
        for _ in 0..50 {
            a.tick(8);
        }
        assert_eq!(a.mode(), FrfMode::High);
        assert_eq!(a.low_epochs, 1);
        assert_eq!(a.high_epochs, 1);
    }

    #[test]
    fn counter_saturates_at_9_bits() {
        let mut a = AdaptiveFrf::new(AdaptiveFrfConfig {
            epoch_length: 100,
            threshold: 600,
        });
        for _ in 0..100 {
            a.tick(8); // raw total 800, saturates at 511
        }
        // 511 < 600 -> low: proves saturation happened (800 would be high).
        assert_eq!(a.mode(), FrfMode::Low);
    }

    #[test]
    fn reset_restores_high_mode() {
        let mut a = AdaptiveFrf::new(AdaptiveFrfConfig::paper_default());
        for _ in 0..50 {
            a.tick(0);
        }
        assert_eq!(a.mode(), FrfMode::Low);
        a.reset();
        assert_eq!(a.mode(), FrfMode::High);
    }

    #[test]
    fn display_names() {
        assert_eq!(FrfMode::High.to_string(), "FRF_high");
        assert_eq!(FrfMode::Low.to_string(), "FRF_low");
    }
}
