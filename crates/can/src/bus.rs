//! Bus-level timing: transmission times and arbitration analysis.

use hem_analysis::{
    spnp, AnalysisConfig, AnalysisError, AnalysisTask, Priority, ResponseTime, TaskResult,
};
use hem_event_models::ModelRef;
use hem_time::Time;

use crate::frame::CanFrameConfig;

/// Bus-wide timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanBusConfig {
    /// Duration of one bit on the wire, in ticks.
    pub bit_time: Time,
}

impl CanBusConfig {
    /// Creates a bus configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bit_time < 1`.
    #[must_use]
    pub fn new(bit_time: Time) -> Self {
        assert!(bit_time >= Time::ONE, "bit time must be at least one tick");
        CanBusConfig { bit_time }
    }

    /// The `[C⁻, C⁺]` transmission-time interval of a frame on this bus.
    #[must_use]
    pub fn transmission_time(&self, frame: &CanFrameConfig) -> ResponseTime {
        ResponseTime::new(
            self.bit_time * frame.best_case_bits() as i64,
            self.bit_time * frame.worst_case_bits() as i64,
        )
    }
}

/// A frame queued on the bus: wire format, arbitration priority, and the
/// activating (frame-trigger) event stream.
#[derive(Debug, Clone)]
pub struct BusFrame {
    /// Frame name, reported in analysis results.
    pub name: String,
    /// Wire format (payload length, identifier format).
    pub config: CanFrameConfig,
    /// Arbitration priority (lower = wins, like CAN identifiers).
    pub priority: Priority,
    /// The frame-activation event stream (for a HEM-packed frame: the
    /// hierarchy's *outer* stream).
    pub input: ModelRef,
}

impl BusFrame {
    /// Creates a bus frame description.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        config: CanFrameConfig,
        priority: Priority,
        input: ModelRef,
    ) -> Self {
        BusFrame {
            name: name.into(),
            config,
            priority,
            input,
        }
    }

    /// Lowers the frame to a generic [`AnalysisTask`] on the given bus.
    #[must_use]
    pub fn to_analysis_task(&self, bus: &CanBusConfig) -> AnalysisTask {
        let t = bus.transmission_time(&self.config);
        AnalysisTask::new(
            self.name.clone(),
            t.r_minus,
            t.r_plus,
            self.priority,
            self.input.clone(),
        )
    }
}

/// Analyses all frames on a CAN bus (SPNP arbitration).
///
/// Returns per-frame worst-case response times in input order; these are
/// the `[r⁻, r⁺]` intervals fed to the HEM transport step
/// (`HierarchicalEventModel::process`).
///
/// # Errors
///
/// Propagates [`AnalysisError`] from the underlying SPNP analysis
/// (duplicate priorities, bus overload).
pub fn analyze(
    frames: &[BusFrame],
    bus: &CanBusConfig,
    config: &AnalysisConfig,
) -> Result<Vec<TaskResult>, AnalysisError> {
    let tasks: Vec<AnalysisTask> = frames.iter().map(|f| f.to_analysis_task(bus)).collect();
    spnp::analyze(&tasks, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameFormat;
    use hem_event_models::{EventModelExt, StandardEventModel};

    fn frame(name: &str, payload: u8, prio: u32, period: i64) -> BusFrame {
        BusFrame::new(
            name,
            CanFrameConfig::new(FrameFormat::Standard, payload).unwrap(),
            Priority::new(prio),
            StandardEventModel::periodic(Time::new(period))
                .unwrap()
                .shared(),
        )
    }

    #[test]
    fn transmission_times_scale_with_bit_time() {
        let cfg = CanFrameConfig::new(FrameFormat::Standard, 4).unwrap();
        let slow = CanBusConfig::new(Time::new(2));
        let t = slow.transmission_time(&cfg);
        assert_eq!(t.r_plus, Time::new(2 * 95));
        assert_eq!(t.r_minus, Time::new(2 * 79));
    }

    #[test]
    fn two_frame_bus_analysis() {
        let bus = CanBusConfig::new(Time::new(1));
        let frames = vec![frame("f1", 4, 1, 250), frame("f2", 2, 2, 400)];
        let r = analyze(&frames, &bus, &AnalysisConfig::default()).unwrap();
        // f1 (95 bits): blocked by f2's 75-bit transmission → 75 + 95.
        assert_eq!(r[0].response.r_plus, Time::new(170));
        // f2 (75 bits): one f1 interference → 95 + 75.
        assert_eq!(r[1].response.r_plus, Time::new(170));
        // Best cases are the unstuffed transmissions.
        assert_eq!(r[0].response.r_minus, Time::new(79));
        assert_eq!(r[1].response.r_minus, Time::new(63));
    }

    #[test]
    fn duplicate_identifiers_rejected() {
        let bus = CanBusConfig::new(Time::new(1));
        let frames = vec![frame("a", 1, 3, 100), frame("b", 1, 3, 100)];
        assert!(analyze(&frames, &bus, &AnalysisConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "bit time")]
    fn zero_bit_time_rejected() {
        let _ = CanBusConfig::new(Time::ZERO);
    }

    #[test]
    fn to_analysis_task_carries_fields() {
        let bus = CanBusConfig::new(Time::new(1));
        let f = frame("x", 8, 5, 500);
        let t = f.to_analysis_task(&bus);
        assert_eq!(t.name, "x");
        assert_eq!(t.wcet, Time::new(135));
        assert_eq!(t.bcet, Time::new(111));
        assert_eq!(t.priority, Priority::new(5));
    }
}
