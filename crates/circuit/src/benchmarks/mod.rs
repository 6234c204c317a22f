//! The four benchmark circuits evaluated in the paper (Fig. 6).
//!
//! Each function returns a fully wired [`Circuit`] with the
//! matching groups a designer would enforce.  The topologies follow the
//! paper's schematics at the level of stages and device roles; see DESIGN.md
//! for the (documented) simplifications relative to the original contest
//! designs, which are not public.

mod ldo;
mod three_tia;
mod two_tia;
mod two_volt;

pub use ldo::low_dropout_regulator;
pub use three_tia::three_stage_tia;
pub use two_tia::two_stage_tia;
pub use two_volt::two_stage_voltage_amp;

use crate::Circuit;

/// Identifier of one of the paper's four benchmark circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Benchmark {
    /// Two-stage transimpedance amplifier ("Two-TIA").
    TwoStageTia,
    /// Two-stage voltage amplifier ("Two-Volt").
    TwoStageVoltageAmp,
    /// Three-stage transimpedance amplifier ("Three-TIA").
    ThreeStageTia,
    /// Low-dropout regulator ("LDO").
    Ldo,
}

impl Benchmark {
    /// All four benchmarks in the order the paper's tables list them.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::TwoStageTia,
        Benchmark::TwoStageVoltageAmp,
        Benchmark::ThreeStageTia,
        Benchmark::Ldo,
    ];

    /// The short name used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Benchmark::TwoStageTia => "Two-TIA",
            Benchmark::TwoStageVoltageAmp => "Two-Volt",
            Benchmark::ThreeStageTia => "Three-TIA",
            Benchmark::Ldo => "LDO",
        }
    }

    /// Builds the benchmark netlist.
    pub fn circuit(self) -> Circuit {
        match self {
            Benchmark::TwoStageTia => two_stage_tia(),
            Benchmark::TwoStageVoltageAmp => two_stage_voltage_amp(),
            Benchmark::ThreeStageTia => three_stage_tia(),
            Benchmark::Ldo => low_dropout_regulator(),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_are_connected() {
        for b in Benchmark::ALL {
            let c = b.circuit();
            assert!(c.num_components() >= 6, "{b} too small");
            let g = c.topology_graph();
            assert!(g.is_connected(), "{b} topology graph must be connected");
            // Seven GCN layers must give a global receptive field (paper Sec. III-D).
            assert!(
                g.diameter() <= 10,
                "{b} diameter {} exceeds 10",
                g.diameter()
            );
        }
    }

    #[test]
    fn paper_names_match_tables() {
        assert_eq!(Benchmark::TwoStageTia.paper_name(), "Two-TIA");
        assert_eq!(Benchmark::Ldo.to_string(), "LDO");
    }

    #[test]
    fn three_tia_is_larger_than_two_tia() {
        assert!(
            three_stage_tia().num_transistors() > two_stage_tia().num_transistors(),
            "the three-stage amplifier must have more devices"
        );
    }
}
