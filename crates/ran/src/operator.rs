//! The three major US operators and their strategic traits.
//!
//! §4.2 of the paper: *"Verizon has prioritized the deployment of 5G mmWave
//! (in downtown areas of major cities), while T-Mobile has focused on
//! expanding the coverage to larger geographical areas by prioritizing
//! low/mid-band deployments. In contrast, AT&T offers better 4G coverage (a
//! much larger percentage of LTE-A vs. LTE)."*

use std::fmt;

use wheels_radio::beam::BeamProfile;

/// A US mobile network operator in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum Operator {
    /// Verizon ("V" in the paper's tables).
    Verizon,
    /// T-Mobile ("T").
    TMobile,
    /// AT&T ("A").
    Att,
}

impl Operator {
    /// All three operators in the paper's presentation order.
    pub const ALL: [Operator; 3] = [Operator::Verizon, Operator::TMobile, Operator::Att];

    /// Full display name.
    pub fn label(self) -> &'static str {
        match self {
            Operator::Verizon => "Verizon",
            Operator::TMobile => "T-Mobile",
            Operator::Att => "AT&T",
        }
    }

    /// Single-letter code used in Table 1.
    pub fn code(self) -> char {
        match self {
            Operator::Verizon => 'V',
            Operator::TMobile => 'T',
            Operator::Att => 'A',
        }
    }

    /// The operator's mmWave beam profile (§5.5): Verizon uses fewer, wider
    /// beams (lower gain → lower logged RSRP); AT&T uses narrow beams.
    /// T-Mobile's mmWave footprint is negligible; give it the narrow
    /// profile for the rare samples.
    pub fn mmwave_beams(self) -> BeamProfile {
        match self {
            Operator::Verizon => BeamProfile::wide(),
            Operator::TMobile | Operator::Att => BeamProfile::narrow(),
        }
    }

    /// Whether Amazon Wavelength edge servers exist inside this operator's
    /// network (§3: only Verizon).
    pub fn has_edge_servers(self) -> bool {
        matches!(self, Operator::Verizon)
    }

    /// Stable machine-readable key used by scenario specs to select this
    /// operator slot.
    pub fn slot_key(self) -> &'static str {
        match self {
            Operator::Verizon => "verizon",
            Operator::TMobile => "tmobile",
            Operator::Att => "att",
        }
    }

    /// Resolve a scenario slot key back to the operator.
    pub fn from_slot(key: &str) -> Option<Operator> {
        Operator::ALL.into_iter().find(|op| op.slot_key() == key)
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_table1() {
        assert_eq!(Operator::Verizon.code(), 'V');
        assert_eq!(Operator::TMobile.code(), 'T');
        assert_eq!(Operator::Att.code(), 'A');
    }

    #[test]
    fn only_verizon_has_edge() {
        assert!(Operator::Verizon.has_edge_servers());
        assert!(!Operator::TMobile.has_edge_servers());
        assert!(!Operator::Att.has_edge_servers());
    }

    #[test]
    fn verizon_beams_wider_than_att() {
        assert!(
            Operator::Verizon.mmwave_beams().beamwidth_deg()
                > Operator::Att.mmwave_beams().beamwidth_deg()
        );
    }
}
