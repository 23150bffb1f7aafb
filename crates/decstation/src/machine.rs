//! Static facts about the measured machine, used for documentation,
//! sanity checks, and derived quantities.

/// Description of a workstation host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Machine {
    /// Marketing name.
    pub name: &'static str,
    /// CPU clock in MHz.
    pub cpu_mhz: u32,
    /// CPU microarchitecture.
    pub cpu: &'static str,
    /// I/O bus.
    pub bus: &'static str,
    /// VM page size in bytes (equals the mbuf cluster size).
    pub page_size: usize,
}

/// The paper's host: DECstation 5000/200, 25 MHz MIPS R3000,
/// TurboChannel, 4 KB pages.
pub const DECSTATION_5000_200: Machine = Machine {
    name: "DECstation 5000/200",
    cpu_mhz: 25,
    cpu: "MIPS R3000",
    bus: "TurboChannel",
    page_size: 4096,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_cluster_sized() {
        assert_eq!(DECSTATION_5000_200.page_size, 4096);
    }
}
