//! # accl-resource — FPGA resource accounting (Table 3)
//!
//! A static cost model of FPGA resource consumption (CLB LUTs, DSP slices,
//! BRAM36 tiles, URAM tiles) for the ACCL+ components and the DLRM layers,
//! parameterized by the same configuration knobs as the simulation
//! (plugins enabled, POE choice, layer dimensions, decomposition degree).
//! Regenerates the utilization table of §6.3 against the Alveo U55C
//! device profile.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// A resource vector: LUTs (thousands), DSPs, BRAM36 tiles, URAM tiles.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Resources {
    /// CLB LUTs, in thousands.
    pub klut: f64,
    /// DSP48 slices.
    pub dsp: f64,
    /// BRAM36 tiles.
    pub bram: f64,
    /// URAM tiles.
    pub uram: f64,
}

impl Resources {
    /// Componentwise sum.
    #[allow(clippy::should_implement_trait)] // builder-style accumulation
    pub fn add(self, other: Resources) -> Resources {
        Resources {
            klut: self.klut + other.klut,
            dsp: self.dsp + other.dsp,
            bram: self.bram + other.bram,
            uram: self.uram + other.uram,
        }
    }

    /// Scales every component.
    pub fn scale(self, k: f64) -> Resources {
        Resources {
            klut: self.klut * k,
            dsp: self.dsp * k,
            bram: self.bram * k,
            uram: self.uram * k,
        }
    }

    /// Utilization percentages against a device.
    pub fn utilization(&self, device: &Device) -> Utilization {
        Utilization {
            lut_pct: 100.0 * self.klut / device.total.klut,
            dsp_pct: 100.0 * self.dsp / device.total.dsp,
            bram_pct: 100.0 * self.bram / device.total.bram,
            uram_pct: if device.total.uram > 0.0 {
                100.0 * self.uram / device.total.uram
            } else {
                0.0
            },
        }
    }
}

/// Utilization of a device, in percent (may exceed 100% for multi-FPGA
/// sums, as Table 3's DLRM FC1 row does).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// CLB LUT percentage.
    pub lut_pct: f64,
    /// DSP percentage.
    pub dsp_pct: f64,
    /// BRAM percentage.
    pub bram_pct: f64,
    /// URAM percentage.
    pub uram_pct: f64,
}

/// An FPGA device profile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Device {
    /// Device name.
    pub name: &'static str,
    /// Total resources.
    pub total: Resources,
}

impl Device {
    /// The Alveo U55C of the evaluation cluster (Table 3's 100% row).
    pub fn u55c() -> Device {
        Device {
            name: "Alveo U55C",
            total: Resources {
                klut: 1303.0,
                dsp: 9024.0,
                bram: 2016.0,
                uram: 960.0,
            },
        }
    }
}

/// Resource models of the ACCL+ subsystem components, calibrated to the
/// utilization reported in Table 3.
pub mod components {
    use super::Resources;

    /// The CCLO engine: uC + DMP + RBM + Tx/Rx systems + NoC.
    ///
    /// `with_reduction_plugins` adds the streaming arithmetic units; the
    /// paper notes they can be compiled out, "reducing resource consumption
    /// and improving routing and timing" (§6.1).
    pub fn cclo(with_reduction_plugins: bool, rx_buf_count: u32) -> Resources {
        let base = Resources {
            klut: 125.0,
            dsp: 96.0,
            bram: 98.0,
            uram: 0.0,
        };
        let plugins = if with_reduction_plugins {
            Resources {
                klut: 30.0,
                dsp: 48.0,
                bram: 8.0,
                uram: 0.0,
            }
        } else {
            Resources::default()
        };
        // Rx buffer bookkeeping grows with the pool (state, not storage —
        // the buffers themselves live in HBM).
        let rbm = Resources {
            klut: 0.2 * f64::from(rx_buf_count),
            dsp: 0.0,
            bram: 0.5 * f64::from(rx_buf_count),
            uram: 0.0,
        };
        base.add(plugins).add(rbm)
    }

    /// The hardware TCP POE: the most resource-intensive engine (session
    /// state, reassembly and retransmission buffers).
    pub fn tcp_poe(max_sessions: u32) -> Resources {
        Resources {
            klut: 218.0 + 0.04 * f64::from(max_sessions),
            dsp: 0.0,
            bram: 174.0 + 0.04 * f64::from(max_sessions),
            uram: 0.0,
        }
    }

    /// The Coyote RDMA POE.
    pub fn rdma_poe() -> Resources {
        Resources {
            klut: 169.0,
            dsp: 0.0,
            bram: 107.0,
            uram: 0.0,
        }
    }

    /// A DLRM fully-connected layer of `rows × cols` in 32-bit fixed
    /// point, decomposed over `fpgas` devices, with `table_mem_bytes` of
    /// embedding storage held in on-chip URAM alongside it.
    ///
    /// DSPs scale with the compute parallelism needed to sustain one
    /// inference per pipeline beat; URAM holds weights and small embedding
    /// tables (the paper's stated bottlenecks for DLRM, §6.3). Values
    /// represent the *sum across the decomposition*, so large layers exceed
    /// one device (Table 3's FC1 row).
    pub fn fc_layer(rows: usize, cols: usize, fpgas: u32, table_mem_bytes: u64) -> Resources {
        let macs = (rows * cols) as f64;
        // Parallelism calibrated so FC1 (2048×3200 over 8 FPGAs) lands at
        // Table 3's ~580% DSP / ~800% URAM.
        let dsp = macs / 125.0;
        let weight_bytes = macs * 4.0;
        // One URAM tile stores 288 Kib = 36 KiB.
        let uram_tiles = (weight_bytes + table_mem_bytes as f64) / (36.0 * 1024.0) / 9.5;
        let klut = 60.0 * f64::from(fpgas) + macs / 2_200.0;
        let bram = 55.0 * f64::from(fpgas) + macs / 2_000.0;
        Resources {
            klut,
            dsp,
            bram,
            uram: uram_tiles,
        }
    }
}

/// One row of a utilization report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportRow {
    /// Component name.
    pub component: String,
    /// Absolute resources.
    pub resources: Resources,
    /// Percent of the device (sums over multiple FPGAs may exceed 100%).
    pub utilization: Utilization,
}

/// Builds the Table 3 report for the paper's configuration.
pub fn table3_report(device: &Device) -> Vec<ReportRow> {
    let rows: Vec<(&str, Resources)> = vec![
        ("CCLO", components::cclo(true, 16)),
        ("TCP POE", components::tcp_poe(1000)),
        ("RDMA POE", components::rdma_poe()),
        // DLRM layers, summed across their decomposition (Table 2 model):
        // FC1 2048×3200 over 8 FPGAs with the distributed small tables,
        // FC2 2048→512 on one FPGA, FC3 512→256 on one FPGA.
        ("DLRM FC1", components::fc_layer(2048, 3200, 8, 2_560 << 20)),
        ("DLRM FC2", components::fc_layer(512, 2048, 1, 320 << 20)),
        ("DLRM FC3", components::fc_layer(256, 512, 1, 64 << 20)),
    ];
    rows.into_iter()
        .map(|(name, r)| ReportRow {
            component: name.to_string(),
            utilization: r.utilization(device),
            resources: r,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u55c_totals_match_table3_header() {
        let d = Device::u55c();
        assert_eq!(d.total.klut, 1303.0);
        assert_eq!(d.total.dsp, 9024.0);
        assert_eq!(d.total.bram, 2016.0);
        assert_eq!(d.total.uram, 960.0);
    }

    #[test]
    fn cclo_is_lighter_than_the_poes() {
        // Table 3: "the majority of resources are allocated to POEs, with
        // the TCP POE the most resource-intensive".
        let cclo = components::cclo(true, 16);
        let tcp = components::tcp_poe(1000);
        let rdma = components::rdma_poe();
        assert!(cclo.klut < rdma.klut && rdma.klut < tcp.klut);
        // BRAM: the TCP POE dominates (paper: 10.6% vs CCLO's 5.7% and
        // RDMA's 5.3%, the latter two nearly equal).
        assert!(cclo.bram < tcp.bram && rdma.bram < tcp.bram);
    }

    #[test]
    fn table3_magnitudes_match_paper() {
        let d = Device::u55c();
        let report = table3_report(&d);
        let get = |name: &str| -> Utilization {
            report
                .iter()
                .find(|r| r.component == name)
                .unwrap()
                .utilization
        };
        // Paper: CCLO 12.1% LUT / 1.6% DSP / 5.7% BRAM.
        let cclo = get("CCLO");
        assert!((10.0..15.0).contains(&cclo.lut_pct), "{cclo:?}");
        assert!((1.0..2.5).contains(&cclo.dsp_pct), "{cclo:?}");
        assert!((4.0..8.0).contains(&cclo.bram_pct), "{cclo:?}");
        // TCP POE 19.8% LUT / 10.6% BRAM.
        let tcp = get("TCP POE");
        assert!((17.0..23.0).contains(&tcp.lut_pct), "{tcp:?}");
        assert!((8.0..13.0).contains(&tcp.bram_pct), "{tcp:?}");
        // RDMA POE 13.0% LUT / 5.3% BRAM.
        let rdma = get("RDMA POE");
        assert!((11.0..15.0).contains(&rdma.lut_pct), "{rdma:?}");
        assert!((4.0..7.0).contains(&rdma.bram_pct), "{rdma:?}");
        // DLRM FC1 exceeds one device: ~580% DSP, ~800% URAM over 8 FPGAs.
        let fc1 = get("DLRM FC1");
        assert!(fc1.dsp_pct > 400.0 && fc1.dsp_pct < 700.0, "{fc1:?}");
        assert!(fc1.uram_pct > 600.0 && fc1.uram_pct <= 810.0, "{fc1:?}");
        // FC3 is small: single-digit LUT percentage.
        let fc3 = get("DLRM FC3");
        assert!(fc3.lut_pct < 10.0 && fc3.dsp_pct < 25.0, "{fc3:?}");
    }

    #[test]
    fn removing_plugins_saves_resources() {
        let with = components::cclo(true, 16);
        let without = components::cclo(false, 16);
        assert!(without.klut < with.klut);
        assert!(without.dsp < with.dsp);
    }

    #[test]
    fn utilization_arithmetic() {
        let d = Device::u55c();
        let half = Resources {
            klut: d.total.klut / 2.0,
            dsp: d.total.dsp / 2.0,
            bram: d.total.bram / 2.0,
            uram: d.total.uram / 2.0,
        };
        let u = half.utilization(&d);
        assert!((u.lut_pct - 50.0).abs() < 1e-9);
        assert!((u.uram_pct - 50.0).abs() < 1e-9);
        let double = half.add(half);
        assert!((double.utilization(&d).dsp_pct - 100.0).abs() < 1e-9);
        assert!((half.scale(2.0).utilization(&d).bram_pct - 100.0).abs() < 1e-9);
    }
}
