//! GPU types and cross-type normalisation.
//!
//! The paper's production environment uses Tesla V100 (32 GB) in the training
//! cluster and T4 (16 GB) in the inference cluster (§2.1, §7.1). Capacity
//! loaning makes the training scheduler face a heterogeneous pool, so
//! on-loan GPUs are *normalised* relative to training GPUs when calculating
//! resource capacity (§5.2). Lyra's testbed observation (§7.5) is that
//! roughly three loaned T4 servers match one V100 training server in
//! computational capability, which fixes the default normalisation factor at
//! 1/3.

use serde::{Deserialize, Serialize};

/// The kind of accelerator installed in a server.
///
/// Only the two types that appear in the paper's clusters are modelled; the
/// [`GpuSpec`] table makes it easy to register more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GpuType {
    /// Nvidia Tesla V100, 32 GB — the training-cluster GPU.
    V100,
    /// Nvidia T4, 16 GB — the inference-cluster GPU.
    T4,
}

impl GpuType {
    /// Returns the static specification of this GPU type.
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuType::V100 => GpuSpec {
                gpu_type: GpuType::V100,
                memory_gb: 32,
                // Reference device: one V100 delivers one unit of training
                // throughput per worker-second.
                capability: 1.0,
            },
            GpuType::T4 => GpuSpec {
                gpu_type: GpuType::T4,
                memory_gb: 16,
                // Three T4 servers ≈ one V100 server (§7.5).
                capability: 1.0 / 3.0,
            },
        }
    }

    /// Training-throughput capability relative to a V100.
    pub fn capability(self) -> f64 {
        self.spec().capability
    }

    /// Device memory in gigabytes.
    pub fn memory_gb(self) -> u32 {
        self.spec().memory_gb
    }

    /// How many workers a job sized for `reference` needs per original worker
    /// when it runs on `self`, keeping the global batch size fixed.
    ///
    /// Fungible jobs moved onto smaller inference GPUs must shrink their
    /// local batch size to fit model plus intermediate data into memory and
    /// compensate with more workers so the global batch size — and hence
    /// model quality — is unchanged (§2.1). The factor is the memory ratio,
    /// rounded up.
    ///
    /// # Examples
    ///
    /// ```
    /// use lyra_core::GpuType;
    /// // A V100-sized worker needs two T4 workers (32 GB / 16 GB).
    /// assert_eq!(GpuType::T4.worker_multiplier(GpuType::V100), 2);
    /// assert_eq!(GpuType::V100.worker_multiplier(GpuType::V100), 1);
    /// ```
    pub fn worker_multiplier(self, reference: GpuType) -> u32 {
        let need = reference.memory_gb();
        let have = self.memory_gb();
        need.div_ceil(have).max(1)
    }
}

/// Per-generation speed multipliers layered on top of the static
/// capability table.
///
/// The paper's clusters hold exactly one V100 and one T4 generation, but
/// real fleets mix hardware refreshes: an A100 refresh of the training
/// pool or a newer inference part changes per-type throughput without
/// changing the memory-driven worker multiplier. A `SpeedFactors` value
/// scales each type's [`GpuType::capability`] uniformly across the
/// cluster; `1.0` everywhere reproduces the paper's environment exactly.
///
/// # Examples
///
/// ```
/// use lyra_core::gpu::{GpuType, SpeedFactors};
/// let refresh = SpeedFactors { v100: 1.5, t4: 1.0 };
/// assert_eq!(refresh.factor(GpuType::V100), 1.5);
/// assert_eq!(SpeedFactors::default().factor(GpuType::T4), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedFactors {
    /// Multiplier applied to every V100's capability.
    pub v100: f64,
    /// Multiplier applied to every T4's capability.
    pub t4: f64,
}

impl Default for SpeedFactors {
    fn default() -> Self {
        SpeedFactors { v100: 1.0, t4: 1.0 }
    }
}

impl SpeedFactors {
    /// The multiplier for one GPU type.
    pub fn factor(self, ty: GpuType) -> f64 {
        match ty {
            GpuType::V100 => self.v100,
            GpuType::T4 => self.t4,
        }
    }

    /// Checks that every factor is finite and strictly positive.
    ///
    /// # Errors
    ///
    /// Returns the offending type and value otherwise; a zero or negative
    /// factor would silently stall every job on that hardware.
    pub fn validate(self) -> Result<(), (GpuType, f64)> {
        for ty in [GpuType::V100, GpuType::T4] {
            let f = self.factor(ty);
            if !f.is_finite() || f <= 0.0 {
                return Err((ty, f));
            }
        }
        Ok(())
    }
}

/// Static description of a GPU model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Which model this spec describes.
    pub gpu_type: GpuType,
    /// Device memory in gigabytes.
    pub memory_gb: u32,
    /// Training throughput per worker relative to a V100 worker.
    pub capability: f64,
}

/// Normalises a mixed pool of free GPUs into V100-equivalent capacity.
///
/// Used by the allocator when sizing phase-2 knapsack capacity over a pool
/// that contains on-loan inference GPUs (§5.2: "The on-loan inference GPUs
/// are normalized relative to training GPUs when calculating the resource
/// capacity").
///
/// # Examples
///
/// ```
/// use lyra_core::gpu::{normalized_capacity, GpuType};
/// let cap = normalized_capacity(&[(GpuType::V100, 8), (GpuType::T4, 9)]);
/// assert!((cap - 11.0).abs() < 1e-9); // 8 + 9/3
/// ```
pub fn normalized_capacity(free: &[(GpuType, u32)]) -> f64 {
    free.iter()
        .map(|&(ty, n)| f64::from(n) * ty.capability())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_is_reference_device() {
        assert_eq!(GpuType::V100.capability(), 1.0);
        assert_eq!(GpuType::V100.memory_gb(), 32);
    }

    #[test]
    fn t4_is_one_third_of_v100() {
        assert!((GpuType::T4.capability() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(GpuType::T4.memory_gb(), 16);
    }

    #[test]
    fn worker_multiplier_matches_memory_ratio() {
        assert_eq!(GpuType::T4.worker_multiplier(GpuType::V100), 2);
        assert_eq!(GpuType::V100.worker_multiplier(GpuType::T4), 1);
        assert_eq!(GpuType::T4.worker_multiplier(GpuType::T4), 1);
    }

    #[test]
    fn normalized_capacity_mixes_pools() {
        assert_eq!(normalized_capacity(&[]), 0.0);
        let cap = normalized_capacity(&[(GpuType::V100, 3), (GpuType::T4, 6)]);
        assert!((cap - 5.0).abs() < 1e-9);
    }

    #[test]
    fn speed_factors_default_to_identity() {
        let s = SpeedFactors::default();
        assert_eq!(s.factor(GpuType::V100), 1.0);
        assert_eq!(s.factor(GpuType::T4), 1.0);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn speed_factors_reject_non_positive_and_non_finite() {
        let zero = SpeedFactors { v100: 0.0, t4: 1.0 };
        assert_eq!(zero.validate(), Err((GpuType::V100, 0.0)));
        let neg = SpeedFactors { v100: 1.0, t4: -0.5 };
        assert_eq!(neg.validate(), Err((GpuType::T4, -0.5)));
        let nan = SpeedFactors {
            v100: f64::NAN,
            t4: 1.0,
        };
        assert!(nan.validate().is_err());
        assert!(SpeedFactors {
            v100: f64::INFINITY,
            t4: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn spec_roundtrip_is_consistent() {
        for ty in [GpuType::V100, GpuType::T4] {
            let spec = ty.spec();
            assert_eq!(spec.gpu_type, ty);
            assert_eq!(spec.memory_gb, ty.memory_gb());
            assert_eq!(spec.capability, ty.capability());
        }
    }
}
