//! AVX2 substep kernel (`simd` cargo feature, x86_64 only).
//!
//! The vector kernel processes four nodes per iteration over the
//! topology's slot-major padded neighbour list: lane = node, slot =
//! neighbour rank. Each slot gathers four neighbour temperatures, forms
//! the products with separate multiply and add (no FMA — fusing would
//! change rounding versus the scalar kernel), and accumulates into a
//! per-node register. Because every node's products are summed in the same
//! neighbour order as the packed scalar walk, and the padding slots
//! contribute exact `±0.0`, the vector result matches the scalar kernel
//! bit-for-bit for physical temperatures; the property tests bound any
//! residual divergence at one ULP per substep.
//!
//! Dispatch is at runtime: [`avx2_active`] consults the CPU once (the
//! detection macro caches) and honours a process-wide override so tests
//! and benchmarks can pin the scalar path inside a `simd`-enabled build.

use std::arch::x86_64::{
    __m256i, _mm256_add_pd, _mm256_div_pd, _mm256_i64gather_pd, _mm256_loadu_pd,
    _mm256_loadu_si256, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd,
};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::network::Topology;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Pins the integrator to the scalar kernel even when AVX2 is available.
///
/// For benchmarks and differential tests that want both paths in one
/// process. Process-wide; affects every network.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the next substep will take the vector path: AVX2 present and
/// not overridden by [`force_scalar`].
pub fn avx2_active() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed) && is_x86_feature_detected!("avx2")
}

/// Safe entry point for the vector substep: runs the AVX2 kernel when the
/// dispatch check passes and reports whether it did. Keeps the one
/// `unsafe` call in this module, next to the kernel it guards — callers
/// (the integrator in `network.rs`) stay entirely safe code.
pub(crate) fn substep_vector(
    topo: &Topology,
    boundary: f64,
    old: &[f64],
    powers: &[f64],
    decay: &[f64],
    new: &mut [f64],
) -> bool {
    if !avx2_active() {
        return false;
    }
    // SAFETY: avx2_active() just verified the CPU supports AVX2, which is
    // the only precondition of the target_feature kernel; all slices come
    // from the same network, so the topology's padded indices are in
    // bounds for `old`.
    unsafe { substep_avx2(topo, boundary, old, powers, decay, new) };
    true
}

/// One exponential-Euler substep over the padded slot-major structure.
///
/// # Safety
///
/// The CPU must support AVX2 (guard with [`avx2_active`]).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn substep_avx2(
    topo: &Topology,
    boundary: f64,
    old: &[f64],
    powers: &[f64],
    decay: &[f64],
    new: &mut [f64],
) {
    let n = new.len();
    let blocks = n / 4;
    let amb = _mm256_set1_pd(boundary);
    for b in 0..blocks {
        let i = b * 4;
        let mut acc = _mm256_set1_pd(0.0);
        for k in 0..topo.ell_slots {
            let slot = k * n + i;
            let g = _mm256_loadu_pd(topo.ell_vals.as_ptr().add(slot));
            let idx = _mm256_loadu_si256(topo.ell_cols.as_ptr().add(slot) as *const __m256i);
            let t = _mm256_i64gather_pd::<8>(old.as_ptr(), idx);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(g, t));
        }
        let amb_g = _mm256_loadu_pd(topo.ambient_conductance.as_ptr().add(i));
        let neighbour_heat = _mm256_add_pd(acc, _mm256_mul_pd(amb_g, amb));
        let p = _mm256_loadu_pd(powers.as_ptr().add(i));
        let g_tot = _mm256_loadu_pd(topo.total_conductance.as_ptr().add(i));
        let t_eq = _mm256_div_pd(_mm256_add_pd(p, neighbour_heat), g_tot);
        let t_old = _mm256_loadu_pd(old.as_ptr().add(i));
        let d = _mm256_loadu_pd(decay.as_ptr().add(i));
        let t_new = _mm256_add_pd(t_eq, _mm256_mul_pd(_mm256_sub_pd(t_old, t_eq), d));
        _mm256_storeu_pd(new.as_mut_ptr().add(i), t_new);
    }
    // Remainder nodes take the scalar expression over the packed rows,
    // which is the identical sum.
    let tail = blocks * 4;
    if tail < n {
        scalar_tail(topo, boundary, old, powers, decay, new, tail);
    }
}

/// Scalar kernel over nodes `start..n` (the sub-4 remainder of a block).
fn scalar_tail(
    topo: &Topology,
    boundary: f64,
    old: &[f64],
    powers: &[f64],
    decay: &[f64],
    new: &mut [f64],
    start: usize,
) {
    for (i, out) in new.iter_mut().enumerate().skip(start) {
        let g_tot = topo.total_conductance[i];
        let mut neighbour_heat = 0.0;
        for k in topo.row_offsets[i] as usize..topo.row_offsets[i + 1] as usize {
            neighbour_heat += topo.vals[k] * old[topo.cols[k] as usize];
        }
        let neighbour_heat = neighbour_heat + topo.ambient_conductance[i] * boundary;
        let t_eq = (powers[i] + neighbour_heat) / g_tot;
        *out = t_eq + (old[i] - t_eq) * decay[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::random_network;
    use dimetrodon_sim_core::SimDuration;
    use proptest::prelude::*;

    /// Distance in representable doubles between two finite values of the
    /// same sign (0 when bit-identical).
    fn ulp_diff(a: f64, b: f64) -> u64 {
        if a.to_bits() == b.to_bits() {
            return 0;
        }
        let to_ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 { i64::MIN.wrapping_sub(bits) } else { bits }
        };
        to_ordered(a).abs_diff(to_ordered(b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The vector kernel matches the scalar kernel within 1 ULP per
        /// node per advance on randomized networks (in practice: exactly,
        /// because both sum each row's products in the same order).
        #[test]
        fn prop_simd_matches_scalar_within_one_ulp(
            seed in any::<u64>(),
            n in 2usize..24,
            steps in 1usize..30,
            dt_ms in 1u64..400,
        ) {
            if !is_x86_feature_detected!("avx2") {
                return Ok(());
            }
            let (net, _) = random_network(seed, n);
            let mut scalar = net.clone();
            let mut vector = net;
            let dt = SimDuration::from_millis(dt_ms);
            for _ in 0..steps {
                force_scalar(true);
                scalar.advance(dt);
                force_scalar(false);
                vector.advance(dt);
                for (a, b) in scalar.temperatures().iter().zip(vector.temperatures()) {
                    prop_assert!(
                        ulp_diff(*a, *b) <= 1,
                        "scalar {a} vs simd {b} ({} ULP)", ulp_diff(*a, *b)
                    );
                }
                // Resync so the bound stays per-advance, not cumulative.
                vector.clone_from(&scalar);
            }
            force_scalar(false);
        }
    }
}
