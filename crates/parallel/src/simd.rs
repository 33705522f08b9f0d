//! Lane-parallel primitives of the tiled wavefront kernel.
//!
//! The kernel works on fixed-width `[u16; LANES]` / `[u32; LANES]` arrays:
//! plain loops over a fixed width, which the compiler vectorizes at
//! whatever ISA the build targets (SSE2 on baseline x86-64, AVX2 under
//! `-C target-feature=+avx2`, NEON on aarch64). There are no intrinsics
//! and no runtime ISA dispatch. On a 2-vCPU x86-64 host an AVX2
//! (`target-cpu=native`) build swept the 2.57M-cell big case about 17%
//! faster than the baseline build at one thread and about 5% faster at
//! two.
//!
//! ## Sentinel semantics
//!
//! `INFEASIBLE = u16::MAX` must survive every lane op: unsigned `min`
//! leaves it in place only when every candidate is infeasible, and the
//! *saturating* `+1` maps `u16::MAX` to `u16::MAX` — infeasibility is
//! absorbing through the whole strip pipeline, exactly like the scalar
//! `best.saturating_add(1)`.

use pcmax_ptas::table::INFEASIBLE;

/// Lane width `W` of the strip kernel: 16 `u16` values, one 256-bit
/// register or two 128-bit ones.
pub const LANES: usize = 16;

/// The vector ISA the compiler may use for the lane loops, for bench and
/// benchmark reports: `"avx2"`, `"sse2"`, `"neon"` or `"portable"`.
pub fn kernel_isa() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else {
        "portable"
    }
}

/// `best[i] = min(best[i], lanes[i])` over one strip (unsigned).
#[inline(always)]
pub fn min_assign_u16(best: &mut [u16; LANES], lanes: &[u16; LANES]) {
    for (b, &l) in best.iter_mut().zip(lanes) {
        *b = (*b).min(l);
    }
}

/// `v[i] = v[i] saturating+ 1` over one strip — the `1 + min{…}` step.
/// Saturation keeps `INFEASIBLE` absorbing.
#[inline(always)]
pub fn saturating_add1_u16(v: &mut [u16; LANES]) {
    for lane in v.iter_mut() {
        *lane = lane.saturating_add(1);
    }
}

/// The strip fit test: keeps `window[i]` where the cell's unary threshold
/// code holds every bit of `need` (the transition fits that cell) and
/// replaces it with `INFEASIBLE` elsewhere — one AND/compare per lane.
#[inline(always)]
pub fn fit_select_u16(window: &mut [u16; LANES], codes: &[u32; LANES], need: u32) {
    for (w, &code) in window.iter_mut().zip(codes) {
        if code & need != need {
            *w = INFEASIBLE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_assign_is_lanewise_unsigned_min() {
        let mut best = [u16::MAX; LANES];
        let mut lanes = [0u16; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (i as u16) * 1000;
        }
        min_assign_u16(&mut best, &lanes);
        assert_eq!(best, lanes);
        // INFEASIBLE candidates never lower a finite best.
        let infeasible = [u16::MAX; LANES];
        min_assign_u16(&mut best, &infeasible);
        assert_eq!(best, lanes);
    }

    #[test]
    fn saturating_add_keeps_infeasible_absorbing() {
        let mut v = [u16::MAX; LANES];
        v[0] = 0;
        v[1] = 41;
        v[2] = u16::MAX - 1;
        saturating_add1_u16(&mut v);
        assert_eq!(v[0], 1);
        assert_eq!(v[1], 42);
        assert_eq!(v[2], u16::MAX);
        assert!(v[3..].iter().all(|&x| x == u16::MAX), "MAX saturates");
    }

    #[test]
    fn fit_select_keeps_exactly_the_lanes_holding_every_needed_bit() {
        let mut window = [7u16; LANES];
        let mut codes = [0b111u32; LANES];
        codes[3] = 0b101; // misses bit 1
        codes[7] = 0; // the all-zero code of the origin digits
        fit_select_u16(&mut window, &codes, 0b011);
        for (i, &w) in window.iter().enumerate() {
            assert_eq!(w == INFEASIBLE, i == 3 || i == 7, "lane {i}");
        }
        // An empty need fits every lane.
        let mut window = [7u16; LANES];
        fit_select_u16(&mut window, &[0; LANES], 0);
        assert_eq!(window, [7; LANES]);
    }

    #[test]
    fn isa_report_is_known() {
        assert!(["avx2", "sse2", "neon", "portable"].contains(&kernel_isa()));
    }
}
