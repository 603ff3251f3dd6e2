//! The multiple-choice knapsack problem (MCKP) solver used by phase 2 of
//! Lyra's resource allocation (§5.2).
//!
//! Each elastic job forms a *group* with `w_max − w_min` items; item `k`
//! represents giving the job `k` extra workers, its weight is the number of
//! GPUs those workers need, and its value is the resulting JCT reduction
//! (Figure 6). The solver packs items into the knapsack of remaining GPUs,
//! taking **exactly one or zero items from each group**, to maximise total
//! JCT reduction.
//!
//! MCKP is NP-hard but admits a pseudo-polynomial dynamic program, which
//! the paper reports solving in at most 0.02 s for 354 items and 245 GPUs;
//! `lyra-bench impl` times that measurement point.
//!
//! The DP here is *banded*. With `maxw_g` the largest item weight of group
//! `g`, `S_g` the sum of `maxw` over groups `0..=g`, `R_g` the sum over the
//! groups after `g` and `cap = min(capacity, S_last)`, group `g` fills only
//! the cells `[cap − R_g, min(cap, S_g)]` (saturating): a cell below the
//! band cannot reach `cap` even if every later group takes its heaviest
//! item, and a cell above `S_g` holds exactly what cell `S_g` holds. The
//! cost is `O(Σ_g |items_g| · band_g)` time and `Σ_g band_g` choice cells;
//! when the capacity covers every group's heaviest item, each band is one
//! cell wide.
//!
//! The banded result is bit-for-bit the full-width DP's. Induction from
//! `dp ≡ 0`: for `c ≥ S_g`, "take nothing" reads `dp_{g−1}[c]` with
//! `c ≥ S_{g−1}`, and every item of weight `w ≤ maxw_g` reads
//! `dp_{g−1}[c − w]` with `c − w ≥ S_{g−1}`; by hypothesis each of those
//! equals the cell at `S_{g−1}`, so every cell `c ≥ S_g` sees the same
//! candidates as `S_g`, summed with the same float additions and compared
//! in the same order, and ends with the same value and choice. The band
//! therefore replaces a read above the previous band's top by a read of
//! that top, and reconstruction reads group `g`'s row at `min(c, hi_g)`;
//! every cell it does compute runs the full-width recurrence unchanged.

use serde::{Deserialize, Serialize};

/// One candidate allocation for a group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McKnapsackItem {
    /// GPUs consumed if this item is chosen.
    pub weight: u32,
    /// JCT reduction (seconds) if this item is chosen.
    pub value: f64,
}

/// All candidate allocations of one elastic job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McKnapsackGroup {
    /// Caller-side key for mapping the solution back (e.g. a job id).
    pub key: u64,
    /// Candidate items; at most one will be chosen.
    pub items: Vec<McKnapsackItem>,
}

/// Solution of one MCKP instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MckpSolution {
    /// Sum of values of the chosen items.
    pub total_value: f64,
    /// Sum of weights of the chosen items (≤ capacity).
    pub total_weight: u32,
    /// Per group (same order as the input), the index of the chosen item or
    /// `None` if the group takes nothing.
    pub chosen: Vec<Option<usize>>,
}

/// Reusable buffers for [`solve_mckp_with`].
///
/// The DP rows, their double buffer, the group bands and the (flattened)
/// choice rows are the solver's only allocations; a policy that carries a
/// scratch across scheduling epochs amortises them to zero once the
/// high-water band has been seen. The scratch holds no state between
/// calls — every call rewrites each cell before reading it — so one
/// scratch may serve any sequence of instances.
#[derive(Debug, Clone, Default)]
pub struct MckpScratch {
    /// `dp[c − lo]`: best value using the groups processed so far with
    /// ≤ c GPUs, over the last processed group's band `[lo, hi]`.
    dp: Vec<f64>,
    /// Double buffer for the per-group relaxation.
    next: Vec<f64>,
    /// Per group, its band and where its row starts in `choice`.
    bands: Vec<Band>,
    /// Band rows concatenated (`Σ_g band_g` cells); `u32::MAX` = no item.
    choice: Vec<u32>,
}

/// The capacity cells `[lo, hi]` one group's DP row covers, and the row's
/// start in [`MckpScratch::choice`].
#[derive(Debug, Clone, Copy)]
struct Band {
    lo: usize,
    hi: usize,
    offset: usize,
}

/// The largest item weight of `group` (0 if it has no items), counting
/// every item, as the capacity clamp does.
fn max_weight(group: &McKnapsackGroup) -> u64 {
    u64::from(group.items.iter().map(|i| i.weight).max().unwrap_or(0))
}

/// The knapsack capacity the solver actually uses: `capacity` clamped by
/// the sum of per-group maximum weights (and to `u32`). Any feasible
/// solution weighs at most that sum, so a wider table cannot change the
/// optimum — this keeps cluster-scale epochs cheap when idle capacity
/// dwarfs the elastic demand.
pub fn effective_capacity(groups: &[McKnapsackGroup], capacity: u64) -> u32 {
    let total_max_weight: u64 = groups.iter().map(max_weight).sum();
    capacity.min(total_max_weight).min(u64::from(u32::MAX)) as u32
}

/// Solves the multiple-choice knapsack by dynamic programming.
///
/// Items with zero weight and positive value are taken greedily; items with
/// non-positive value are never chosen (taking nothing from the group
/// dominates them). Runs in `O(Σ_g |items_g| · band_g)` time and keeps
/// `Σ_g band_g` choice cells, where `band_g ≤ capacity + 1` is group
/// `g`'s band width (see the module docs).
///
/// Allocates fresh buffers per call; hot paths should hold a
/// [`MckpScratch`] and call [`solve_mckp_with`] instead.
///
/// # Examples
///
/// ```
/// use lyra_core::{solve_mckp, McKnapsackGroup, McKnapsackItem};
/// // Figure 6: job A (1 item) and job B (4 items), knapsack of 4 GPUs.
/// let groups = vec![
///     McKnapsackGroup {
///         key: 0,
///         items: vec![McKnapsackItem { weight: 2, value: 50.0 }],
///     },
///     McKnapsackGroup {
///         key: 1,
///         items: vec![
///             McKnapsackItem { weight: 1, value: 20.0 },
///             McKnapsackItem { weight: 2, value: 30.0 },
///             McKnapsackItem { weight: 3, value: 36.0 },
///             McKnapsackItem { weight: 4, value: 40.0 },
///         ],
///     },
/// ];
/// let sol = solve_mckp(&groups, 4);
/// // Best: A's 2-GPU item (50) + B's 2-GPU item (30) = 80.
/// assert_eq!(sol.total_value, 80.0);
/// assert_eq!(sol.chosen, vec![Some(0), Some(1)]);
/// ```
pub fn solve_mckp(groups: &[McKnapsackGroup], capacity: u32) -> MckpSolution {
    solve_mckp_with(&mut MckpScratch::default(), groups, capacity)
}

/// [`solve_mckp`] over caller-owned scratch buffers.
///
/// The DP runs at [`effective_capacity`] and fills only each group's band
/// (module docs). Each filled cell sees the same additions and comparisons
/// as in the full-width table, so the solution is bit-for-bit the
/// full-width one.
pub fn solve_mckp_with(
    scratch: &mut MckpScratch,
    groups: &[McKnapsackGroup],
    capacity: u32,
) -> MckpSolution {
    let _timing = lyra_obs::span::span("core.mckp");
    let cap = effective_capacity(groups, u64::from(capacity)) as usize;
    const NONE: u32 = u32::MAX;
    let MckpScratch {
        dp,
        next,
        bands,
        choice,
    } = scratch;

    // Bands: `hi` first holds the prefix sum `S_g`; once the total is
    // known it becomes `min(cap, S_g)` and `lo` becomes `cap − R_g`.
    bands.clear();
    let mut prefix = 0usize;
    for group in groups {
        prefix += max_weight(group) as usize;
        bands.push(Band {
            lo: 0,
            hi: prefix,
            offset: 0,
        });
    }
    let mut cells = 0;
    let mut widest = 1;
    for band in bands.iter_mut() {
        band.lo = cap.saturating_sub(prefix - band.hi);
        band.hi = band.hi.min(cap);
        band.offset = cells;
        let width = band.hi - band.lo + 1;
        cells += width;
        widest = widest.max(width);
    }
    choice.clear();
    choice.resize(cells, NONE);
    if dp.len() < widest {
        dp.resize(widest, 0.0);
        next.resize(widest, 0.0);
    }

    // Before any group the table is all zeros: one cell, band [0, 0].
    dp[0] = 0.0;
    let (mut prev_lo, mut prev_hi) = (0, 0);
    for (group, &Band { lo, hi, offset }) in groups.iter().zip(bands.iter()) {
        let width = hi - lo + 1;
        // `row[c − lo]`: item chosen by this group when the DP table for
        // the groups so far holds capacity c.
        let row = &mut choice[offset..offset + width];
        let prev = &dp[..prev_hi - prev_lo + 1];
        // The previous table at `prev_hi`, which every cell above repeats.
        let top = prev[prev_hi - prev_lo];
        let cur = &mut next[..width];
        // Taking nothing from the group is always allowed.
        let split = (prev_hi + 1).clamp(lo, hi + 1);
        if split > lo {
            cur[..split - lo].copy_from_slice(&prev[lo - prev_lo..split - prev_lo]);
        }
        cur[split - lo..].fill(top);
        for (i, item) in group.items.iter().enumerate() {
            let w = item.weight as usize;
            if item.value <= 0.0 || w > hi {
                continue;
            }
            let start = lo.max(w);
            // Cells up to `prev_hi + w` read the previous row; above, every
            // candidate is the same `top + value`.
            let split = (prev_hi + w + 1).clamp(start, hi + 1);
            if split > start {
                let below = start - lo..split - lo;
                let reads = &prev[start - w - prev_lo..split - w - prev_lo];
                for ((best, pick), &base) in cur[below.clone()]
                    .iter_mut()
                    .zip(&mut row[below])
                    .zip(reads)
                {
                    let cand = base + item.value;
                    if cand > *best {
                        *best = cand;
                        *pick = i as u32;
                    }
                }
            }
            let cand = top + item.value;
            for (best, pick) in cur[split - lo..].iter_mut().zip(&mut row[split - lo..]) {
                if cand > *best {
                    *best = cand;
                    *pick = i as u32;
                }
            }
        }
        std::mem::swap(dp, next);
        (prev_lo, prev_hi) = (lo, hi);
    }

    // The DP value is monotone in capacity, so the optimum sits at `cap`,
    // which is the last band's only cell.
    let total_value = dp[0];
    let mut chosen = vec![None; groups.len()];
    let mut c = cap;
    for (g, band) in bands.iter().enumerate().rev() {
        let pick = choice[band.offset + c.min(band.hi) - band.lo];
        if pick != NONE {
            let i = pick as usize;
            chosen[g] = Some(i);
            c -= groups[g].items[i].weight as usize;
        }
    }
    let total_weight = chosen
        .iter()
        .enumerate()
        .filter_map(|(g, c)| c.map(|i| groups[g].items[i].weight))
        .sum();
    MckpSolution {
        total_value,
        total_weight,
        chosen,
    }
}

/// The full-width DP the banded solver replaced: every cell `0..=cap` for
/// every group. Kept as the reference the banded solver must match bit
/// for bit.
#[cfg(test)]
fn solve_mckp_reference(groups: &[McKnapsackGroup], capacity: u32) -> MckpSolution {
    let cap = effective_capacity(groups, u64::from(capacity)) as usize;
    const NONE: u32 = u32::MAX;
    let width = cap + 1;
    let mut dp = vec![0.0; width];
    let mut next = vec![0.0; width];
    let mut choice = vec![NONE; groups.len() * width];
    for (g, group) in groups.iter().enumerate() {
        let choice_row = &mut choice[g * width..(g + 1) * width];
        next.copy_from_slice(&dp);
        for (i, item) in group.items.iter().enumerate() {
            if item.value <= 0.0 {
                continue;
            }
            let w = item.weight as usize;
            if w > cap {
                continue;
            }
            for c in w..=cap {
                let cand = dp[c - w] + item.value;
                if cand > next[c] {
                    next[c] = cand;
                    choice_row[c] = i as u32;
                }
            }
        }
        std::mem::swap(&mut dp, &mut next);
    }
    let total_value = dp[cap];
    let mut chosen = vec![None; groups.len()];
    let mut c = cap;
    for g in (0..groups.len()).rev() {
        let pick = choice[g * width + c];
        if pick != NONE {
            let i = pick as usize;
            chosen[g] = Some(i);
            c -= groups[g].items[i].weight as usize;
        }
    }
    let total_weight = chosen
        .iter()
        .enumerate()
        .filter_map(|(g, c)| c.map(|i| groups[g].items[i].weight))
        .sum();
    MckpSolution {
        total_value,
        total_weight,
        chosen,
    }
}

/// Brute-force MCKP for verification (exponential).
#[cfg(test)]
fn solve_mckp_bruteforce(groups: &[McKnapsackGroup], capacity: u32) -> f64 {
    fn recurse(groups: &[McKnapsackGroup], g: usize, cap_left: i64, acc: f64, best: &mut f64) {
        if acc > *best {
            *best = acc;
        }
        if g == groups.len() {
            return;
        }
        // Skip the group.
        recurse(groups, g + 1, cap_left, acc, best);
        for item in &groups[g].items {
            if i64::from(item.weight) <= cap_left && item.value > 0.0 {
                recurse(
                    groups,
                    g + 1,
                    cap_left - i64::from(item.weight),
                    acc + item.value,
                    best,
                );
            }
        }
    }
    let mut best = 0.0;
    recurse(groups, 0, i64::from(capacity), 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(weight: u32, value: f64) -> McKnapsackItem {
        McKnapsackItem { weight, value }
    }

    #[test]
    fn empty_instance() {
        let sol = solve_mckp(&[], 10);
        assert_eq!(sol.total_value, 0.0);
        assert_eq!(sol.total_weight, 0);
        assert!(sol.chosen.is_empty());
    }

    #[test]
    fn zero_capacity_takes_nothing_with_positive_weights() {
        let groups = vec![McKnapsackGroup {
            key: 0,
            items: vec![item(1, 100.0)],
        }];
        let sol = solve_mckp(&groups, 0);
        assert_eq!(sol.total_value, 0.0);
        assert_eq!(sol.chosen, vec![None]);
    }

    #[test]
    fn one_item_per_group_is_enforced() {
        // A group where taking two items would be profitable if allowed.
        let groups = vec![McKnapsackGroup {
            key: 0,
            items: vec![item(1, 10.0), item(1, 9.0)],
        }];
        let sol = solve_mckp(&groups, 2);
        assert_eq!(sol.total_value, 10.0);
        assert_eq!(sol.chosen, vec![Some(0)]);
    }

    #[test]
    fn negative_and_zero_values_never_chosen() {
        let groups = vec![McKnapsackGroup {
            key: 0,
            items: vec![item(1, 0.0), item(1, -5.0)],
        }];
        let sol = solve_mckp(&groups, 4);
        assert_eq!(sol.total_value, 0.0);
        assert_eq!(sol.chosen, vec![None]);
    }

    #[test]
    fn figure6_instance_prefers_global_optimum() {
        // Table 4 / Figure 6: with 8 GPUs total and base demands consuming
        // 2·2 (A) + 2·1 (B) = 6 GPUs, 2 GPUs remain for flexible demand.
        let groups = vec![
            McKnapsackGroup {
                key: 0,
                items: vec![item(2, 50.0)],
            },
            McKnapsackGroup {
                key: 1,
                items: vec![item(1, 20.0), item(2, 30.0), item(3, 36.0), item(4, 40.0)],
            },
        ];
        let sol = solve_mckp(&groups, 2);
        // A's single item (weight 2, value 50) beats B's (weight 2, value
        // 30) — matching §5.1's conclusion that favouring A is optimal.
        assert_eq!(sol.total_value, 50.0);
        assert_eq!(sol.chosen, vec![Some(0), None]);
    }

    #[test]
    fn weight_reconstruction_matches_choice() {
        let groups = vec![
            McKnapsackGroup {
                key: 0,
                items: vec![item(3, 7.0), item(5, 9.0)],
            },
            McKnapsackGroup {
                key: 1,
                items: vec![item(2, 4.0)],
            },
        ];
        let sol = solve_mckp(&groups, 7);
        let value: f64 = sol
            .chosen
            .iter()
            .enumerate()
            .filter_map(|(g, c)| c.map(|i| groups[g].items[i].value))
            .sum();
        assert_eq!(value, sol.total_value);
        assert!(sol.total_weight <= 7);
        // Best: (5, 9.0) from group 0 plus (2, 4.0) from group 1 = 13.
        assert_eq!(sol.total_value, 13.0);
        assert_eq!(sol.total_weight, 7);
        assert_eq!(sol.chosen, vec![Some(1), Some(0)]);
    }

    #[test]
    fn oversized_items_are_skipped() {
        let groups = vec![McKnapsackGroup {
            key: 0,
            items: vec![item(100, 1000.0), item(2, 5.0)],
        }];
        let sol = solve_mckp(&groups, 10);
        assert_eq!(sol.total_value, 5.0);
        assert_eq!(sol.chosen, vec![Some(1)]);
    }

    /// Banded and full-width solutions must agree bit for bit.
    fn assert_matches_reference(groups: &[McKnapsackGroup], capacity: u32) {
        let banded = solve_mckp(groups, capacity);
        let reference = solve_mckp_reference(groups, capacity);
        assert_eq!(
            banded.total_value.to_bits(),
            reference.total_value.to_bits()
        );
        assert_eq!(banded.chosen, reference.chosen);
        assert_eq!(banded.total_weight, reference.total_weight);
    }

    #[test]
    fn covering_capacity_fills_one_cell_per_group() {
        let groups = vec![
            McKnapsackGroup {
                key: 0,
                items: vec![item(2, 5.0), item(4, 9.0)],
            },
            McKnapsackGroup {
                key: 1,
                items: vec![],
            },
            McKnapsackGroup {
                key: 2,
                items: vec![item(3, 4.0), item(1, 4.0)],
            },
        ];
        // Σ max weight = 4 + 0 + 3 = 7; any capacity from 7 up covers it.
        for capacity in [7, 8, 1000] {
            let mut scratch = MckpScratch::default();
            let sol = solve_mckp_with(&mut scratch, &groups, capacity);
            assert_eq!(scratch.choice.len(), groups.len());
            assert_eq!(sol.total_value, 13.0);
            assert_eq!(sol.chosen, vec![Some(1), None, Some(0)]);
            assert_matches_reference(&groups, capacity);
        }
    }

    #[test]
    fn zero_capacity_keeps_one_cell_and_zero_weight_items() {
        let groups = vec![
            McKnapsackGroup {
                key: 0,
                items: vec![item(1, 100.0), item(0, 3.0)],
            },
            McKnapsackGroup {
                key: 1,
                items: vec![item(2, 7.0)],
            },
        ];
        let mut scratch = MckpScratch::default();
        let sol = solve_mckp_with(&mut scratch, &groups, 0);
        assert_eq!(scratch.choice.len(), groups.len());
        assert_eq!(sol.total_value, 3.0);
        assert_eq!(sol.chosen, vec![Some(1), None]);
        assert_eq!(sol.total_weight, 0);
        assert_matches_reference(&groups, 0);
    }

    #[test]
    fn zero_weight_positive_item_is_taken_inside_a_band() {
        // Capacity 3 < Σ max weight 5, so the bands are wider than one
        // cell; the zero-weight item must still ride along for free.
        let groups = vec![
            McKnapsackGroup {
                key: 0,
                items: vec![item(2, 6.0), item(3, 8.0)],
            },
            McKnapsackGroup {
                key: 1,
                items: vec![item(0, 1.5), item(2, 1.0)],
            },
        ];
        let sol = solve_mckp(&groups, 3);
        assert_eq!(sol.total_value, 9.5);
        assert_eq!(sol.chosen, vec![Some(1), Some(0)]);
        assert_eq!(sol.total_weight, 3);
        assert_matches_reference(&groups, 3);
    }

    #[test]
    fn one_scratch_serves_wide_then_narrow_instances() {
        let wide = vec![
            McKnapsackGroup {
                key: 0,
                items: vec![item(5, 2.0), item(9, 3.0)],
            },
            McKnapsackGroup {
                key: 1,
                items: vec![item(4, 2.5)],
            },
        ];
        let narrow = vec![McKnapsackGroup {
            key: 0,
            items: vec![item(1, 1.0)],
        }];
        let mut scratch = MckpScratch::default();
        for (groups, capacity) in [(&wide, 10), (&narrow, 5), (&wide, 6), (&narrow, 0)] {
            let sol = solve_mckp_with(&mut scratch, groups, capacity);
            assert_eq!(sol, solve_mckp_reference(groups, capacity));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn dp_matches_bruteforce(
            groups in prop::collection::vec(
                prop::collection::vec((1u32..6, 0.0f64..50.0), 1..5),
                0..5,
            ),
            capacity in 0u32..20,
        ) {
            let groups: Vec<McKnapsackGroup> = groups
                .into_iter()
                .enumerate()
                .map(|(k, items)| McKnapsackGroup {
                    key: k as u64,
                    items: items
                        .into_iter()
                        .map(|(w, v)| McKnapsackItem { weight: w, value: v })
                        .collect(),
                })
                .collect();
            let sol = solve_mckp(&groups, capacity);
            let best = solve_mckp_bruteforce(&groups, capacity);
            prop_assert!((sol.total_value - best).abs() < 1e-9);
            prop_assert!(sol.total_weight <= capacity);
            // Reconstructed value must equal reported value.
            let value: f64 = sol
                .chosen
                .iter()
                .enumerate()
                .filter_map(|(g, c)| c.map(|i| groups[g].items[i].value))
                .sum();
            prop_assert!((value - sol.total_value).abs() < 1e-9);
        }

        /// Tie-heavy instances: integer values (so equal sums are common),
        /// zero and oversized weights, non-positive values and empty
        /// groups. The banded solver must reproduce the full-width DP's
        /// value bits, choices and weight exactly.
        #[test]
        fn banded_matches_full_width_reference(
            groups in prop::collection::vec(
                prop::collection::vec((0u32..8, 0u32..12, -3i32..10), 0..6),
                0..8,
            ),
            capacity in 0u32..48,
        ) {
            let groups: Vec<McKnapsackGroup> = groups
                .into_iter()
                .enumerate()
                .map(|(k, items)| McKnapsackGroup {
                    key: k as u64,
                    items: items
                        .into_iter()
                        .map(|(w, oversize, v)| McKnapsackItem {
                            // One item in twelve is far heavier than any
                            // capacity drawn here.
                            weight: if oversize == 0 { w + 60 } else { w },
                            value: f64::from(v),
                        })
                        .collect(),
                })
                .collect();
            let banded = solve_mckp(&groups, capacity);
            let reference = solve_mckp_reference(&groups, capacity);
            prop_assert_eq!(banded.total_value.to_bits(), reference.total_value.to_bits());
            prop_assert_eq!(&banded.chosen, &reference.chosen);
            prop_assert_eq!(banded.total_weight, reference.total_weight);
        }
    }
}
