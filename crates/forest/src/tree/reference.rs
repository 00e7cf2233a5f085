//! The row-sorting CART builder the production split search replaced,
//! kept verbatim as the reference it must match node for node, plus the
//! bit-level tree dump and the §6-shaped data the comparisons run on.

use super::{DecisionTree, Node, TreeParams};
use crate::dataset::Dataset;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// [`DecisionTree::fit_on`] through the reference builder.
pub(crate) fn fit_on(
    data: &Dataset,
    indices: &[usize],
    params: &TreeParams,
    seed: u64,
) -> DecisionTree {
    assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut importances = vec![0.0; data.width()];
    let mut idx = indices.to_vec();
    let root = grow(data, &mut idx, params, 0, indices.len(), &mut rng, &mut importances);
    DecisionTree { root, n_classes: data.n_classes(), importances }
}

/// Every bit a fitted tree carries, in preorder: `[0, feature, threshold]`
/// per split, `[1, len, probs…]` per leaf, then the raw importances.
pub(crate) fn bit_dump(tree: &DecisionTree) -> Vec<u64> {
    fn walk(node: &Node, out: &mut Vec<u64>) {
        match node {
            Node::Leaf { probs } => {
                out.extend([1, probs.len() as u64]);
                out.extend(probs.iter().map(|p| p.to_bits()));
            }
            Node::Split { feature, threshold, left, right } => {
                out.extend([0, *feature as u64, threshold.to_bits()]);
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(&tree.root, &mut out);
    out.push(tree.importances.len() as u64);
    out.extend(tree.importances.iter().map(|v| v.to_bits()));
    out
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
pub(crate) fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A dataset shaped like §6's: one continuous `local_hour` column, then
/// sparse small-integer count columns with heavy ties (every fifth one
/// all zero), labels biased towards the fullest column, and zeros that are
/// `-0.0` one time in four.
/// Fully determined by `seed` (a splitmix64 stream).
pub(crate) fn section6_like(rows: usize, counts: usize, classes: usize, seed: u64) -> Dataset {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut features = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(1 + counts);
        let quarter = next() % 96;
        row.push(if quarter == 0 && next() % 2 == 0 { -0.0 } else { quarter as f64 / 4.0 });
        for j in 0..counts {
            let r = next();
            // Every fifth cluster never shows up: a constant column.
            let count = if j % 5 != 4 && r % 8 == 0 { (r >> 8) % 4 + 1 } else { 0 };
            row.push(if count == 0 && (r >> 16) % 4 == 0 { -0.0 } else { count as f64 });
        }
        let fullest = (1..row.len()).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap_or(0);
        let r = next();
        labels.push(if r % 10 < 7 { fullest % classes } else { (r >> 8) as usize % classes });
        features.push(row);
    }
    Dataset::unnamed(features, labels, classes)
}

/// Today's §6 shape at reduced size: 50–200 classes, a handful of count
/// columns with values in 0..4, a bootstrap draw with duplicated rows,
/// and every growth limit varied.
fn arb_case() -> impl Strategy<Value = (Dataset, Vec<usize>, TreeParams, u64)> {
    (50usize..200, 20usize..160, 2usize..24, 0u64..u64::MAX).prop_flat_map(
        |(classes, rows, counts, data_seed)| {
            let params = (
                prop::sample::select(vec![
                    super::MaxFeatures::All,
                    super::MaxFeatures::Sqrt,
                    super::MaxFeatures::Fixed(3),
                ]),
                0usize..18,
                1usize..10,
                1usize..6,
            )
                .prop_map(
                    |(max_features, max_depth, min_samples_split, min_samples_leaf)| TreeParams {
                        max_depth,
                        min_samples_split,
                        min_samples_leaf,
                        max_features,
                    },
                );
            (
                prop::collection::vec(0..rows, rows),
                params,
                0u64..u64::MAX,
                prop::sample::select(vec![false, true]),
            )
                .prop_map(move |(bootstrap, params, tree_seed, full)| {
                    let data = section6_like(rows, counts, classes, data_seed);
                    let indices = if full { (0..rows).collect() } else { bootstrap };
                    (data, indices, params, tree_seed)
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn split_search_matches_the_reference_node_for_node(case in arb_case()) {
        let (data, indices, params, seed) = case;
        let fitted = DecisionTree::fit_on(&data, &indices, &params, seed);
        let reference = fit_on(&data, &indices, &params, seed);
        prop_assert_eq!(bit_dump(&fitted), bit_dump(&reference), "params {:?}", params);
    }
}

#[test]
fn section6_like_data_has_ties_and_signed_zeros() {
    let d = section6_like(300, 100, 120, 7);
    let column = |f: usize| d.features().iter().map(move |r| r[f]);
    let negative_zeros =
        (0..d.width()).flat_map(column).filter(|v| v.to_bits() == (-0.0f64).to_bits()).count();
    assert!(negative_zeros > 100, "{negative_zeros} -0.0 cells");
    let distinct_hours = {
        let mut h: Vec<u64> = column(0).map(f64::to_bits).collect();
        h.sort_unstable();
        h.dedup();
        h.len()
    };
    assert!(distinct_hours > 50, "{distinct_hours} distinct hours");
    let mut labels = d.labels().to_vec();
    labels.sort_unstable();
    labels.dedup();
    assert!(labels.len() > 60, "{} classes present", labels.len());
}

// The builder, verbatim as it stood before the column-slab rewrite.

/// Gini impurity of a class-count vector.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn class_counts(data: &Dataset, indices: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in indices {
        counts[data.labels()[i]] += 1;
    }
    counts
}

fn leaf(data: &Dataset, indices: &[usize]) -> Node {
    let counts = class_counts(data, indices);
    let total = indices.len() as f64;
    Node::Leaf { probs: counts.iter().map(|&c| c as f64 / total).collect() }
}

/// The best split found for a node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Weighted child impurity, for the importance bookkeeping.
    n_left: usize,
}

#[allow(clippy::too_many_arguments)]
fn grow(
    data: &Dataset,
    indices: &mut [usize],
    params: &TreeParams,
    depth: usize,
    n_total: usize,
    rng: &mut StdRng,
    importances: &mut [f64],
) -> Node {
    let counts = class_counts(data, indices);
    let node_impurity = gini(&counts, indices.len());

    // Stopping conditions.
    // Gini impurity is non-negative in exact arithmetic; `<=` makes the
    // pure-node stop robust to float rounding without an exact `==`.
    if depth >= params.max_depth || indices.len() < params.min_samples_split || node_impurity <= 0.0
    {
        return leaf(data, indices);
    }

    let Some(best) = find_best_split(data, indices, params, rng) else {
        return leaf(data, indices);
    };

    // Partition indices in place around the split.
    indices.sort_by(|&a, &b| {
        data.features()[a][best.feature].total_cmp(&data.features()[b][best.feature])
    });

    // Mean-decrease-impurity bookkeeping: weight by node share of the tree.
    importances[best.feature] += indices_weight(indices.len(), n_total) * best.gain;

    let (left_idx, right_idx) = indices.split_at_mut(best.n_left);

    let left = grow(data, left_idx, params, depth + 1, n_total, rng, importances);
    let right = grow(data, right_idx, params, depth + 1, n_total, rng, importances);
    Node::Split {
        feature: best.feature,
        threshold: best.threshold,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn indices_weight(n_node: usize, n_total: usize) -> f64 {
    n_node as f64 / n_total as f64
}

fn find_best_split(
    data: &Dataset,
    indices: &[usize],
    params: &TreeParams,
    rng: &mut StdRng,
) -> Option<BestSplit> {
    let width = data.width();
    if width == 0 {
        return None;
    }
    let k = params.max_features.resolve(width);
    let mut feats: Vec<usize> = (0..width).collect();
    feats.shuffle(rng);
    feats.truncate(k);

    let parent_counts = class_counts(data, indices);
    let parent_impurity = gini(&parent_counts, indices.len());
    let n = indices.len();

    let mut best: Option<BestSplit> = None;
    let mut sorted = indices.to_vec();

    for &f in &feats {
        sorted.sort_by(|&a, &b| data.features()[a][f].total_cmp(&data.features()[b][f]));

        // Incremental left/right class counts while sweeping the sorted
        // order; candidate thresholds sit between distinct values.
        let mut left_counts = vec![0usize; data.n_classes()];
        let mut right_counts = parent_counts.clone();

        for cut in 1..n {
            let prev = sorted[cut - 1];
            let label = data.labels()[prev];
            left_counts[label] += 1;
            right_counts[label] -= 1;

            let v_prev = data.features()[prev][f];
            let v_next = data.features()[sorted[cut]][f];
            if v_prev == v_next {
                continue; // cannot split between equal values
            }
            if cut < params.min_samples_leaf || n - cut < params.min_samples_leaf {
                continue;
            }

            let gl = gini(&left_counts, cut);
            let gr = gini(&right_counts, n - cut);
            let weighted = (cut as f64 * gl + (n - cut) as f64 * gr) / n as f64;
            let gain = parent_impurity - weighted;
            if gain > 1e-12 && best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                best = Some(BestSplit {
                    feature: f,
                    threshold: (v_prev + v_next) / 2.0,
                    gain,
                    n_left: cut,
                });
            }
        }
    }
    best
}
