//! Bootstrap-aggregated random forests.

use crate::dataset::Dataset;
use crate::tree::{Columns, DecisionTree, MaxFeatures, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeParams,
    /// Draw a bootstrap sample per tree (standard random forest) or train
    /// each tree on the full data (pure feature-subsampling ensemble).
    pub bootstrap: bool,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            tree: TreeParams { max_features: MaxFeatures::Sqrt, ..TreeParams::default() },
            bootstrap: true,
        }
    }
}

/// A fitted random forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    feature_names: Vec<String>,
    oob_accuracy: Option<f64>,
}

impl RandomForest {
    /// Fits the forest. Deterministic per `(data, params, seed)`.
    ///
    /// When bootstrapping, the out-of-bag accuracy is computed as a side
    /// effect: each row is scored by the trees whose bootstrap sample
    /// missed it, giving a validation estimate without a holdout — the
    /// "robustness to over-fitting" property §6 cites as a reason to pick
    /// random forests.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, zero trees or a NaN feature value.
    pub fn fit(data: &Dataset, params: &ForestParams, seed: u64) -> RandomForest {
        RandomForest::fit_with_threads(data, params, seed, 0)
    }

    /// [`RandomForest::fit`] with an explicit worker-thread count for tree
    /// growing: `0` auto-detects from the host, `1` trains inline. Trees
    /// are independent given their bootstrap draws, so the fitted forest —
    /// including its OOB estimate — is bit-identical for every thread
    /// count: all randomness is drawn serially up front in the exact order
    /// the serial implementation consumed it, and OOB votes are summed
    /// serially in tree order to keep float accumulation order fixed.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, zero trees or a NaN feature value.
    pub fn fit_with_threads(
        data: &Dataset,
        params: &ForestParams,
        seed: u64,
        threads: usize,
    ) -> RandomForest {
        assert!(!data.is_empty(), "cannot fit a forest on zero rows");
        assert!(params.n_trees > 0, "need at least one tree");
        let mut rng = StdRng::seed_from_u64(seed);

        // Every tree's randomness, pre-drawn in serial stream order.
        let draws: Vec<(u64, Option<Vec<usize>>)> = (0..params.n_trees)
            .map(|k| {
                let tree_seed = rng.random::<u64>() ^ k as u64;
                let indices = params
                    .bootstrap
                    .then(|| (0..data.len()).map(|_| rng.random_range(0..data.len())).collect());
                (tree_seed, indices)
            })
            .collect();

        let cols = Columns::new(data);
        let all_rows: Vec<usize> = (0..data.len()).collect();
        let fit_one = |(tree_seed, indices): &(u64, Option<Vec<usize>>)| {
            let rows = indices.as_deref().unwrap_or(&all_rows);
            DecisionTree::fit_columns(&cols, rows, &params.tree, *tree_seed)
        };
        let threads = match threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
        .min(params.n_trees);
        let trees: Vec<DecisionTree> = if threads <= 1 {
            draws.iter().map(fit_one).collect()
        } else {
            let mut indexed: Vec<(usize, DecisionTree)> = Vec::with_capacity(draws.len());
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for worker in 0..threads {
                    let draws = &draws;
                    let fit_one = &fit_one;
                    handles.push(scope.spawn(move || {
                        draws
                            .iter()
                            .enumerate()
                            .skip(worker)
                            .step_by(threads)
                            .map(|(k, d)| (k, fit_one(d)))
                            .collect::<Vec<_>>()
                    }));
                }
                for handle in handles {
                    let part = handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                    indexed.extend(part);
                }
            });
            indexed.sort_by_key(|(k, _)| *k);
            indexed.into_iter().map(|(_, t)| t).collect()
        };

        // Per-row OOB vote accumulators, summed serially in tree order so
        // the floating-point accumulation order matches a serial fit.
        let mut oob_votes: Vec<Vec<f64>> = vec![vec![0.0; data.n_classes()]; data.len()];
        let mut any_oob = false;
        for (tree, (_, indices)) in trees.iter().zip(&draws) {
            let Some(indices) = indices else { continue };
            let mut in_bag = vec![false; data.len()];
            for &i in indices {
                in_bag[i] = true;
            }
            for (i, bagged) in in_bag.iter().enumerate() {
                if !bagged {
                    any_oob = true;
                    for (acc, p) in oob_votes[i].iter_mut().zip(tree.leaf_probs(data.row(i).0)) {
                        *acc += p;
                    }
                }
            }
        }

        let oob_accuracy = if params.bootstrap && any_oob {
            let mut hits = 0usize;
            let mut voted = 0usize;
            for (i, votes) in oob_votes.iter().enumerate() {
                let total: f64 = votes.iter().sum();
                if total > 0.0 {
                    voted += 1;
                    let predicted = votes
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(c, _)| c)
                        .unwrap_or(0);
                    if predicted == data.row(i).1 {
                        hits += 1;
                    }
                }
            }
            (voted > 0).then(|| hits as f64 / voted as f64)
        } else {
            None
        };

        RandomForest {
            trees,
            n_classes: data.n_classes(),
            feature_names: data.feature_names().to_vec(),
            oob_accuracy,
        }
    }

    /// Out-of-bag accuracy estimate (`None` without bootstrapping, or when
    /// every row landed in every bag).
    pub fn oob_accuracy(&self) -> Option<f64> {
        self.oob_accuracy
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Mean class-probability vector across trees.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for t in &self.trees {
            for (a, p) in acc.iter_mut().zip(t.leaf_probs(row)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f64;
        for a in acc.iter_mut() {
            *a /= n;
        }
        acc
    }

    /// Most likely class.
    pub fn predict(&self, row: &[f64]) -> usize {
        let p = self.predict_proba(row);
        p.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
    }

    /// The `k` most likely classes, most probable first — the prediction
    /// form behind the paper's top-k accuracy metric (Figure 8).
    pub fn predict_top_k(&self, row: &[f64], k: usize) -> Vec<usize> {
        let p = self.predict_proba(row);
        let mut idx: Vec<usize> = (0..p.len()).collect();
        idx.sort_by(|&a, &b| p[b].total_cmp(&p[a]));
        idx.truncate(k);
        idx
    }

    /// Normalized gini importances (mean decrease in impurity), one per
    /// feature, summing to 1 — §6's explainability tool.
    pub fn feature_importances(&self) -> Vec<f64> {
        let width = self.feature_names.len();
        let mut acc = vec![0.0; width];
        for t in &self.trees {
            for (a, &v) in acc.iter_mut().zip(t.raw_importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in acc.iter_mut() {
                *a /= total;
            }
        }
        acc
    }

    /// `(name, importance)` pairs sorted descending — the form the §6
    /// feature-importance table prints.
    pub fn ranked_importances(&self) -> Vec<(String, f64)> {
        let imp = self.feature_importances();
        let mut pairs: Vec<(String, f64)> = self.feature_names.iter().cloned().zip(imp).collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three noisy blobs in 3-D; feature 2 is pure noise.
    fn blobs3() -> Dataset {
        let centers = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]];
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..150 {
            let c = i % 3;
            let j1 = ((i * 31) % 17) as f64 / 17.0 - 0.5;
            let j2 = ((i * 53) % 13) as f64 / 13.0 - 0.5;
            let noise = ((i * 71) % 23) as f64 / 23.0;
            features.push(vec![centers[c][0] + j1, centers[c][1] + j2, noise]);
            labels.push(c);
        }
        Dataset::unnamed(features, labels, 3)
    }

    #[test]
    fn forest_classifies_blobs() {
        let d = blobs3();
        let f = RandomForest::fit(&d, &ForestParams { n_trees: 30, ..Default::default() }, 7);
        let correct = (0..d.len()).filter(|&i| f.predict(d.row(i).0) == d.row(i).1).count();
        assert!(correct as f64 / d.len() as f64 > 0.95, "train accuracy {correct}/150");
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let d = blobs3();
        let p = ForestParams { n_trees: 10, ..Default::default() };
        let a = RandomForest::fit(&d, &p, 3);
        let b = RandomForest::fit(&d, &p, 3);
        for i in 0..d.len() {
            assert_eq!(a.predict_proba(d.row(i).0), b.predict_proba(d.row(i).0));
        }
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let d = blobs3();
        for bootstrap in [true, false] {
            let p = ForestParams { n_trees: 9, bootstrap, ..Default::default() };
            let serial = RandomForest::fit_with_threads(&d, &p, 11, 1);
            let parallel = RandomForest::fit_with_threads(&d, &p, 11, 4);
            assert_eq!(
                serial.oob_accuracy().map(f64::to_bits),
                parallel.oob_accuracy().map(f64::to_bits)
            );
            for i in 0..d.len() {
                let a = serial.predict_proba(d.row(i).0);
                let b = parallel.predict_proba(d.row(i).0);
                let a: Vec<u64> = a.into_iter().map(f64::to_bits).collect();
                let b: Vec<u64> = b.into_iter().map(f64::to_bits).collect();
                assert_eq!(a, b, "row {i} bootstrap {bootstrap}");
            }
            let a: Vec<u64> = serial.feature_importances().into_iter().map(f64::to_bits).collect();
            let b: Vec<u64> =
                parallel.feature_importances().into_iter().map(f64::to_bits).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let d = blobs3();
        let f = RandomForest::fit(&d, &ForestParams { n_trees: 12, ..Default::default() }, 7);
        let p = f.predict_proba(&[2.0, 2.0, 0.5]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_is_ordered_and_contains_top_1() {
        let d = blobs3();
        let f = RandomForest::fit(&d, &ForestParams { n_trees: 12, ..Default::default() }, 7);
        let row = d.row(5).0;
        let top3 = f.predict_top_k(row, 3);
        assert_eq!(top3.len(), 3);
        assert_eq!(top3[0], f.predict(row));
        let p = f.predict_proba(row);
        assert!(p[top3[0]] >= p[top3[1]] && p[top3[1]] >= p[top3[2]]);
        // k beyond the class count clamps.
        assert_eq!(f.predict_top_k(row, 10).len(), 3);
    }

    #[test]
    fn importances_are_normalized_and_rank_noise_last() {
        let d = blobs3();
        let f = RandomForest::fit(&d, &ForestParams { n_trees: 30, ..Default::default() }, 7);
        let imp = f.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let ranked = f.ranked_importances();
        assert_eq!(ranked.last().unwrap().0, "f2", "noise feature must rank last: {ranked:?}");
    }

    #[test]
    fn more_trees_do_not_hurt_on_train_data() {
        let d = blobs3();
        let small = RandomForest::fit(&d, &ForestParams { n_trees: 2, ..Default::default() }, 9);
        let big = RandomForest::fit(&d, &ForestParams { n_trees: 40, ..Default::default() }, 9);
        let acc = |f: &RandomForest| {
            (0..d.len()).filter(|&i| f.predict(d.row(i).0) == d.row(i).1).count()
        };
        assert!(acc(&big) + 3 >= acc(&small));
    }

    #[test]
    fn oob_accuracy_tracks_generalization() {
        let d = blobs3();
        let f = RandomForest::fit(&d, &ForestParams { n_trees: 30, ..Default::default() }, 7);
        let oob = f.oob_accuracy().expect("bootstrap forests have OOB");
        // Separable blobs: OOB should be high but it is a genuine
        // held-out estimate, so allow slack below train accuracy.
        assert!(oob > 0.85, "oob {oob}");
        assert!(oob <= 1.0);
    }

    #[test]
    fn no_bootstrap_means_no_oob() {
        let d = blobs3();
        let f = RandomForest::fit(
            &d,
            &ForestParams { n_trees: 5, bootstrap: false, ..Default::default() },
            7,
        );
        assert!(f.oob_accuracy().is_none());
    }

    /// A 60-tree §6-shaped forest pinned bit for bit: every node of every
    /// tree, the OOB estimate and the normalized importances. The hash was
    /// recorded with the row-sorting builder the split search replaced.
    #[test]
    fn sixty_tree_forest_matches_its_golden_hash() {
        use crate::tree::reference::{bit_dump, fnv1a, section6_like};
        let d = section6_like(240, 120, 140, 2023);
        let params = ForestParams {
            n_trees: 60,
            tree: TreeParams {
                max_depth: 14,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: MaxFeatures::Sqrt,
            },
            bootstrap: true,
        };
        let f = RandomForest::fit(&d, &params, 1);
        let words = f
            .trees
            .iter()
            .flat_map(bit_dump)
            .chain(f.oob_accuracy().map(f64::to_bits))
            .chain(f.feature_importances().into_iter().map(f64::to_bits));
        assert_eq!(fnv1a(words), 0xe175_e6fc_4443_b075);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_data_panics() {
        let d = Dataset::unnamed(vec![], vec![], 2);
        let _ = RandomForest::fit(&d, &ForestParams::default(), 1);
    }

    #[test]
    #[should_panic(expected = "NaN value")]
    fn nan_feature_panics() {
        let d = Dataset::unnamed(vec![vec![0.0, 1.0], vec![2.0, f64::NAN]], vec![0, 1], 2);
        let _ = RandomForest::fit(&d, &ForestParams { n_trees: 2, ..ForestParams::default() }, 1);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let d = blobs3();
        let _ = RandomForest::fit(&d, &ForestParams { n_trees: 0, ..Default::default() }, 1);
    }
}
