//! CART decision trees with gini impurity.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;

#[cfg(test)]
pub(crate) mod reference;

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// ⌈√width⌉ random features per split (the random-forest default).
    Sqrt,
    /// A fixed count (clamped to the width).
    Fixed(usize),
}

impl MaxFeatures {
    fn resolve(self, width: usize) -> usize {
        match self {
            MaxFeatures::All => width,
            MaxFeatures::Sqrt => (width as f64).sqrt().ceil() as usize,
            MaxFeatures::Fixed(n) => n.clamp(1, width),
        }
        .max(1)
    }
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// A node with fewer samples becomes a leaf.
    pub min_samples_split: usize,
    /// A split may not create a child smaller than this.
    pub min_samples_leaf: usize,
    /// Feature subsetting per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class probabilities (training-count normalized).
        probs: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
    /// Un-normalized gini importance accumulated per feature.
    importances: Vec<f64>,
}

/// Gini impurity of a class-count vector.
///
/// The sum runs in slice order. A zero count adds an exact `+0.0`, which
/// leaves every partial sum's bits unchanged, so summing only the classes
/// present at a node, in ascending class order, gives the bits of the sum
/// over every class.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

/// [`gini`] of both sides of a cut, given the node's class counts and the
/// left side's, as two interleaved sums. Each sum still runs in slice
/// order over non-negative terms, so starting it at `0.0` gives the bits
/// `Sum` gives.
fn gini_pair(node: &[usize], left: &[usize], n_left: usize, n_right: usize) -> (f64, f64) {
    let (tl, tr) = (n_left as f64, n_right as f64);
    let (mut sl, mut sr) = (0.0f64, 0.0f64);
    for (&all, &l) in node.iter().zip(left) {
        sl += (l as f64 / tl).powi(2);
        sr += ((all - l) as f64 / tr).powi(2);
    }
    (1.0 - sl, 1.0 - sr)
}

impl DecisionTree {
    /// Fits a tree on `data` (uses every row).
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or a NaN feature value.
    pub fn fit(data: &Dataset, params: &TreeParams, seed: u64) -> DecisionTree {
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &indices, params, seed)
    }

    /// Fits a tree on a subset of rows of `data`; repeated rows count
    /// once per repeat, as in a bootstrap sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty `indices` or a NaN feature value anywhere in
    /// `data`.
    pub fn fit_on(
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> DecisionTree {
        Self::fit_columns(&Columns::new(data), indices, params, seed)
    }

    /// [`DecisionTree::fit_on`] over a column slab shared by many trees.
    pub(crate) fn fit_columns(
        cols: &Columns,
        indices: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> DecisionTree {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let mut builder = Builder::new(cols, params, indices.len(), seed);
        let mut rows = indices.to_vec();
        let root = builder.grow(&mut rows, 0);
        DecisionTree { root, n_classes: cols.n_classes, importances: builder.importances }
    }

    /// Class-probability vector for one feature row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.leaf_probs(row).to_vec()
    }

    /// The class probabilities of the leaf `row` lands in.
    pub(crate) fn leaf_probs(&self, row: &[f64]) -> &[f64] {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { probs } => return probs,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Most likely class for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(&self.predict_proba(row))
    }

    /// Number of classes the tree was trained with.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Raw (un-normalized) gini importances, one per feature.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Tree depth (root = 0; a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => c(left) + c(right),
            }
        }
        c(&self.root)
    }
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
}

/// A dataset's features stored column by column, with their labels: the
/// layout the split search reads, built once per forest.
pub(crate) struct Columns<'a> {
    /// Feature `f` of row `r` at `f * rows + r`.
    values: Vec<f64>,
    rows: usize,
    width: usize,
    labels: &'a [usize],
    n_classes: usize,
}

impl<'a> Columns<'a> {
    /// # Panics
    ///
    /// If any feature value is NaN: the split search compares values with
    /// `==` and `total_cmp`, which disagree on NaN.
    pub(crate) fn new(data: &'a Dataset) -> Columns<'a> {
        let (rows, width) = (data.len(), data.width());
        let mut values = Vec::with_capacity(rows * width);
        for f in 0..width {
            values.extend(data.features().iter().map(|row| row[f]));
            let col = &values[f * rows..];
            assert!(!col.iter().any(|v| v.is_nan()), "feature {f} has a NaN value");
        }
        Columns { values, rows, width, labels: data.labels(), n_classes: data.n_classes() }
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.rows..(f + 1) * self.rows]
    }
}

/// The best split found for a node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    /// The largest value (in `total_cmp` order) left of the cut.
    v_prev: f64,
    gain: f64,
    n_left: usize,
}

/// One tree's growth state. Every buffer is sized once per tree and reused
/// at every node, so growing a node allocates only the node itself.
///
/// For each drawn feature the node's `(value, class)` pairs are gathered
/// and put in `total_cmp` order (a column with one value at the node is
/// skipped). One sweep then scores every cut.
///
/// The fitted tree is bit-identical to a search that sorts the node's rows
/// by each drawn feature and sums gini over every class (kept as the test
/// reference):
///
/// * the sorted value sequence is the same whatever the tie order, and a
///   cut is only evaluated between values that differ under `==`, so the
///   class counts, gain, threshold and `n_left` at every cut are too;
/// * gini sums the classes present at the node in ascending order, which
///   differs from the all-class sum only by exact `+0.0` terms;
/// * the row order inside a node feeds no output, so the children are
///   partitioned in one pass by `total_cmp` against the last value left of
///   the cut;
/// * the per-node feature shuffle still permutes every feature, so the
///   random stream is consumed exactly as before.
///
/// This needs NaN-free features (NaNs are never equal, so cuts between
/// them would depend on tie order); [`Columns::new`] rejects NaN.
struct Builder<'a> {
    cols: &'a Columns<'a>,
    params: &'a TreeParams,
    rng: StdRng,
    n_total: usize,
    importances: Vec<f64>,
    /// Per-class scratch counter, all zero between nodes.
    class_count: Vec<usize>,
    /// Each present class's position in `present`.
    local: Vec<usize>,
    /// The classes present at the node, ascending.
    present: Vec<usize>,
    /// The node's count of each class in `present`.
    node_counts: Vec<usize>,
    /// The count of each class in `present` left of the current cut.
    left_counts: Vec<usize>,
    /// The feature permutation drawn at every node.
    feats: Vec<usize>,
    /// The local class of each of the node's rows, in row order.
    node_labels: Vec<usize>,
    /// `(value, local class)` of the node's rows for one drawn feature,
    /// in `total_cmp` order of the value.
    sorted: Vec<(f64, usize)>,
}

impl<'a> Builder<'a> {
    fn new(cols: &'a Columns<'a>, params: &'a TreeParams, n_total: usize, seed: u64) -> Self {
        Builder {
            cols,
            params,
            rng: StdRng::seed_from_u64(seed),
            n_total,
            importances: vec![0.0; cols.width],
            class_count: vec![0; cols.n_classes],
            local: vec![0; cols.n_classes],
            present: Vec::with_capacity(cols.n_classes.min(n_total)),
            node_counts: Vec::with_capacity(cols.n_classes.min(n_total)),
            left_counts: Vec::with_capacity(cols.n_classes.min(n_total)),
            feats: (0..cols.width).collect(),
            node_labels: Vec::with_capacity(n_total),
            sorted: vec![(0.0, 0); n_total],
        }
    }

    fn grow(&mut self, rows: &mut [usize], depth: usize) -> Node {
        self.count_classes(rows);
        let n = rows.len();
        let impurity = gini(&self.node_counts, n);

        // Stopping conditions.
        // Gini impurity is non-negative in exact arithmetic; `<=` makes the
        // pure-node stop robust to float rounding without an exact `==`.
        if depth >= self.params.max_depth || n < self.params.min_samples_split || impurity <= 0.0 {
            return self.leaf(n);
        }
        let Some(best) = self.find_best_split(rows, impurity) else {
            return self.leaf(n);
        };

        let col = self.cols.column(best.feature);
        let mut n_left = 0;
        for i in 0..n {
            if col[rows[i]].total_cmp(&best.v_prev) != Ordering::Greater {
                rows.swap(i, n_left);
                n_left += 1;
            }
        }
        debug_assert_eq!(n_left, best.n_left);

        // Mean-decrease-impurity bookkeeping: weight by node share of the tree.
        self.importances[best.feature] += n as f64 / self.n_total as f64 * best.gain;

        let (left_rows, right_rows) = rows.split_at_mut(n_left);
        let left = self.grow(left_rows, depth + 1);
        let right = self.grow(right_rows, depth + 1);
        Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Fills `present`, `node_counts` and `local` for the node's rows.
    fn count_classes(&mut self, rows: &[usize]) {
        self.present.clear();
        for &r in rows {
            let c = self.cols.labels[r];
            if self.class_count[c] == 0 {
                self.present.push(c);
            }
            self.class_count[c] += 1;
        }
        self.present.sort_unstable();
        self.node_counts.clear();
        for (j, &c) in self.present.iter().enumerate() {
            self.node_counts.push(self.class_count[c]);
            self.local[c] = j;
            self.class_count[c] = 0;
        }
    }

    /// The leaf for the node last passed to `count_classes`.
    fn leaf(&self, n: usize) -> Node {
        let mut probs = vec![0.0; self.cols.n_classes];
        for (&c, &count) in self.present.iter().zip(&self.node_counts) {
            probs[c] = count as f64 / n as f64;
        }
        Node::Leaf { probs }
    }

    fn find_best_split(&mut self, rows: &[usize], parent_impurity: f64) -> Option<BestSplit> {
        let width = self.cols.width;
        if width == 0 {
            return None;
        }
        let k = self.params.max_features.resolve(width);
        for (i, f) in self.feats.iter_mut().enumerate() {
            *f = i;
        }
        self.feats.shuffle(&mut self.rng);

        let n = rows.len();
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<BestSplit> = None;
        self.node_labels.clear();
        self.node_labels.extend(rows.iter().map(|&r| self.local[self.cols.labels[r]]));

        for &f in &self.feats[..k] {
            let col = self.cols.column(f);
            let sorted = &mut self.sorted[..n];
            let first = col[rows[0]];
            let mut constant = true;
            for ((pair, &r), &l) in sorted.iter_mut().zip(rows).zip(&self.node_labels) {
                constant &= col[r] == first;
                *pair = (col[r], l);
            }
            // One value has no cut to evaluate.
            if constant {
                continue;
            }
            sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

            // Incremental left class counts while sweeping the sorted
            // order; candidate thresholds sit between distinct values.
            self.left_counts.clear();
            self.left_counts.resize(self.node_counts.len(), 0);

            for cut in 1..n {
                let (v_prev, label) = sorted[cut - 1];
                self.left_counts[label] += 1;

                let v_next = sorted[cut].0;
                if v_prev == v_next {
                    continue; // cannot split between equal values
                }
                if cut < min_leaf || n - cut < min_leaf {
                    continue;
                }

                let (gl, gr) = gini_pair(&self.node_counts, &self.left_counts, cut, n - cut);
                let weighted = (cut as f64 * gl + (n - cut) as f64 * gr) / n as f64;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: (v_prev + v_next) / 2.0,
                        v_prev,
                        gain,
                        n_left: cut,
                    });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 2-D blobs.
    fn blobs() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let jitter = (i % 7) as f64 * 0.05;
            if i % 2 == 0 {
                features.push(vec![0.0 + jitter, 1.0 - jitter]);
                labels.push(0);
            } else {
                features.push(vec![5.0 + jitter, -3.0 + jitter]);
                labels.push(1);
            }
        }
        Dataset::unnamed(features, labels, 2)
    }

    #[test]
    fn separable_data_is_classified_perfectly() {
        let d = blobs();
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        for i in 0..d.len() {
            let (row, label) = d.row(i);
            assert_eq!(t.predict(row), label);
        }
    }

    #[test]
    fn depth_zero_tree_is_a_single_leaf_majority_vote() {
        let d = blobs();
        let params = TreeParams { max_depth: 0, ..TreeParams::default() };
        let t = DecisionTree::fit(&d, &params, 1);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.depth(), 0);
        let p = t.predict_proba(&[0.0, 0.0]);
        assert!((p[0] - 0.5).abs() < 1e-12, "balanced data → 50/50 leaf");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = blobs();
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        for i in 0..d.len() {
            let p = t.predict_proba(d.row(i).0);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn xor_needs_depth_two() {
        // XOR: not linearly separable per feature; depth 1 cannot fit it,
        // depth 2 can. A deterministic jitter breaks the exact gini ties
        // that would otherwise stop greedy CART at the root (with perfectly
        // balanced XOR data every marginal split has exactly zero gain).
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let jitter = ((i * 13) % 11) as f64 * 0.004;
            features.push(vec![a as f64 + jitter, b as f64 - jitter]);
            labels.push(a ^ b);
        }
        let d = Dataset::unnamed(features, labels, 2);
        let shallow = DecisionTree::fit(
            &d,
            &TreeParams { max_depth: 1, min_samples_split: 2, ..TreeParams::default() },
            1,
        );
        let deep = DecisionTree::fit(
            &d,
            &TreeParams { max_depth: 8, min_samples_split: 2, ..TreeParams::default() },
            1,
        );
        let acc = |t: &DecisionTree| {
            (0..d.len()).filter(|&i| t.predict(d.row(i).0) == d.row(i).1).count() as f64
                / d.len() as f64
        };
        assert!(acc(&shallow) < 0.8, "depth-1 cannot solve XOR: {}", acc(&shallow));
        // Greedy CART needs a few imbalance-creating splits before the XOR
        // structure becomes visible to gini gain; depth 8 is ample.
        assert!(acc(&deep) >= 0.95, "deep tree should solve XOR: {}", acc(&deep));
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let d = blobs();
        let params = TreeParams { min_samples_leaf: 10, ..TreeParams::default() };
        let t = DecisionTree::fit(&d, &params, 1);
        // 40 rows with 10-minimum leaves allows at most 4 leaves.
        assert!(t.n_leaves() <= 4, "{} leaves", t.n_leaves());
    }

    #[test]
    fn importances_concentrate_on_informative_features() {
        // Feature 0 carries all the signal; feature 1 is noise.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let noise = ((i * 37) % 100) as f64 / 100.0;
            features.push(vec![if i % 2 == 0 { 0.0 } else { 1.0 }, noise]);
            labels.push(i % 2);
        }
        let d = Dataset::unnamed(features, labels, 2);
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        let imp = t.raw_importances();
        assert!(imp[0] > 10.0 * imp[1].max(1e-12), "importances {imp:?}");
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(9), 9);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Fixed(100).resolve(5), 5);
        assert_eq!(MaxFeatures::Fixed(0).resolve(5), 1);
    }

    #[test]
    fn single_class_data_yields_pure_leaf() {
        let d = Dataset::unnamed(vec![vec![1.0], vec![2.0], vec![3.0]], vec![0, 0, 0], 1);
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[10.0]), 0);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let d = Dataset::unnamed(vec![vec![1.0]], vec![0], 1);
        let _ = DecisionTree::fit_on(&d, &[], &TreeParams::default(), 1);
    }

    #[test]
    #[should_panic(expected = "feature 1 has a NaN value")]
    fn nan_feature_panics() {
        let d = Dataset::unnamed(
            vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![3.0, f64::NAN]],
            vec![0, 1, 0],
            2,
        );
        let _ = DecisionTree::fit(&d, &TreeParams::default(), 1);
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert!((gini(&[1, 1, 1, 1], 4) - 0.75).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }
}
