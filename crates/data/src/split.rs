//! Train/test splitting utilities.
//!
//! The paper (§7, §8) splits every dataset *by user*: 90% of users form the
//! training set and 10% the test set, with the same split reused for every
//! model. For the small MPU dataset it uses 4-fold cross-validation by user
//! instead, evaluating on the combined out-of-fold predictions.

use crate::schema::{Dataset, UserHistory};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A user-level train/test split of a dataset (views by index).
#[derive(Debug, Clone, PartialEq)]
pub struct UserSplit {
    /// Indices into `dataset.users` forming the training set.
    pub train: Vec<usize>,
    /// Indices into `dataset.users` forming the test set.
    pub test: Vec<usize>,
    /// Seed used to shuffle users.
    pub seed: u64,
}

impl UserSplit {
    /// Splits users into train/test with the given test fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < test_fraction < 1`.
    pub fn new(dataset: &Dataset, test_fraction: f64, seed: u64) -> Self {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0, 1)"
        );
        let mut indices: Vec<usize> = (0..dataset.users.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let test_len = ((dataset.users.len() as f64) * test_fraction).round() as usize;
        let test_len = test_len.clamp(1, dataset.users.len().saturating_sub(1).max(1));
        let test = indices[..test_len].to_vec();
        let train = indices[test_len..].to_vec();
        Self { train, test, seed }
    }

    /// The paper's default split: 90% train / 10% test.
    pub fn ninety_ten(dataset: &Dataset, seed: u64) -> Self {
        Self::new(dataset, 0.10, seed)
    }

    /// Iterates over training users.
    pub fn train_users<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> impl Iterator<Item = &'a UserHistory> {
        self.train.iter().map(move |&i| &dataset.users[i])
    }

    /// Iterates over test users.
    pub fn test_users<'a>(&'a self, dataset: &'a Dataset) -> impl Iterator<Item = &'a UserHistory> {
        self.test.iter().map(move |&i| &dataset.users[i])
    }

    /// Checks that no user appears in both halves and every user appears in
    /// exactly one.
    pub fn is_partition(&self, dataset: &Dataset) -> bool {
        let mut seen = vec![false; dataset.users.len()];
        for &i in self.train.iter().chain(self.test.iter()) {
            if i >= seen.len() || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

/// A k-fold cross-validation split by user (used for MPU with k = 4).
#[derive(Debug, Clone, PartialEq)]
pub struct KFoldSplit {
    folds: Vec<Vec<usize>>,
    /// Seed used to shuffle users.
    pub seed: u64,
}

impl KFoldSplit {
    /// Creates a k-fold split of the dataset's users.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k` exceeds the number of users.
    pub fn new(dataset: &Dataset, k: usize, seed: u64) -> Self {
        assert!(k >= 2, "k must be at least 2");
        assert!(
            k <= dataset.users.len(),
            "cannot build {k} folds from {} users",
            dataset.users.len()
        );
        let mut indices: Vec<usize> = (0..dataset.users.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (pos, idx) in indices.into_iter().enumerate() {
            folds[pos % k].push(idx);
        }
        Self { folds, seed }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.folds.len()
    }

    /// Returns `(train_indices, test_indices)` for fold `fold`.
    ///
    /// # Panics
    ///
    /// Panics if `fold >= k`.
    pub fn fold(&self, fold: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(fold < self.folds.len(), "fold index out of range");
        let test = self.folds[fold].clone();
        let train = self
            .folds
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != fold)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        (train, test)
    }

    /// Iterates over all folds as `(train_indices, test_indices)` pairs.
    pub fn iter_folds(&self) -> impl Iterator<Item = (Vec<usize>, Vec<usize>)> + '_ {
        (0..self.k()).map(|i| self.fold(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatasetKind, UserHistory, UserId};

    fn dataset(n: usize) -> Dataset {
        Dataset {
            kind: DatasetKind::MobileTab,
            start_timestamp: 0,
            num_days: 30,
            users: (0..n as u64)
                .map(|i| UserHistory::new(UserId(i), vec![]))
                .collect(),
        }
    }

    #[test]
    fn ninety_ten_partition() {
        let ds = dataset(100);
        let split = UserSplit::ninety_ten(&ds, 7);
        assert_eq!(split.test.len(), 10);
        assert_eq!(split.train.len(), 90);
        assert!(split.is_partition(&ds));
        assert_eq!(split.train_users(&ds).count(), 90);
        assert_eq!(split.test_users(&ds).count(), 10);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let ds = dataset(50);
        assert_eq!(UserSplit::ninety_ten(&ds, 1), UserSplit::ninety_ten(&ds, 1));
        assert_ne!(
            UserSplit::ninety_ten(&ds, 1).test,
            UserSplit::ninety_ten(&ds, 2).test
        );
    }

    #[test]
    fn tiny_dataset_still_produces_both_halves() {
        let ds = dataset(3);
        let split = UserSplit::new(&ds, 0.1, 0);
        assert!(!split.train.is_empty());
        assert!(!split.test.is_empty());
        assert!(split.is_partition(&ds));
    }

    #[test]
    #[should_panic(expected = "test_fraction")]
    fn invalid_fraction_panics() {
        let ds = dataset(10);
        let _ = UserSplit::new(&ds, 1.5, 0);
    }

    #[test]
    fn kfold_covers_every_user_exactly_once_as_test() {
        let ds = dataset(103);
        let kf = KFoldSplit::new(&ds, 4, 3);
        assert_eq!(kf.k(), 4);
        let mut seen = vec![0usize; 103];
        for (train, test) in kf.iter_folds() {
            assert_eq!(train.len() + test.len(), 103);
            for &i in &test {
                seen[i] += 1;
            }
            // Train and test are disjoint.
            let test_set: std::collections::HashSet<_> = test.iter().collect();
            assert!(train.iter().all(|i| !test_set.contains(i)));
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn kfold_requires_k_at_least_two() {
        let ds = dataset(10);
        let _ = KFoldSplit::new(&ds, 1, 0);
    }

    #[test]
    fn fold_sizes_balanced() {
        let ds = dataset(10);
        let kf = KFoldSplit::new(&ds, 4, 0);
        for (_, test) in kf.iter_folds() {
            assert!(test.len() == 2 || test.len() == 3);
        }
    }
}
