//! Interleaving of an untraced run's operations.
//!
//! The host's speed drifts over seconds, so a phase measured in one block
//! can land wholly inside a slow spell. The mix spreads every kind of
//! operation over the whole measured interval instead: each kind has a
//! share of `--seconds` and a minimum count, and the next operation is
//! always of the kind furthest from its target. A slow spell then slows
//! the same share of every kind's samples, and medians over the run stay
//! put.

/// The target of one operation kind: `share` of the measured seconds and
/// at least `min` operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Target {
    pub share: f64,
    pub min: usize,
}

/// The schedule of one run.
pub struct Mix {
    targets: Vec<Target>,
    secs: f64,
    spent: Vec<f64>,
    count: Vec<usize>,
}

impl Mix {
    pub fn new(targets: &[Target], secs: f64) -> Self {
        Mix {
            targets: targets.to_vec(),
            secs,
            spent: vec![0.0; targets.len()],
            count: vec![0; targets.len()],
        }
    }

    /// How far kind `k` is towards its target: the smaller of its share of
    /// time spent and its share of the minimum count, so 1 means both met.
    fn progress(&self, k: usize) -> f64 {
        let t = self.targets[k];
        let by_time = match t.share * self.secs {
            due if due > 0.0 => self.spent[k] / due,
            _ => f64::INFINITY,
        };
        let by_count = match t.min {
            0 => f64::INFINITY,
            min => self.count[k] as f64 / min as f64,
        };
        by_time.min(by_count)
    }

    /// The kind to run next, or `None` once every target is met. Ties go to
    /// the earlier kind.
    pub fn next(&self) -> Option<usize> {
        (0..self.targets.len())
            .map(|k| (k, self.progress(k)))
            .filter(|&(_, p)| p < 1.0)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(k, _)| k)
    }

    /// Books one operation of kind `k` that took `secs` seconds.
    pub fn done(&mut self, k: usize, secs: f64) {
        self.spent[k] += secs;
        self.count[k] += 1;
    }

    /// Operations run per kind.
    pub fn counts(&self) -> &[usize] {
        &self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `mix` with operations of fixed cost; returns the kind sequence.
    fn drive(mix: &mut Mix, cost: &[f64]) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(k) = mix.next() {
            mix.done(k, cost[k]);
            order.push(k);
        }
        order
    }

    #[test]
    fn time_shares_are_met_and_interleaved() {
        let targets = [
            Target { share: 0.5, min: 1 },
            Target {
                share: 0.25,
                min: 1,
            },
            Target {
                share: 0.25,
                min: 1,
            },
        ];
        let mut mix = Mix::new(&targets, 8.0);
        let order = drive(&mut mix, &[1.0, 1.0, 0.5]);
        assert_eq!(mix.counts(), &[4, 2, 4]);
        // No kind runs out its share in one block.
        assert_eq!(order, vec![0, 1, 2, 0, 2, 0, 1, 2, 0, 2]);
    }

    #[test]
    fn minimum_counts_outlast_the_time_budget() {
        let targets = [
            Target { share: 0.9, min: 2 },
            Target {
                share: 0.1,
                min: 20,
            },
        ];
        let mut mix = Mix::new(&targets, 1.0);
        let order = drive(&mut mix, &[0.5, 0.1]);
        assert_eq!(mix.counts(), &[2, 20]);
        // The scarce kind is spread out, not left to the end.
        let first_half = order[..order.len() / 2].iter().filter(|&&k| k == 1);
        assert!(first_half.count() >= 8);
    }

    #[test]
    fn zero_targets_run_nothing() {
        let targets = [Target { share: 0.0, min: 0 }, Target { share: 0.0, min: 3 }];
        let mut mix = Mix::new(&targets, 5.0);
        assert_eq!(drive(&mut mix, &[1.0, 1.0]), vec![1, 1, 1]);
        assert_eq!(Mix::new(&[], 5.0).next(), None);
    }
}
