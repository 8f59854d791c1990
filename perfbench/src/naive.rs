//! Plain serial loops of the benchmark's recurrences: the roofline anchor
//! for `vs_naive` and the result oracle for the batch workloads. They
//! share no code with the program under test.

/// Length of the longest common subsequence of `a` and `b`, one flat row.
pub fn lcs(a: &[u8], b: &[u8]) -> i64 {
    let mut row = vec![0i64; b.len() + 1];
    for &ca in a {
        let mut diag = 0i64;
        for j in 1..=b.len() {
            let up = row[j];
            row[j] = if ca == b[j - 1] {
                diag + 1
            } else {
                up.max(row[j - 1])
            };
            diag = up;
        }
    }
    row[b.len()]
}

/// Unit-cost edit distance of `a` and `b`, one flat row.
pub fn edit_distance(a: &[u8], b: &[u8]) -> i64 {
    let mut row: Vec<i64> = (0..=b.len() as i64).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i as i64 + 1;
        for j in 1..=b.len() {
            let up = row[j];
            let sub = diag + i64::from(ca != b[j - 1]);
            row[j] = sub.min(up + 1).min(row[j - 1] + 1);
            diag = up;
        }
    }
    row[b.len()]
}

/// `V(0)` of the 3-arm Bernoulli bandit with `n` trials and Beta priors
/// `priors[arm] = (a, b)`, over a flat array of the 6-D simplex
/// `s1 + f1 + s2 + f2 + s3 + f3 <= n` indexed by lexicographic rank.
///
/// `x + e_j` always ranks above `x`, so one sweep from the highest rank
/// down visits every state after all of its successors.
pub fn bandit3(n: i64, priors: [(f64, f64); 3]) -> f64 {
    let n = n as usize;
    let ranks = SimplexRank::new(n);
    let mut v = vec![0.0f64; ranks.size];
    let mut x = [0usize; 6];
    for r in (0..ranks.size).rev() {
        ranks.unrank(r, &mut x);
        let sum: usize = x.iter().sum();
        v[r] = if sum == n {
            (x[0] + x[2] + x[4]) as f64
        } else {
            let mut best = f64::NEG_INFINITY;
            for (arm, &(pa, pb)) in priors.iter().enumerate() {
                let (s, f) = (x[2 * arm], x[2 * arm + 1]);
                let p = (pa + s as f64) / (pa + pb + (s + f) as f64);
                x[2 * arm] += 1;
                let win = v[ranks.rank(&x)];
                x[2 * arm] -= 1;
                x[2 * arm + 1] += 1;
                let loss = v[ranks.rank(&x)];
                x[2 * arm + 1] -= 1;
                best = best.max(p * win + (1.0 - p) * loss);
            }
            best
        };
    }
    v[0]
}

/// Number of states of the 3-arm bandit lattice at `n` trials.
pub fn bandit3_cells(n: i64) -> u64 {
    SimplexRank::new(n as usize).size as u64
}

/// Lexicographic ranking of the 6-D simplex `sum(x) <= n`.
struct SimplexRank {
    n: usize,
    /// `below[k][r][v]`: states whose coordinate `k` is below `v`, given
    /// earlier coordinates equal and budget `r` left for coordinates `k..`.
    below: Vec<Vec<Vec<usize>>>,
    size: usize,
}

impl SimplexRank {
    fn new(n: usize) -> SimplexRank {
        // count(m, r): m-tuples of naturals with sum <= r = C(r + m, m).
        let count =
            |m: usize, r: usize| -> usize { (1..=m).fold(1usize, |acc, i| acc * (r + i) / i) };
        let below = (0..6)
            .map(|k| {
                (0..=n)
                    .map(|r| {
                        let mut acc = vec![0usize; r + 2];
                        for v in 0..=r {
                            acc[v + 1] = acc[v] + count(5 - k, r - v);
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        SimplexRank {
            n,
            below,
            size: count(6, n),
        }
    }

    fn rank(&self, x: &[usize; 6]) -> usize {
        let mut r = self.n;
        let mut rank = 0;
        for (k, &v) in x.iter().enumerate() {
            rank += self.below[k][r][v];
            r -= v;
        }
        rank
    }

    fn unrank(&self, mut rank: usize, x: &mut [usize; 6]) {
        let mut r = self.n;
        for (k, xk) in x.iter_mut().enumerate() {
            let row = &self.below[k][r];
            let v = row.partition_point(|&c| c <= rank) - 1;
            rank -= row[v];
            *xk = v;
            r -= v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_problems::{Bandit3, EditDistance, Lcs};

    #[test]
    fn alignment_loops_match_textbook_solvers() {
        let mut rng = crate::stats::Rng::new(11);
        for (la, lb) in [(0, 5), (7, 0), (1, 1), (40, 33), (64, 64)] {
            let a = rng.sequence(la);
            let b = rng.sequence(lb);
            if la > 0 && lb > 0 {
                assert_eq!(lcs(&a, &b), Lcs::new(&[&a, &b]).solve_dense());
            }
            assert_eq!(
                edit_distance(&a, &b),
                EditDistance::new(&a, &b).solve_dense()
            );
        }
        assert_eq!(lcs(b"ABCBDAB", b"BDCABA"), 4);
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
    }

    #[test]
    fn simplex_rank_round_trips() {
        let s = SimplexRank::new(4);
        assert_eq!(s.size, 210);
        let mut x = [0usize; 6];
        for r in 0..s.size {
            s.unrank(r, &mut x);
            assert!(x.iter().sum::<usize>() <= 4);
            assert_eq!(s.rank(&x), r);
        }
        assert_eq!(bandit3_cells(16), 74_613);
    }

    #[test]
    fn bandit3_matches_dense_solver() {
        for (n, priors) in [
            (1, [(1.0, 1.0); 3]),
            (5, [(1.0, 1.0); 3]),
            (6, [(2.0, 1.0), (1.0, 3.0), (2.0, 2.0)]),
        ] {
            let want = Bandit3 { priors }.solve_dense(n);
            let got = bandit3(n, priors);
            assert!((got - want).abs() < 1e-9, "n={n}: {got} vs {want}");
        }
    }
}
