//! Disjoint-set forest with union by rank and path halving.
//!
//! Its one reader is the property test in `cobra_graph::props` that
//! cross-checks the BFS component labelling against it.

/// Union-find over `0..len`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "UnionFind capacity overflow");
        UnionFind {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Finds the representative of `x`, halving paths as it goes.
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p] as usize;
            self.parent[x] = gp as u32;
            x = gp;
        }
    }

    /// Merges the sets containing `a` and `b`; returns true if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_at_start() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(!uf.connected(0, 1));
        assert!(uf.connected(2, 2));
    }

    #[test]
    fn union_reduces_components() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 2);
        assert!(!uf.union(1, 0), "repeat union is a no-op");
        assert!(uf.union(0, 3));
        assert_eq!(uf.components(), 1);
        assert!(uf.connected(1, 2));
    }

    #[test]
    fn chain_unions_connect_everything() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.components(), 1);
        assert!(uf.connected(0, n - 1));
    }

    proptest! {
        /// Components always equals len minus the number of successful unions,
        /// and connectivity is an equivalence relation consistent with a
        /// reference model.
        #[test]
        fn agrees_with_reference(pairs in proptest::collection::vec((0usize..64, 0usize..64), 0..200)) {
            let mut uf = UnionFind::new(64);
            // Reference: adjacency closure via repeated relabelling.
            let mut label: Vec<usize> = (0..64).collect();
            for (a, b) in pairs {
                let merged = uf.union(a, b);
                let (la, lb) = (label[a], label[b]);
                prop_assert_eq!(merged, la != lb);
                if la != lb {
                    for l in label.iter_mut() {
                        if *l == lb { *l = la; }
                    }
                }
            }
            let distinct: std::collections::BTreeSet<usize> = label.iter().copied().collect();
            prop_assert_eq!(uf.components(), distinct.len());
            for a in 0..64 {
                for b in (a+1)..64 {
                    prop_assert_eq!(uf.connected(a, b), label[a] == label[b]);
                }
            }
        }
    }
}
