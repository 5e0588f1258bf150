//! Kinematic-tree topology: parent arrays, subtree sets, branch
//! decomposition and the Atlas-style re-rooting optimisation (§V-C).

use std::fmt;

/// The connectivity of a kinematic tree.
///
/// Bodies are numbered `0..NB` in a topological (regular) order: every
/// body's parent has a smaller index; `parent(i) == None` marks the root
/// (a child of the fixed world).
///
/// # Example
/// ```
/// use rbd_model::Topology;
/// // A "Y" tree: 0 → 1, then 1 → 2 and 1 → 3.
/// let t = Topology::from_parents(&[None, Some(0), Some(1), Some(1)]).unwrap();
/// assert_eq!(t.subtree(1), vec![1, 2, 3]);
/// assert_eq!(t.depth(3), 2);
/// assert_eq!(t.leaves(), vec![2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

/// Error constructing a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// `parent[i] >= i`, violating the topological numbering.
    NotTopological {
        /// Offending body.
        body: usize,
    },
    /// The tree has no bodies.
    Empty,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotTopological { body } => {
                write!(f, "body {body} has parent with index >= its own")
            }
            Self::Empty => write!(f, "topology must contain at least one body"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Builds a topology from a parent array.
    ///
    /// # Errors
    /// Returns an error if the array is empty or not topologically ordered.
    pub fn from_parents(parents: &[Option<usize>]) -> Result<Self, TopologyError> {
        if parents.is_empty() {
            return Err(TopologyError::Empty);
        }
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                if *p >= i {
                    return Err(TopologyError::NotTopological { body: i });
                }
            }
        }
        let mut children = vec![Vec::new(); parents.len()];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        Ok(Self {
            parent: parents.to_vec(),
            children,
        })
    }

    /// Number of bodies `NB`.
    pub fn num_bodies(&self) -> usize {
        self.parent.len()
    }

    /// Parent of body `i` (`None` for roots attached to the world).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Children of body `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// The paper's `tree(i)`: ids of all bodies in the subtree rooted at
    /// `i`, including `i`, in increasing order (its `treee(i)` is this
    /// without `i`).
    pub fn subtree(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![i];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend_from_slice(&self.children[n]);
        }
        out.sort_unstable();
        out
    }

    /// Ancestors of `i` from its parent up to a root (exclusive of `i`).
    pub fn ancestors(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.parent[i];
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent[p];
        }
        out
    }

    /// Depth of body `i` (root depth = 0).
    pub fn depth(&self, i: usize) -> usize {
        self.ancestors(i).len()
    }

    /// Maximum depth over all bodies, plus one (= number of pipeline
    /// levels; the paper's "depth of the topological tree").
    pub fn max_depth(&self) -> usize {
        (0..self.num_bodies())
            .map(|i| self.depth(i) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Bodies with no children, in increasing order.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.num_bodies())
            .filter(|&i| self.children[i].is_empty())
            .collect()
    }

    /// Decomposes the tree into maximal unbranched segments ("branches" in
    /// the SAP sense). Each segment is a path `[first..last]` where only
    /// the last body may branch or be a leaf. Segments are returned
    /// root-first.
    pub fn segments(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut starts: Vec<usize> = (0..self.num_bodies())
            .filter(|&i| self.parent[i].is_none())
            .collect();
        let mut idx = 0;
        while idx < starts.len() {
            let start = starts[idx];
            idx += 1;
            let mut seg = vec![start];
            let mut cur = start;
            while self.children[cur].len() == 1 {
                cur = self.children[cur][0];
                seg.push(cur);
            }
            for &c in &self.children[cur] {
                starts.push(c);
            }
            out.push(seg);
        }
        out
    }

    /// Re-roots the tree at `new_root` (§V-C1, Fig 11c).
    ///
    /// Connectivity is preserved; edges on the path from the old root to
    /// `new_root` are reversed. Returns the re-rooted topology together
    /// with `map`, where `map[new_id] = old_id`.
    ///
    /// This operates at the connectivity level (as used for pipeline
    /// organisation); building an equivalent *dynamic* model additionally
    /// requires reversing joint placements.
    ///
    /// # Panics
    /// Panics if the tree has multiple roots (a forest) or `new_root` is
    /// out of range.
    pub fn reroot(&self, new_root: usize) -> (Topology, Vec<usize>) {
        assert!(new_root < self.num_bodies());
        let roots: Vec<usize> = (0..self.num_bodies())
            .filter(|&i| self.parent[i].is_none())
            .collect();
        assert_eq!(roots.len(), 1, "reroot requires a single-root tree");

        // Build the undirected adjacency, then BFS from the new root.
        let n = self.num_bodies();
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            if let Some(p) = self.parent[i] {
                adj[i].push(p);
                adj[p].push(i);
            }
        }
        let mut old_parent_new = vec![usize::MAX; n]; // old-id parent in the new tree
        let mut order = vec![new_root];
        let mut seen = vec![false; n];
        seen[new_root] = true;
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    old_parent_new[v] = u;
                    order.push(v);
                }
            }
        }
        // BFS order is already topological; renumber along it.
        let map = order.clone(); // map[new] = old
        let mut inv = vec![0usize; n];
        for (new_id, &old_id) in map.iter().enumerate() {
            inv[old_id] = new_id;
        }
        let parents: Vec<Option<usize>> = map
            .iter()
            .map(|&old| {
                if old == new_root {
                    None
                } else {
                    Some(inv[old_parent_new[old]])
                }
            })
            .collect();
        (
            Topology::from_parents(&parents).expect("reroot produced invalid topology"),
            map,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `true` when the tree is a single unbranched chain.
    pub(crate) fn is_chain(t: &Topology) -> bool {
        (0..t.num_bodies()).all(|i| t.children(i).len() <= 1)
    }

    fn y_tree() -> Topology {
        // 0 - 1 - 2 - 3
        //       \ 4 - 5
        Topology::from_parents(&[None, Some(0), Some(1), Some(2), Some(1), Some(4)]).unwrap()
    }

    #[test]
    fn rejects_bad_ordering() {
        assert!(matches!(
            Topology::from_parents(&[Some(0), None]),
            Err(TopologyError::NotTopological { body: 0 })
        ));
        assert!(matches!(
            Topology::from_parents(&[]),
            Err(TopologyError::Empty)
        ));
    }

    #[test]
    fn subtree_sets() {
        let t = y_tree();
        assert_eq!(t.subtree(0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.subtree(4), vec![4, 5]);
        assert_eq!(t.subtree(1)[1..], [2, 3, 4, 5]);
        assert_eq!(t.subtree(3), vec![3]);
    }

    #[test]
    fn ancestors_and_depth() {
        let t = y_tree();
        assert_eq!(t.ancestors(5), vec![4, 1, 0]);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(5), 3);
        assert_eq!(t.max_depth(), 4);
        let ancestor_or_self = |a: usize, d: usize| a == d || t.ancestors(d).contains(&a);
        assert!(ancestor_or_self(1, 5));
        assert!(ancestor_or_self(5, 5));
        assert!(!ancestor_or_self(2, 5));
    }

    #[test]
    fn leaves_and_chain() {
        let t = y_tree();
        assert_eq!(t.leaves(), vec![3, 5]);
        assert!(!is_chain(&t));
        let chain = Topology::from_parents(&[None, Some(0), Some(1)]).unwrap();
        assert!(is_chain(&chain));
    }

    #[test]
    fn segments_decompose_tree() {
        let t = y_tree();
        let segs = t.segments();
        assert_eq!(segs[0], vec![0, 1]);
        let mut rest: Vec<Vec<usize>> = segs[1..].to_vec();
        rest.sort();
        assert_eq!(rest, vec![vec![2, 3], vec![4, 5]]);
        // Segments partition the bodies.
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, t.num_bodies());
    }

    #[test]
    fn reroot_preserves_connectivity_and_reduces_depth() {
        // A pure chain 0-…-8: rerooting at the midpoint halves the depth.
        let parents: Vec<Option<usize>> = (0..9)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        let t = Topology::from_parents(&parents).unwrap();
        assert_eq!(t.max_depth(), 9);
        let (r, map) = t.reroot(4);
        assert_eq!(r.max_depth(), 5);
        assert_eq!(r.num_bodies(), t.num_bodies());
        assert!(r.max_depth() <= t.max_depth());
        // Edge count preserved (tree property).
        let edges = |t: &Topology| {
            (0..t.num_bodies())
                .filter(|&i| t.parent(i).is_some())
                .count()
        };
        assert_eq!(edges(&r), edges(&t));
        // Connectivity preserved: undirected edge sets match through map.
        let mut old_edges: Vec<(usize, usize)> = (0..t.num_bodies())
            .filter_map(|i| t.parent(i).map(|p| (p.min(i), p.max(i))))
            .collect();
        let mut new_edges: Vec<(usize, usize)> = (0..r.num_bodies())
            .filter_map(|i| {
                r.parent(i).map(|p| {
                    let (a, b) = (map[p], map[i]);
                    (a.min(b), a.max(b))
                })
            })
            .collect();
        old_edges.sort_unstable();
        new_edges.sort_unstable();
        assert_eq!(old_edges, new_edges);
    }

    #[test]
    fn reroot_at_current_root_is_identity_topology() {
        let t = y_tree();
        let (r, map) = t.reroot(0);
        assert_eq!(map[0], 0);
        assert_eq!(r.num_bodies(), t.num_bodies());
        assert_eq!(r.max_depth(), t.max_depth());
    }
}
