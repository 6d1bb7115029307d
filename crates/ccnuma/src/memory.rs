//! Physical memory: per-node frame pools and the virtual→physical map.
//!
//! Frames are 16 KB (one page) and are numbered consecutively within nodes,
//! so the home node of a frame is `frame / frames_per_node` — a pure
//! function, as on real hardware where a physical address encodes its memory
//! module. Allocation is deterministic: each node hands out its
//! lowest-numbered free frame first.
//!
//! Bookkeeping is sized by use, not by the machine: a node keeps a bump mark
//! below which every frame has been allocated at least once, plus the set of
//! frames returned since. Returned frames always sit below the mark, so
//! "lowest returned frame, else the mark" is exactly "lowest free frame".

use crate::topology::NodeId;
use std::collections::BTreeSet;

/// Identifier of a physical page frame.
pub type FrameId = usize;

/// Per-node physical frame pools.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    frames_per_node: usize,
    nodes: usize,
    /// Per node: how many of its frames were ever allocated. Frames at and
    /// above `node * frames_per_node + bumped[node]` are free and untracked.
    bumped: Vec<usize>,
    /// Per node: frames below the bump mark that were freed again.
    /// `BTreeSet` keeps reallocation lowest-first and free/alloc O(log n).
    returned: Vec<BTreeSet<FrameId>>,
}

impl PhysicalMemory {
    /// A machine with `nodes` nodes of `frames_per_node` frames each.
    pub fn new(nodes: usize, frames_per_node: usize) -> Self {
        assert!(nodes > 0 && frames_per_node > 0);
        Self {
            frames_per_node,
            nodes,
            bumped: vec![0; nodes],
            returned: vec![BTreeSet::new(); nodes],
        }
    }

    /// Home node of a frame.
    #[inline(always)]
    pub fn node_of_frame(&self, frame: FrameId) -> NodeId {
        debug_assert!(frame < self.nodes * self.frames_per_node);
        frame / self.frames_per_node
    }

    /// Total frames in the machine.
    pub fn total_frames(&self) -> usize {
        self.nodes * self.frames_per_node
    }

    /// Frames currently free on `node`.
    pub fn free_on(&self, node: NodeId) -> usize {
        self.frames_per_node - self.bumped[node] + self.returned[node].len()
    }

    /// Total free frames.
    pub fn total_free(&self) -> usize {
        (0..self.nodes).map(|n| self.free_on(n)).sum()
    }

    /// Allocate a frame on exactly `node`; `None` if that node is full.
    pub fn alloc_on(&mut self, node: NodeId) -> Option<FrameId> {
        if let Some(frame) = self.returned[node].pop_first() {
            return Some(frame);
        }
        let offset = self.bumped[node];
        if offset == self.frames_per_node {
            return None;
        }
        self.bumped[node] += 1;
        Some(node * self.frames_per_node + offset)
    }

    /// Return a frame to its node's pool.
    ///
    /// # Panics
    /// Panics if the frame was already free (double free).
    pub fn free(&mut self, frame: FrameId) {
        let node = self.node_of_frame(frame);
        let inserted = self.below_mark(node, frame) && self.returned[node].insert(frame);
        assert!(inserted, "double free of frame {frame}");
    }

    /// Whether a frame is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        let node = self.node_of_frame(frame);
        self.below_mark(node, frame) && !self.returned[node].contains(&frame)
    }

    /// Whether `frame` (homed on `node`) was ever handed out.
    fn below_mark(&self, node: NodeId, frame: FrameId) -> bool {
        frame - node * self.frames_per_node < self.bumped[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_deterministic_lowest_first() {
        let mut m = PhysicalMemory::new(2, 4);
        assert_eq!(m.alloc_on(0), Some(0));
        assert_eq!(m.alloc_on(0), Some(1));
        assert_eq!(m.alloc_on(1), Some(4));
        m.free(0);
        assert_eq!(m.alloc_on(0), Some(0));
    }

    #[test]
    fn node_exhaustion() {
        let mut m = PhysicalMemory::new(2, 2);
        assert!(m.alloc_on(0).is_some());
        assert!(m.alloc_on(0).is_some());
        assert_eq!(m.alloc_on(0), None);
        assert_eq!(m.free_on(0), 0);
        assert_eq!(m.free_on(1), 2);
    }

    #[test]
    fn frame_to_node_mapping() {
        let m = PhysicalMemory::new(4, 8);
        assert_eq!(m.node_of_frame(0), 0);
        assert_eq!(m.node_of_frame(7), 0);
        assert_eq!(m.node_of_frame(8), 1);
        assert_eq!(m.node_of_frame(31), 3);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = PhysicalMemory::new(1, 2);
        let f = m.alloc_on(0).unwrap();
        m.free(f);
        m.free(f);
    }

    #[test]
    fn allocated_tracking() {
        let mut m = PhysicalMemory::new(1, 2);
        assert!(!m.is_allocated(0));
        let f = m.alloc_on(0).unwrap();
        assert!(m.is_allocated(f));
        m.free(f);
        assert!(!m.is_allocated(f));
    }

    /// The allocator this module replaced: every free frame of a node in
    /// one `BTreeSet`, handed out lowest-first.
    struct AllFramesModel {
        frames_per_node: usize,
        free: Vec<BTreeSet<FrameId>>,
    }

    impl AllFramesModel {
        fn new(nodes: usize, frames_per_node: usize) -> Self {
            let free = (0..nodes)
                .map(|n| (n * frames_per_node..(n + 1) * frames_per_node).collect())
                .collect();
            Self {
                frames_per_node,
                free,
            }
        }

        fn alloc_on(&mut self, node: NodeId) -> Option<FrameId> {
            self.free[node].pop_first()
        }

        fn free(&mut self, frame: FrameId) {
            let inserted = self.free[frame / self.frames_per_node].insert(frame);
            assert!(inserted, "double free of frame {frame}");
        }

        fn is_allocated(&self, frame: FrameId) -> bool {
            !self.free[frame / self.frames_per_node].contains(&frame)
        }
    }

    proptest::proptest! {
        #[test]
        fn bump_allocator_matches_the_all_frames_model(
            ops in proptest::collection::vec((0usize..3, 0usize..4, 0usize..64), 1..300),
        ) {
            // Small nodes so random sequences reach exhaustion and reuse.
            const NODES: usize = 4;
            const PER_NODE: usize = 6;
            let mut bump = PhysicalMemory::new(NODES, PER_NODE);
            let mut model = AllFramesModel::new(NODES, PER_NODE);
            let mut live: Vec<FrameId> = Vec::new();
            for (op, node, pick) in ops {
                if op < 2 || live.is_empty() {
                    let got = bump.alloc_on(node);
                    proptest::prop_assert_eq!(got, model.alloc_on(node));
                    live.extend(got);
                } else {
                    let frame = live.swap_remove(pick % live.len());
                    bump.free(frame);
                    model.free(frame);
                }
                for n in 0..NODES {
                    proptest::prop_assert_eq!(bump.free_on(n), model.free[n].len());
                }
                for f in 0..NODES * PER_NODE {
                    proptest::prop_assert_eq!(bump.is_allocated(f), model.is_allocated(f));
                }
            }
            let model_free: usize = model.free.iter().map(BTreeSet::len).sum();
            proptest::prop_assert_eq!(bump.total_free(), model_free);
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_a_never_allocated_frame_panics() {
        let mut m = PhysicalMemory::new(2, 4);
        m.free(5);
    }
}
