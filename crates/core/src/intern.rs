//! The runtime encoding stack and the intern table behind its captures.
//!
//! The hooks push and pop plain [`Frame`]s on a `Vec`, exactly as before
//! interning existed. A capture needs the stack as a shared [`FrameStack`];
//! [`EncodingStack::handle`] materializes it lazily and interns it in a
//! per-stack table, trie-style: the handle of `frames[..=i]` is looked up by
//! `(handle of frames[..i], frames[i])`, and the handles of every prefix are
//! cached. A pop only lowers the cached watermark, so it restores the
//! parent's handle with no lookup; a run of captures on an unchanged stack
//! costs one reference-count bump each, and no capture re-hashes the stack.

use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

use crate::context::{Frame, FrameStack};
use crate::fasthash::FastBuildHasher;

/// Bytes the intern table of one [`EncodingStack`] may hold: the table
/// entries plus the frames of the stacks they keep alive. Past it the table
/// stops admitting new stacks, and a stack it has not seen is materialized
/// unshared — still correct, since equality is structural — and cached for
/// as long as it stays on the stack. The bound holds about 19,000 stacks of
/// six frames; the bundled suite captures 442 to 68,294 distinct stacks
/// per run, so it binds on the three most varied programs only.
const INTERN_BUDGET_BYTES: usize = 4 << 20;

/// Table bytes of one interned stack, beyond its frames: the key, the
/// handle, and the shared allocation's two reference counts.
const ENTRY_BYTES: usize =
    size_of::<(usize, Frame)>() + size_of::<FrameStack>() + 2 * size_of::<usize>();

/// The encoding stack of one thread: the frames the hooks push and pop,
/// plus the interned shared handles that captures take.
#[derive(Default)]
pub(crate) struct EncodingStack {
    frames: Vec<Frame>,
    /// `handles[i]` is the interned stack `frames[..=i]`, for `i < valid`.
    /// Entries at `valid` and above are stale and get overwritten.
    handles: Vec<FrameStack>,
    valid: usize,
    table: InternTable,
}

impl EncodingStack {
    /// A stack holding only `bottom` (the bootstrap frame).
    pub(crate) fn new(bottom: Frame) -> Self {
        let mut stack = Self::default();
        stack.push(bottom);
        stack
    }

    /// Empties the stack down to a new `bottom` frame, keeping the intern
    /// table: a restarted thread shares its stacks with earlier runs.
    pub(crate) fn reset(&mut self, bottom: Frame) {
        self.frames.clear();
        self.frames.push(bottom);
        self.valid = 0;
    }

    /// The stack depth.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Pushes `frame`. The hook-path cost is the `Vec` push alone.
    #[inline]
    pub(crate) fn push(&mut self, frame: Frame) {
        self.frames.push(frame);
    }

    /// Pops the top frame. The cached handle of the remaining stack stays
    /// valid, so the next capture needs no lookup.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Frame> {
        let frame = self.frames.pop();
        self.valid = self.valid.min(self.frames.len());
        frame
    }

    /// Truncates the stack to `len` frames.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.frames.truncate(len);
        self.valid = self.valid.min(self.frames.len());
    }

    /// Pushes every frame of `frames`.
    pub(crate) fn extend_from_slice(&mut self, frames: &[Frame]) {
        self.frames.extend_from_slice(frames);
    }

    /// The current stack as an interned shared handle. Only frames pushed
    /// since the last call are looked up (one table probe each); on an
    /// unchanged stack this is a reference-count bump.
    pub(crate) fn handle(&mut self) -> FrameStack {
        let len = self.frames.len();
        if self.valid < len {
            self.handles.truncate(self.valid);
            for &frame in &self.frames[self.valid..] {
                let child = self.table.child(self.handles.last(), frame);
                self.handles.push(child);
            }
            self.valid = len;
        }
        match len.checked_sub(1) {
            Some(top) => self.handles[top].share(),
            None => FrameStack::default(),
        }
    }
}

impl Clone for EncodingStack {
    /// Copies the frames; the copy starts with an empty intern table (the
    /// table is a cache, and its keys are addresses of this table's stacks).
    fn clone(&self) -> Self {
        Self {
            frames: self.frames.clone(),
            ..Self::default()
        }
    }
}

impl fmt::Debug for EncodingStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EncodingStack")
            .field("frames", &self.frames)
            .field("interned", &self.table.map.len())
            .finish()
    }
}

/// Interned stacks keyed by `(parent address, top frame)`, the parent
/// address being 0 for a one-frame stack.
///
/// A key's parent is always an interned stack of this table (or 0): the
/// table admits a child only while it admits everything, so a stack it
/// refused never becomes a parent key. Interned stacks live as long as the
/// table, so no key's address can be freed and reused by another stack.
#[derive(Default)]
struct InternTable {
    map: HashMap<(usize, Frame), FrameStack, FastBuildHasher>,
    /// Bytes held, counted against [`INTERN_BUDGET_BYTES`].
    bytes: usize,
}

impl InternTable {
    /// The interned stack `parent` + `frame`, interning it if new and the
    /// budget allows.
    fn child(&mut self, parent: Option<&FrameStack>, frame: Frame) -> FrameStack {
        let key = (parent.map_or(0, FrameStack::addr), frame);
        if let Some(found) = self.map.get(&key) {
            return found.share();
        }
        let child = match parent {
            Some(parent) => parent.pushed(frame),
            None => FrameStack::from(&[frame][..]),
        };
        if self.bytes < INTERN_BUDGET_BYTES {
            self.bytes += ENTRY_BYTES + child.len() * size_of::<Frame>();
            self.map.insert(key, child.share());
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FrameTag;
    use deltapath_ir::MethodId;

    fn frame(i: usize) -> Frame {
        Frame {
            tag: FrameTag::Anchor,
            node: MethodId::from_index(i),
            site: None,
            saved_id: i as u64,
        }
    }

    #[test]
    fn unchanged_stack_shares_one_handle() {
        let mut s = EncodingStack::new(frame(0));
        s.push(frame(1));
        let a = s.handle();
        let b = s.handle();
        assert!(FrameStack::ptr_eq(&a, &b));
        assert_eq!(&*a, &[frame(0), frame(1)]);
    }

    #[test]
    fn pop_restores_the_parent_handle() {
        let mut s = EncodingStack::new(frame(0));
        let bottom = s.handle();
        s.push(frame(1));
        let top = s.handle();
        s.pop();
        assert!(FrameStack::ptr_eq(&s.handle(), &bottom));
        s.push(frame(1));
        assert!(FrameStack::ptr_eq(&s.handle(), &top));
        // A different frame on the same parent is a different stack.
        s.pop();
        s.push(frame(2));
        let other = s.handle();
        assert!(!FrameStack::ptr_eq(&other, &top));
        assert_eq!(other, FrameStack::from(vec![frame(0), frame(2)]));
    }

    #[test]
    fn handles_match_hand_built_stacks() {
        let mut s = EncodingStack::new(frame(0));
        for i in 1..6 {
            s.push(frame(i));
        }
        s.truncate(3);
        s.extend_from_slice(&[frame(7), frame(8)]);
        let h = s.handle();
        let built = FrameStack::from(vec![frame(0), frame(1), frame(2), frame(7), frame(8)]);
        assert_eq!(h, built);
        assert_eq!(
            crate::fasthash::fast_hash(&h),
            crate::fasthash::fast_hash(&built)
        );
    }

    #[test]
    fn reset_keeps_the_table() {
        let mut s = EncodingStack::new(frame(0));
        s.push(frame(1));
        let before = s.handle();
        s.reset(frame(0));
        s.push(frame(1));
        assert!(FrameStack::ptr_eq(&s.handle(), &before));
    }

    #[test]
    fn over_budget_stacks_are_unshared_but_equal() {
        let mut s = EncodingStack::new(frame(0));
        s.table.bytes = INTERN_BUDGET_BYTES;
        s.push(frame(1));
        let a = s.handle();
        s.pop();
        s.push(frame(1));
        let b = s.handle();
        assert!(!FrameStack::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert!(s.table.map.is_empty());
    }
}
