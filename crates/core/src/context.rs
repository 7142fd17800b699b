//! Encoded calling-context values: the ID plus the runtime stack.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use deltapath_ir::{MethodId, SiteId};

use crate::fasthash::FastHasher;

/// Why a stack element was pushed.
///
/// The paper packs this tag into two bits borrowed from the method
/// identifier (footnote 2); we keep it as an enum for clarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameTag {
    /// The invocation of an anchor node (Algorithm 2) — including the
    /// bootstrap frame for the entry method and recursion headers entered
    /// through forward edges.
    Anchor,
    /// A call along a recursion back edge: the context continues at the
    /// recursion header with a fresh ID piece.
    Recursion,
    /// A hazardous unexpected call path detected by call-path tracking: the
    /// method was entered from dynamically loaded or scope-excluded code.
    Ucp,
}

/// One element of the runtime encoding stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Why the frame was pushed.
    pub tag: FrameTag,
    /// The method whose entry pushed the frame (the start of the encoding
    /// piece above this frame).
    pub node: MethodId,
    /// The call site through which the piece below this frame ended:
    /// for [`FrameTag::Recursion`] the back-edge site, for [`FrameTag::Ucp`]
    /// the last instrumented call site before control left the encoded
    /// region. `None` for the bootstrap frame.
    pub site: Option<SiteId>,
    /// The encoding ID at push time, restored at the method's exit.
    pub saved_id: u64,
}

/// An immutable encoding stack, bottom first, that carries its structural
/// hash.
///
/// An encoder hands out one shared `FrameStack` for every capture taken
/// while its stack is unchanged, so a capture costs a reference-count bump
/// instead of a copy of the frames, and hashing a context costs one word
/// instead of a walk over its frames. Equality stays structural: stacks
/// built by different encoders, threads or by hand compare equal (and hash
/// equal) exactly when their frames are equal.
///
/// [`Clone`] copies the frames into a fresh, unshared allocation, so a kept
/// clone never holds on to storage the encoder shares between captures.
/// Read the frames through [`Deref`] to `[Frame]`; build a stack from a
/// `Vec<Frame>` or `&[Frame]` with [`From`].
pub struct FrameStack {
    frames: Arc<[Frame]>,
    hash: u64,
}

impl FrameStack {
    /// Whether `a` and `b` are the same shared stack (not merely equal).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.frames, &b.frames)
    }

    /// Another handle to the same shared stack: what encoders hand out at
    /// each capture, unlike the copying [`Clone`].
    pub(crate) fn share(&self) -> Self {
        Self {
            frames: Arc::clone(&self.frames),
            hash: self.hash,
        }
    }

    /// The stack with `frame` pushed on top, as a new allocation; its hash
    /// extends this stack's hash by one frame.
    pub(crate) fn pushed(&self, frame: Frame) -> Self {
        Self {
            frames: self
                .frames
                .iter()
                .copied()
                .chain(std::iter::once(frame))
                .collect(),
            hash: extend_hash(self.hash, &frame),
        }
    }

    /// The address of the shared frames: the identity the intern table keys
    /// children by.
    pub(crate) fn addr(&self) -> usize {
        self.frames.as_ptr() as usize
    }
}

/// The structural hash of a stack with `frame` pushed onto a stack hashing
/// to `hash`. The empty stack hashes to 0, so a stack's hash is the fold of
/// this function over its frames, bottom first.
fn extend_hash(hash: u64, frame: &Frame) -> u64 {
    let mut h = FastHasher::resume(hash);
    frame.hash(&mut h);
    h.finish()
}

impl Default for FrameStack {
    fn default() -> Self {
        Self::from(&[][..])
    }
}

impl From<&[Frame]> for FrameStack {
    fn from(frames: &[Frame]) -> Self {
        Self {
            frames: Arc::from(frames),
            hash: frames.iter().fold(0, extend_hash),
        }
    }
}

impl From<Vec<Frame>> for FrameStack {
    fn from(frames: Vec<Frame>) -> Self {
        Self::from(frames.as_slice())
    }
}

impl Deref for FrameStack {
    type Target = [Frame];

    fn deref(&self) -> &[Frame] {
        &self.frames
    }
}

impl<'a> IntoIterator for &'a FrameStack {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

impl Clone for FrameStack {
    /// Copies the frames: the clone shares no storage with `self`.
    fn clone(&self) -> Self {
        Self {
            frames: Arc::from(&*self.frames),
            hash: self.hash,
        }
    }
}

impl PartialEq for FrameStack {
    fn eq(&self, other: &Self) -> bool {
        Self::ptr_eq(self, other) || (self.hash == other.hash && self.frames == other.frames)
    }
}

impl Eq for FrameStack {}

impl Hash for FrameStack {
    /// Writes the cached structural hash: one word, whatever the depth.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for FrameStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.frames.iter()).finish()
    }
}

/// A complete encoded calling context: the stack, the current ID, and the
/// method at which it was captured.
///
/// Two contexts are equal exactly when their encodings are equal; DeltaPath
/// guarantees (and the test suite verifies) that distinct calling contexts
/// produce distinct `EncodedContext` values, so this type is directly usable
/// as a hash-map key for context-sensitive profiling. Hashing and comparing
/// a context captured by an encoder takes constant time (see
/// [`FrameStack`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EncodedContext {
    /// The encoding stack, bottom first. The bottom frame is the bootstrap
    /// frame for the thread's entry method.
    pub frames: FrameStack,
    /// The current encoding ID (the piece since the top frame).
    pub id: u64,
    /// The method at which the context was captured.
    pub at: MethodId,
}

impl EncodedContext {
    /// The stack depth (number of frames), the paper's Table 2
    /// "max./avg. depth" statistic for DeltaPath.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of hazardous-UCP frames in the stack (Table 2 "UCP" columns).
    pub fn ucp_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.tag == FrameTag::Ucp)
            .count()
    }

    /// Number of recursion frames in the stack.
    pub fn recursion_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.tag == FrameTag::Recursion)
            .count()
    }
}

impl fmt::Display for EncodedContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let tag = match frame.tag {
                FrameTag::Anchor => "A",
                FrameTag::Recursion => "R",
                FrameTag::Ucp => "U",
            };
            write!(f, "{}:{}={}", tag, frame.node, frame.saved_id)?;
        }
        write!(f, "] id={} @{}", self.id, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::fast_hash;

    fn ctx() -> EncodedContext {
        EncodedContext {
            frames: vec![
                Frame {
                    tag: FrameTag::Anchor,
                    node: MethodId::from_index(0),
                    site: None,
                    saved_id: 0,
                },
                Frame {
                    tag: FrameTag::Ucp,
                    node: MethodId::from_index(3),
                    site: Some(SiteId::from_index(5)),
                    saved_id: 7,
                },
                Frame {
                    tag: FrameTag::Recursion,
                    node: MethodId::from_index(4),
                    site: Some(SiteId::from_index(6)),
                    saved_id: 2,
                },
            ]
            .into(),
            id: 9,
            at: MethodId::from_index(8),
        }
    }

    #[test]
    fn counters() {
        let c = ctx();
        assert_eq!(c.depth(), 3);
        assert_eq!(c.ucp_count(), 1);
        assert_eq!(c.recursion_count(), 1);
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        let s = ctx().to_string();
        assert!(s.contains("A:m0=0"));
        assert!(s.contains("U:m3=7"));
        assert!(s.contains("R:m4=2"));
        assert!(s.contains("id=9"));
        assert!(s.contains("@m8"));
    }

    #[test]
    fn clone_copies_the_frames() {
        let c = ctx();
        let d = c.clone();
        assert_eq!(c, d);
        assert!(!FrameStack::ptr_eq(&c.frames, &d.frames));
        assert_eq!(fast_hash(&c), fast_hash(&d));
        assert!(FrameStack::ptr_eq(&c.frames, &c.frames.share()));
    }

    #[test]
    fn pushed_stack_hashes_like_a_built_one() {
        let c = ctx();
        let (top, below) = c.frames.split_last().unwrap();
        let pushed = FrameStack::from(below).pushed(*top);
        assert_eq!(pushed, c.frames);
        assert_eq!(fast_hash(&pushed), fast_hash(&c.frames));
        assert_ne!(fast_hash(&FrameStack::from(below)), fast_hash(&pushed));
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(ctx(), ctx());
        let mut other = ctx();
        other.id = 10;
        assert_ne!(ctx(), other);
    }
}
