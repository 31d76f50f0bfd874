//! Program representation: an ordered list of syscalls with concrete
//! argument values and resource references into earlier calls.
//!
//! Calls reference their syscall description by dense [`SpecDb`]
//! index (see [`SpecDb::syscall_index`]) instead of owning a cloned
//! AST — a program is just indices plus argument values, so cloning
//! and mutating corpus entries never copies specification text.
//!
//! # Flat layout
//!
//! A [`Program`] is one vector of 16-byte nodes in **pre-order**:
//! each call is a node followed by its arguments, each argument a node
//! followed by its children. Every container node records its
//! *extent* — the number of nodes its subtree spans — so every call,
//! argument and subtree is a contiguous range and a sibling is found
//! by hopping extents. Byte payloads sit inline in the nodes after
//! their header. Nothing points anywhere, so:
//!
//! * cloning is one allocation and a memcpy, dropping is one free;
//! * [`Program::truncate`] is `Vec::truncate`;
//! * mutation splices one argument's range ([`Program::with_arg`]);
//! * [`Program::encode_into`] and [`Program::decode_from`] are linear
//!   transcodings to and from the wire format, which is unchanged.
//!
//! Programs are read through borrowed views ([`CallRef`],
//! [`ValueRef`]) and written through a reusable [`ProgBuf`] arena.
//! The owned tree ([`ProgCall`] over [`Value`]) remains for the
//! AST-walk reference oracle, [`crate::value::MemBuilder`], tests and
//! hand-built programs: [`Program::from_calls`] and
//! [`Program::to_calls`] convert. `Debug` and `PartialEq` mean the
//! tree: a program prints and compares exactly as the
//! `Program { calls: Vec<ProgCall> }` it denotes.
//!
//! The type lives in `kgpt-syzlang` (not the fuzzer) because a
//! program is meaningful to every consumer of a compiled spec: the
//! fuzzer generates and executes programs, and the crash-triage
//! subsystem (`kgpt-triage`) projects and minimizes them without
//! pulling in the whole fuzzing loop.

use crate::db::SpecDb;
use crate::value::ResRef;
use crate::{Syscall, Value};
use std::fmt;

/// Maximum value-tree nesting accepted by [`Program::decode_from`].
/// Generated values are shallow (a handful of levels); the bound
/// exists so a corrupt snapshot cannot recurse the decoder off the
/// stack.
pub const MAX_VALUE_DEPTH: usize = 64;

/// Error decoding a serialized program (see
/// [`Program::decode_from`]): truncated input, a count larger than the
/// input could hold, an unknown value tag, a producer index out of
/// range, or nesting beyond [`MAX_VALUE_DEPTH`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// One call in owned tree form (see the module docs for when the
/// tree is used instead of the flat [`Program`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgCall {
    /// Dense index of the syscall description in the [`SpecDb`] the
    /// program was generated from.
    pub sys: u32,
    /// One value per parameter.
    pub args: Vec<Value>,
}

impl ProgCall {
    /// Resolve the syscall description against its database.
    #[must_use]
    pub fn syscall<'a>(&self, db: &'a SpecDb) -> &'a Syscall {
        db.syscall_at(self.sys as usize)
    }
}

// ---- nodes ----------------------------------------------------------------

/// One node: byte 0 is the kind, bytes 4..8 the `a` word, bytes 8..16
/// the `b` word (both little-endian). Plain bytes, so byte payloads
/// are viewed in place and equal trees are equal node vectors.
type Node = [u8; 16];

// Value kinds share the wire tags, so encoding copies the kind byte.
const TAG_INT: u8 = 0;
const TAG_RES: u8 = 1;
const TAG_BYTES: u8 = 2;
const TAG_GROUP: u8 = 3;
const TAG_UNION: u8 = 4;
const TAG_PTR_NULL: u8 = 5;
const TAG_PTR: u8 = 6;
/// A call: `a` = extent, `b` = syscall index | argument count << 32.
const KIND_CALL: u8 = 7;

// Node words per kind (`a`, `b`):
// Int (1, value) · Res (producer or NO_PRODUCER_NODE, fallback) ·
// Bytes (extent, byte length; payload in the following nodes) ·
// Group (extent, element count) · Union (extent, arm) ·
// PtrNull (1, 0) · Ptr (extent, 0).

/// Producer word of a dangling [`ResRef`].
const NO_PRODUCER_NODE: u32 = u32::MAX;

/// `Option<usize>` producer indices are encoded on the wire as a u64
/// with `u64::MAX` standing in for `None`.
const NO_PRODUCER: u64 = u64::MAX;

fn node(kind: u8, a: u32, b: u64) -> Node {
    let mut n = [0u8; 16];
    n[0] = kind;
    n[4..8].copy_from_slice(&a.to_le_bytes());
    n[8..].copy_from_slice(&b.to_le_bytes());
    n
}

#[inline]
fn word_a(n: &Node) -> u32 {
    u32::from_le_bytes([n[4], n[5], n[6], n[7]])
}

#[inline]
fn word_b(n: &Node) -> u64 {
    u64::from_le_bytes([n[8], n[9], n[10], n[11], n[12], n[13], n[14], n[15]])
}

/// Nodes spanned by the subtree headed by `n`, itself included.
#[inline]
fn extent(n: &Node) -> usize {
    if n[0] == TAG_RES {
        1
    } else {
        word_a(n) as usize
    }
}

/// Payload nodes holding `len` inline bytes.
fn payload_nodes(len: usize) -> usize {
    len.div_ceil(16)
}

/// A node count or extent as stored in a node word. Programs never
/// approach 2^32 nodes (decoding rejects such input first).
fn count32(n: usize) -> u32 {
    u32::try_from(n).expect("program exceeds u32::MAX nodes")
}

fn producer_word(producer: Option<usize>) -> u32 {
    match producer {
        None => NO_PRODUCER_NODE,
        Some(p) => u32::try_from(p)
            .ok()
            .filter(|&p| p != NO_PRODUCER_NODE)
            .expect("producer index exceeds u32"),
    }
}

// ---- views ----------------------------------------------------------------

/// A borrowed call of a [`Program`].
#[derive(Clone, Copy)]
pub struct CallRef<'a> {
    /// The call node followed by its argument subtrees.
    nodes: &'a [Node],
}

impl<'a> CallRef<'a> {
    /// Dense syscall index (see [`ProgCall::sys`]).
    #[must_use]
    pub fn sys(&self) -> u32 {
        word_b(&self.nodes[0]) as u32
    }

    /// Number of arguments.
    #[must_use]
    pub fn arg_count(&self) -> usize {
        (word_b(&self.nodes[0]) >> 32) as usize
    }

    /// The arguments, in parameter order.
    #[must_use]
    pub fn args(&self) -> Values<'a> {
        Values {
            rest: &self.nodes[1..],
            left: self.arg_count(),
        }
    }

    /// Resolve the syscall description against its database.
    #[must_use]
    pub fn syscall(&self, db: &'a SpecDb) -> &'a Syscall {
        db.syscall_at(self.sys() as usize)
    }

    /// The call as an owned tree.
    #[must_use]
    pub fn to_call(&self) -> ProgCall {
        ProgCall {
            sys: self.sys(),
            args: self.args().map(ValueRef::to_value).collect(),
        }
    }
}

/// Sibling values in order (a call's arguments or a group's
/// elements), found by hopping extents.
#[derive(Clone)]
pub struct Values<'a> {
    rest: &'a [Node],
    left: usize,
}

impl<'a> Iterator for Values<'a> {
    type Item = ValueRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<ValueRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (head, rest) = self.rest.split_at(extent(&self.rest[0]));
        self.rest = rest;
        Some(ValueRef { nodes: head })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Values<'_> {}

/// A borrowed value subtree of a [`Program`].
#[derive(Clone, Copy)]
pub struct ValueRef<'a> {
    /// The header node followed by its subtree.
    nodes: &'a [Node],
}

/// One level of a [`ValueRef`], mirroring the [`Value`] variants.
pub enum ValueKind<'a> {
    /// [`Value::Int`].
    Int(u64),
    /// [`Value::Res`].
    Res(ResRef),
    /// [`Value::Bytes`].
    Bytes(&'a [u8]),
    /// [`Value::Group`].
    Group(Values<'a>),
    /// [`Value::Union`].
    Union {
        /// Index of the active arm.
        arm: usize,
        /// Value of that arm.
        value: ValueRef<'a>,
    },
    /// [`Value::Ptr`]; `None` is NULL.
    Ptr(Option<ValueRef<'a>>),
}

impl<'a> ValueRef<'a> {
    /// The value's variant and immediate contents.
    #[inline]
    #[must_use]
    pub fn kind(self) -> ValueKind<'a> {
        let head = &self.nodes[0];
        match head[0] {
            TAG_INT => ValueKind::Int(word_b(head)),
            TAG_RES => ValueKind::Res(ResRef {
                producer: match word_a(head) {
                    NO_PRODUCER_NODE => None,
                    p => Some(p as usize),
                },
                fallback: word_b(head),
            }),
            TAG_BYTES => ValueKind::Bytes(&self.nodes[1..].as_flattened()[..word_b(head) as usize]),
            TAG_GROUP => ValueKind::Group(Values {
                rest: &self.nodes[1..],
                left: word_b(head) as usize,
            }),
            TAG_UNION => ValueKind::Union {
                arm: word_b(head) as usize,
                value: ValueRef {
                    nodes: &self.nodes[1..],
                },
            },
            TAG_PTR_NULL => ValueKind::Ptr(None),
            _ => ValueKind::Ptr(Some(ValueRef {
                nodes: &self.nodes[1..],
            })),
        }
    }

    /// Variant name for mismatch errors — the same names
    /// [`crate::value::MemBuilder`] reports for a [`Value`].
    #[must_use]
    pub fn kind_name(self) -> &'static str {
        match self.nodes[0][0] {
            TAG_INT => "int",
            TAG_RES => "resource",
            TAG_BYTES => "bytes",
            TAG_GROUP => "group",
            TAG_UNION => "union",
            _ => "ptr",
        }
    }

    /// The value as an owned tree.
    #[must_use]
    pub fn to_value(self) -> Value {
        match self.kind() {
            ValueKind::Int(n) => Value::Int(n),
            ValueKind::Res(r) => Value::Res(r),
            ValueKind::Bytes(b) => Value::Bytes(b.to_vec()),
            ValueKind::Group(vs) => Value::Group(vs.map(ValueRef::to_value).collect()),
            ValueKind::Union { arm, value } => Value::Union {
                arm,
                value: Box::new(value.to_value()),
            },
            ValueKind::Ptr(p) => Value::Ptr {
                pointee: p.map(|v| Box::new(v.to_value())),
            },
        }
    }
}

/// Iterator over the calls of a [`Program`].
#[derive(Clone)]
pub struct Calls<'a> {
    rest: &'a [Node],
}

impl<'a> Iterator for Calls<'a> {
    type Item = CallRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<CallRef<'a>> {
        let head = self.rest.first()?;
        let (call, rest) = self.rest.split_at(extent(head));
        self.rest = rest;
        Some(CallRef { nodes: call })
    }
}

// ---- program --------------------------------------------------------------

/// A syscall sequence, stored flat (see the module docs).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Program {
    nodes: Vec<Node>,
}

impl fmt::Debug for Program {
    /// Renders the tree, exactly as a derived `Debug` of
    /// `Program { calls: Vec<ProgCall> }` does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("calls", &self.to_calls())
            .finish()
    }
}

impl Program {
    /// Build a program from owned calls.
    ///
    /// # Panics
    ///
    /// If a producer index does not fit in a `u32` (call indices
    /// never come close).
    #[must_use]
    pub fn from_calls(calls: &[ProgCall]) -> Program {
        let mut buf = ProgBuf::default();
        for c in calls {
            let m = buf.open_call(c.sys, c.args.len());
            for a in &c.args {
                buf.push_value(a);
            }
            buf.close(m);
        }
        buf.to_program()
    }

    /// The program as owned calls.
    #[must_use]
    pub fn to_calls(&self) -> Vec<ProgCall> {
        self.calls().map(|c| c.to_call()).collect()
    }

    /// The calls in execution order.
    #[must_use]
    pub fn calls(&self) -> Calls<'_> {
        Calls { rest: &self.nodes }
    }

    /// Call `idx`.
    ///
    /// # Panics
    ///
    /// If `idx >= self.len()`.
    #[must_use]
    pub fn call(&self, idx: usize) -> CallRef<'_> {
        self.calls().nth(idx).expect("call index out of range")
    }

    /// Number of calls.
    #[must_use]
    pub fn len(&self) -> usize {
        self.calls().count()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node index where call `idx` starts (`nodes.len()` past the end).
    fn call_start(&self, idx: usize) -> usize {
        let mut at = 0;
        for _ in 0..idx {
            match self.nodes.get(at) {
                Some(n) => at += extent(n),
                None => break,
            }
        }
        at.min(self.nodes.len())
    }

    /// Drop trailing calls, keeping resource references valid (they
    /// only ever point backwards).
    pub fn truncate(&mut self, len: usize) {
        let end = self.call_start(len);
        self.nodes.truncate(end);
    }

    /// The first `len` calls as a new, exact-capacity program.
    #[must_use]
    pub fn prefix(&self, len: usize) -> Program {
        Program {
            nodes: self.nodes[..self.call_start(len)].to_vec(),
        }
    }

    /// This program followed by the whole calls held in `tail`, as a
    /// new exact-capacity program.
    #[must_use]
    pub fn with_calls(&self, tail: &ProgBuf) -> Program {
        let mut nodes = Vec::with_capacity(self.nodes.len() + tail.nodes.len());
        nodes.extend_from_slice(&self.nodes);
        nodes.extend_from_slice(&tail.nodes);
        Program { nodes }
    }

    /// This program with argument `arg` of call `call` replaced by the
    /// single value held in `value`: one splice into a new
    /// exact-capacity program.
    ///
    /// # Panics
    ///
    /// If the call or argument does not exist.
    #[must_use]
    pub fn with_arg(&self, call: usize, arg: usize, value: &ProgBuf) -> Program {
        let c0 = self.call_start(call);
        let c = CallRef {
            nodes: &self.nodes[c0..c0 + extent(&self.nodes[c0])],
        };
        assert!(arg < c.arg_count(), "argument index out of range");
        let mut start = c0 + 1;
        for v in c.args().take(arg) {
            start += v.nodes.len();
        }
        let end = start + extent(&self.nodes[start]);
        let mut nodes = Vec::with_capacity(self.nodes.len() - (end - start) + value.nodes.len());
        nodes.extend_from_slice(&self.nodes[..start]);
        nodes.extend_from_slice(&value.nodes);
        nodes.extend_from_slice(&self.nodes[end..]);
        let call_extent = c.nodes.len() - (end - start) + value.nodes.len();
        nodes[c0][4..8].copy_from_slice(&count32(call_extent).to_le_bytes());
        Program { nodes }
    }

    /// The calls at `keep` (ascending indices) as a new program,
    /// producer indices untouched (see [`Program::remap_producers`]).
    ///
    /// # Panics
    ///
    /// If an index is out of range.
    #[must_use]
    pub fn select_calls(&self, keep: &[usize]) -> Program {
        let ranges: Vec<&[Node]> = self.calls().map(|c| c.nodes).collect();
        let picked: Vec<&[Node]> = keep.iter().map(|&i| ranges[i]).collect();
        Program {
            nodes: picked.concat(),
        }
    }

    /// Rewrite every resource reference's producer index in place: a
    /// reference to call `p` now names `f(p)`, or dangles (keeping its
    /// fallback) when `f` returns `None`.
    pub fn remap_producers(&mut self, mut f: impl FnMut(usize) -> Option<usize>) {
        let mut i = 0;
        while i < self.nodes.len() {
            let n = &mut self.nodes[i];
            match n[0] {
                TAG_RES => {
                    let p = word_a(n);
                    if p != NO_PRODUCER_NODE {
                        let q = producer_word(f(p as usize));
                        n[4..8].copy_from_slice(&q.to_le_bytes());
                    }
                }
                // Skip the inline payload.
                TAG_BYTES => i += extent(n) - 1,
                _ => {}
            }
            i += 1;
        }
    }

    /// Human-readable one-line-per-call rendering (for crash reports).
    #[must_use]
    pub fn display(&self, db: &SpecDb) -> String {
        self.calls()
            .map(|c| c.syscall(db).name())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Append a dense little-endian binary encoding of the program to
    /// `out`. The format is self-delimiting, so multiple programs can
    /// be concatenated and read back with [`Program::decode_from`].
    /// This is the serialization hook for campaign checkpoints, hub
    /// and fabric frames and trace headers: a linear pass over the
    /// nodes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, u32::try_from(self.len()).unwrap_or(u32::MAX));
        let mut i = 0;
        while i < self.nodes.len() {
            let n = &self.nodes[i];
            i += 1;
            match n[0] {
                KIND_CALL => {
                    let b = word_b(n);
                    put_u32(out, b as u32);
                    put_u32(out, (b >> 32) as u32);
                }
                TAG_INT => {
                    out.push(TAG_INT);
                    put_u64(out, word_b(n));
                }
                TAG_RES => {
                    out.push(TAG_RES);
                    put_u64(
                        out,
                        match word_a(n) {
                            NO_PRODUCER_NODE => NO_PRODUCER,
                            p => u64::from(p),
                        },
                    );
                    put_u64(out, word_b(n));
                }
                TAG_BYTES => {
                    let len = word_b(n) as usize;
                    out.push(TAG_BYTES);
                    put_u32(out, u32::try_from(len).unwrap_or(u32::MAX));
                    let payload = &self.nodes[i..i - 1 + extent(n)];
                    out.extend_from_slice(&payload.as_flattened()[..len]);
                    i += payload.len();
                }
                TAG_GROUP | TAG_UNION => {
                    out.push(n[0]);
                    put_u32(out, u32::try_from(word_b(n)).unwrap_or(u32::MAX));
                }
                tag => out.push(tag), // TAG_PTR_NULL, TAG_PTR
            }
        }
    }

    /// Decode a program previously written by [`Program::encode_into`],
    /// starting at `*pos` and advancing it past the consumed bytes.
    ///
    /// Decoding is total and canonical: any input either fails with a
    /// [`DecodeError`] (never a panic) or yields the one program whose
    /// encoding is exactly the consumed bytes. Call and element counts
    /// larger than the remaining input could hold are rejected before
    /// anything is reserved, so a hostile length cannot amplify.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input, an oversized
    /// count, an unknown value tag, a producer index that fits no call
    /// (and is not the "none" marker), or value nesting deeper than
    /// [`MAX_VALUE_DEPTH`].
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<Program, DecodeError> {
        // A program never has more nodes than encoded bytes, so reading
        // at most u32::MAX bytes keeps every extent within a node word
        // (a longer program fails as truncated).
        let bytes = &bytes[..bytes.len().min(pos.saturating_add(u32::MAX as usize))];
        let mut out = ProgBuf::default();
        decode_calls(bytes, pos, &mut out)?;
        out.nodes.shrink_to_fit();
        Ok(Program { nodes: out.nodes })
    }
}

// ---- builder --------------------------------------------------------------

/// A reusable arena programs and values are written into, in
/// pre-order: leaves are pushed, containers opened and then closed
/// once their children are written. Keep one per generator and clear
/// it between programs: at steady state writing allocates nothing, and
/// [`ProgBuf::to_program`] (or a [`Program`] splice) emits an
/// exact-capacity program.
#[derive(Debug, Clone, Default)]
pub struct ProgBuf {
    nodes: Vec<Node>,
}

/// An open container of a [`ProgBuf`], to be passed to
/// [`ProgBuf::close`].
#[must_use = "an opened container must be closed"]
#[derive(Debug)]
pub struct Open(usize);

impl ProgBuf {
    /// Forget the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// The contents as a program (exact capacity). The buffer must
    /// hold whole calls.
    #[must_use]
    pub fn to_program(&self) -> Program {
        Program {
            nodes: self.nodes.to_vec(),
        }
    }

    fn open(&mut self, kind: u8, b: u64) -> Open {
        self.nodes.push(node(kind, 0, b));
        Open(self.nodes.len() - 1)
    }

    /// Finish a container: record its extent.
    pub fn close(&mut self, open: Open) {
        let ext = count32(self.nodes.len() - open.0);
        self.nodes[open.0][4..8].copy_from_slice(&ext.to_le_bytes());
    }

    /// Open a call of syscall `sys`; write exactly `n_args` values.
    pub fn open_call(&mut self, sys: u32, n_args: usize) -> Open {
        self.open(KIND_CALL, u64::from(sys) | u64::from(count32(n_args)) << 32)
    }

    /// Open a group; write exactly `count` values.
    pub fn open_group(&mut self, count: usize) -> Open {
        self.open(TAG_GROUP, count as u64)
    }

    /// Open a union with active arm `arm`; write exactly one value.
    pub fn open_union(&mut self, arm: usize) -> Open {
        self.open(TAG_UNION, arm as u64)
    }

    /// Open a non-null pointer; write exactly one value.
    pub fn open_ptr(&mut self) -> Open {
        self.open(TAG_PTR, 0)
    }

    /// Write an integer.
    pub fn push_int(&mut self, v: u64) {
        self.nodes.push(node(TAG_INT, 1, v));
    }

    /// Write a resource reference.
    ///
    /// # Panics
    ///
    /// If the producer index does not fit in a `u32`.
    pub fn push_res(&mut self, r: ResRef) {
        self.nodes
            .push(node(TAG_RES, producer_word(r.producer), r.fallback));
    }

    /// Write a NULL pointer.
    pub fn push_null_ptr(&mut self) {
        self.nodes.push(node(TAG_PTR_NULL, 1, 0));
    }

    /// Write a byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_bytes_with(bytes.len(), |b| b.copy_from_slice(bytes));
    }

    /// Write a `len`-byte string whose bytes `fill` sets in place
    /// (they start zeroed).
    pub fn push_bytes_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        let head = self.nodes.len();
        let payload = payload_nodes(len);
        self.nodes
            .push(node(TAG_BYTES, count32(1 + payload), len as u64));
        self.nodes.resize(head + 1 + payload, [0; 16]);
        fill(&mut self.nodes[head + 1..].as_flattened_mut()[..len]);
    }

    /// Write an owned value tree.
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Int(n) => self.push_int(*n),
            Value::Res(r) => self.push_res(*r),
            Value::Bytes(b) => self.push_bytes(b),
            Value::Group(vs) => {
                let m = self.open_group(vs.len());
                for v in vs {
                    self.push_value(v);
                }
                self.close(m);
            }
            Value::Union { arm, value } => {
                let m = self.open_union(*arm);
                self.push_value(value);
                self.close(m);
            }
            Value::Ptr { pointee: None } => self.push_null_ptr(),
            Value::Ptr { pointee: Some(p) } => {
                let m = self.open_ptr();
                self.push_value(p);
                self.close(m);
            }
        }
    }
}

// ---- binary codec ---------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let end = pos.checked_add(4).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(DecodeError {
            message: "truncated u32",
            offset: *pos,
        });
    };
    let v = u32::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let end = pos.checked_add(8).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(DecodeError {
            message: "truncated u64",
            offset: *pos,
        });
    };
    let v = u64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
    *pos = end;
    Ok(v)
}

fn take_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
    let Some(&b) = bytes.get(*pos) else {
        return Err(DecodeError {
            message: "truncated tag",
            offset: *pos,
        });
    };
    *pos += 1;
    Ok(b)
}

/// Reject `count` items of at least `min_size` bytes each when the
/// input left after `pos` cannot hold them.
fn check_count(
    bytes: &[u8],
    pos: usize,
    count: u32,
    min_size: usize,
    message: &'static str,
) -> Result<(), DecodeError> {
    if count as usize > bytes.len().saturating_sub(pos) / min_size {
        return Err(DecodeError {
            message,
            offset: pos,
        });
    }
    Ok(())
}

fn decode_calls(bytes: &[u8], pos: &mut usize, out: &mut ProgBuf) -> Result<(), DecodeError> {
    let n_calls = take_u32(bytes, pos)?;
    // A call takes at least its two u32 words.
    check_count(bytes, *pos, n_calls, 8, "call count exceeds input")?;
    for _ in 0..n_calls {
        let sys = take_u32(bytes, pos)?;
        let n_args = take_u32(bytes, pos)?;
        check_count(bytes, *pos, n_args, 1, "argument count exceeds input")?;
        let open = out.open_call(sys, n_args as usize);
        for _ in 0..n_args {
            decode_value(bytes, pos, 0, out)?;
        }
        out.close(open);
    }
    Ok(())
}

fn decode_value(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    out: &mut ProgBuf,
) -> Result<(), DecodeError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(DecodeError {
            message: "value nesting too deep",
            offset: *pos,
        });
    }
    let tag = take_u8(bytes, pos)?;
    let open = match tag {
        TAG_INT => {
            out.push_int(take_u64(bytes, pos)?);
            return Ok(());
        }
        TAG_RES => {
            let at = *pos;
            let producer = match take_u64(bytes, pos)? {
                NO_PRODUCER => None,
                p => Some(
                    u32::try_from(p)
                        .ok()
                        .filter(|&p| p != NO_PRODUCER_NODE)
                        .ok_or(DecodeError {
                            message: "producer index out of range",
                            offset: at,
                        })? as usize,
                ),
            };
            let fallback = take_u64(bytes, pos)?;
            out.push_res(ResRef { producer, fallback });
            return Ok(());
        }
        TAG_BYTES => {
            let len = take_u32(bytes, pos)? as usize;
            let end = pos.checked_add(len).filter(|&e| e <= bytes.len());
            let Some(end) = end else {
                return Err(DecodeError {
                    message: "truncated byte blob",
                    offset: *pos,
                });
            };
            out.push_bytes(&bytes[*pos..end]);
            *pos = end;
            return Ok(());
        }
        TAG_GROUP => {
            let len = take_u32(bytes, pos)?;
            // An element takes at least its tag byte.
            check_count(bytes, *pos, len, 1, "element count exceeds input")?;
            let open = out.open_group(len as usize);
            for _ in 0..len {
                decode_value(bytes, pos, depth + 1, out)?;
            }
            out.close(open);
            return Ok(());
        }
        TAG_UNION => {
            let arm = take_u32(bytes, pos)?;
            out.open_union(arm as usize)
        }
        TAG_PTR_NULL => {
            out.push_null_ptr();
            return Ok(());
        }
        TAG_PTR => out.open_ptr(),
        _ => {
            return Err(DecodeError {
                message: "unknown value tag",
                offset: *pos - 1,
            })
        }
    };
    // A union or pointer: exactly one child.
    decode_value(bytes, pos, depth + 1, out)?;
    out.close(open);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    mod tree {
        /// The tree a `Program` denotes; its derived `Debug` is what
        /// `Program`'s must print.
        #[derive(Debug)]
        pub struct Program {
            #[allow(dead_code)]
            pub calls: Vec<super::ProgCall>,
        }
    }

    fn sample_calls() -> Vec<ProgCall> {
        vec![
            ProgCall {
                sys: 3,
                args: vec![
                    Value::Int(u64::MAX),
                    Value::Res(ResRef {
                        producer: Some(0),
                        fallback: 7,
                    }),
                    Value::Res(ResRef {
                        producer: None,
                        fallback: 0xFFFF_FFFF_FFFF,
                    }),
                ],
            },
            ProgCall {
                sys: 0,
                args: vec![
                    Value::Bytes(vec![0, 1, 255]),
                    Value::Group(vec![
                        Value::Int(1),
                        Value::Union {
                            arm: 2,
                            value: Box::new(Value::Ptr {
                                pointee: Some(Box::new(Value::Bytes(Vec::new()))),
                            }),
                        },
                        Value::Bytes((0..40).collect()),
                    ]),
                    Value::Ptr { pointee: None },
                ],
            },
        ]
    }

    #[test]
    fn truncate_and_display() {
        let db = SpecDb::from_files(vec![
            crate::parse("t", "close$a(fd fd)\nclose$b(fd fd)\n").unwrap()
        ]);
        let a = db.syscall_index("close$a").unwrap() as u32;
        let b = db.syscall_index("close$b").unwrap() as u32;
        let mut p = Program::from_calls(&[
            ProgCall {
                sys: b,
                args: vec![Value::Int(0)],
            },
            ProgCall {
                sys: a,
                args: vec![Value::Int(0)],
            },
        ]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.call(0).syscall(&db).name(), "close$b");
        p.truncate(1);
        assert_eq!(p.display(&db), "close$b");
        assert!(!p.is_empty());
    }

    #[test]
    fn flat_form_round_trips_the_tree_and_debug_renders_it() {
        let calls = sample_calls();
        let p = Program::from_calls(&calls);
        assert_eq!(p.to_calls(), calls);
        assert_eq!(p.len(), 2);
        // `Debug` is the derived rendering of the tree it denotes.
        let tree = tree::Program {
            calls: calls.clone(),
        };
        assert_eq!(format!("{p:?}"), format!("{tree:?}"));
        assert_eq!(format!("{p:#?}"), format!("{tree:#?}"));
    }

    #[test]
    fn splices_match_their_tree_edits() {
        let calls = sample_calls();
        let p = Program::from_calls(&calls);
        let mut v = ProgBuf::default();
        v.push_value(&Value::Group(vec![
            Value::Int(9),
            Value::Bytes(vec![1; 17]),
        ]));
        let q = p.with_arg(1, 1, &v);
        let mut want = calls.clone();
        want[1].args[1] = Value::Group(vec![Value::Int(9), Value::Bytes(vec![1; 17])]);
        assert_eq!(q, Program::from_calls(&want));
        assert_eq!(q.nodes.capacity(), q.nodes.len());

        assert_eq!(p.prefix(1), Program::from_calls(&calls[..1]));
        let mut tail = ProgBuf::default();
        let m = tail.open_call(5, 0);
        tail.close(m);
        let mut want = calls.clone();
        want.push(ProgCall {
            sys: 5,
            args: vec![],
        });
        assert_eq!(p.with_calls(&tail), Program::from_calls(&want));

        let mut r = p.select_calls(&[1, 0]);
        assert_eq!(r.call(0).sys(), 0);
        r.remap_producers(|i| (i == 0).then_some(1));
        let got = r.to_calls();
        assert_eq!(
            got[1].args[1],
            Value::Res(ResRef {
                producer: Some(1),
                fallback: 7
            })
        );
        // Byte payloads are skipped, not misread as nodes.
        assert_eq!(got[0], calls[1]);
    }

    #[test]
    fn binary_round_trip_preserves_every_value_shape() {
        let p = Program::from_calls(&sample_calls());
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        // Self-delimiting: a second program concatenates cleanly.
        Program::default().encode_into(&mut buf);
        let mut pos = 0;
        let q = Program::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(q, p);
        assert_eq!(q.nodes.capacity(), q.nodes.len());
        assert_eq!(
            Program::decode_from(&buf, &mut pos).unwrap(),
            Program::default()
        );
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decoder_rejects_corruption_without_panicking() {
        let p = Program::from_calls(&[ProgCall {
            sys: 1,
            args: vec![Value::Int(5)],
        }]);
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(Program::decode_from(&buf[..cut], &mut pos).is_err());
        }
        // Unknown tag.
        let mut bad = buf.clone();
        let tag_at = 4 + 4 + 4; // n_calls, sys, n_args
        bad[tag_at] = 0xEE;
        let mut pos = 0;
        assert!(Program::decode_from(&bad, &mut pos).is_err());
        // Nesting past the depth bound: a chain of Ptr tags.
        let mut deep = Vec::new();
        super::put_u32(&mut deep, 1); // one call
        super::put_u32(&mut deep, 0); // sys
        super::put_u32(&mut deep, 1); // one arg
        deep.extend(std::iter::repeat_n(super::TAG_PTR, 200));
        deep.push(super::TAG_PTR_NULL);
        let mut pos = 0;
        let err = Program::decode_from(&deep, &mut pos).unwrap_err();
        assert_eq!(err.message, "value nesting too deep");
    }

    #[test]
    fn decoder_names_oversized_counts_and_producers() {
        let decode = |bytes: &[u8]| Program::decode_from(bytes, &mut 0).unwrap_err().message;
        let mut b = Vec::new();
        put_u32(&mut b, u32::MAX); // calls
        assert_eq!(decode(&b), "call count exceeds input");
        let mut b = Vec::new();
        put_u32(&mut b, 1);
        put_u32(&mut b, 0);
        put_u32(&mut b, 1_000_000); // args
        assert_eq!(decode(&b), "argument count exceeds input");
        let mut b = Vec::new();
        put_u32(&mut b, 1);
        put_u32(&mut b, 0);
        put_u32(&mut b, 1);
        b.push(TAG_GROUP);
        put_u32(&mut b, u32::MAX);
        assert_eq!(decode(&b), "element count exceeds input");
        for producer in [u64::from(u32::MAX), 1 << 40] {
            let mut b = Vec::new();
            put_u32(&mut b, 1);
            put_u32(&mut b, 0);
            put_u32(&mut b, 1);
            b.push(TAG_RES);
            put_u64(&mut b, producer);
            put_u64(&mut b, 0);
            assert_eq!(decode(&b), "producer index out of range");
        }
    }
}
