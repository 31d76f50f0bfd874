//! Spec-driven program generation and mutation over the lowered IR.
//!
//! The generator walks the flat [`LoweredDb`] arena: flag sets are
//! pre-resolved `u64` slices, struct fields are index tables, and
//! resource producers are integer lists — the per-value path performs
//! no name lookup, no `flags_def`/`struct_def` call, and no constant
//! resolution. The RNG draw sequence is **identical** to the AST walk
//! ([`crate::reference::AstGenerator`]), so program streams are
//! bit-for-bit the same; `tests/properties.rs` and the `lowering`
//! section of `fuzz_bench` pin that equivalence.

use crate::program::Program;
use crate::reference::INTERESTING;
use kgpt_syzlang::ast::ArrayLen;
use kgpt_syzlang::lowered::{LType, LoweredDb, ResourceId, TypeId};
use kgpt_syzlang::prog::ProgBuf;
use kgpt_syzlang::value::ResRef;
use kgpt_syzlang::{ConstDb, SpecDb};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Generates and mutates programs from a lowered specification.
pub struct Generator {
    lowered: Arc<LoweredDb>,
    rng: StdRng,
    /// Enabled syscalls as dense database indices.
    enabled: Vec<u32>,
    /// Scratch arena new nodes are written into before an
    /// exact-capacity [`Program`] is emitted: reused, so at steady
    /// state generation allocates only the program it returns.
    buf: ProgBuf,
    /// Syscall index of every call visible to producer lookups.
    sys: Vec<u32>,
}

impl Generator {
    /// Create a generator over all syscalls of a database, lowering
    /// it on the spot. Campaign code paths share one pre-lowered IR
    /// via [`Generator::from_lowered`] instead.
    #[must_use]
    pub fn new(db: &SpecDb, consts: &ConstDb, seed: u64) -> Generator {
        Generator::from_lowered(Arc::new(LoweredDb::build(db, consts)), seed)
    }

    /// Create a generator over a shared lowered IR.
    #[must_use]
    pub fn from_lowered(lowered: Arc<LoweredDb>, seed: u64) -> Generator {
        let enabled = (0..lowered.syscall_count() as u32).collect();
        Generator {
            lowered,
            rng: StdRng::seed_from_u64(seed),
            enabled,
            buf: ProgBuf::default(),
            sys: Vec::new(),
        }
    }

    /// Restrict generation to the given syscalls (per-driver runs).
    #[must_use]
    pub fn with_enabled(mut self, enabled: Vec<String>) -> Generator {
        self.enabled = enabled
            .iter()
            .filter_map(|n| self.lowered.syscall_index(n))
            .map(|i| i as u32)
            .collect();
        self
    }

    /// Number of enabled syscalls.
    #[must_use]
    pub fn enabled_count(&self) -> usize {
        self.enabled.len()
    }

    /// The shared lowered IR this generator draws from.
    #[must_use]
    pub fn lowered(&self) -> &Arc<LoweredDb> {
        &self.lowered
    }

    /// The raw RNG state words, for checkpointing mid-campaign.
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Continue the draw stream from state captured with
    /// [`Generator::rng_state`]: restore, not reseeding — subsequent
    /// programs are bit-identical to continuing the original
    /// generator.
    pub fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Generate a fresh program of at most `max_len` calls.
    pub fn gen_program(&mut self, max_len: usize) -> Program {
        let Generator {
            lowered,
            rng,
            enabled,
            buf,
            sys,
        } = self;
        buf.clear();
        sys.clear();
        let want = rng.random_range(1..=max_len.max(1));
        for _ in 0..want {
            if enabled.is_empty() {
                break;
            }
            let pick = enabled[rng.random_range(0..enabled.len())];
            append_call(lowered, rng, buf, sys, pick, 0);
            if sys.len() >= max_len {
                break;
            }
        }
        buf.to_program()
    }

    /// Mutate a program: regenerate an argument, append a call, or
    /// truncate. Returns a fresh program (input untouched), built in
    /// one exact-capacity allocation: the regenerate arm splices the
    /// new argument's nodes over the old argument's range, the append
    /// arm concatenates the new calls, the truncate arm copies the
    /// kept prefix. Output and draws are bit-identical to the
    /// deep-clone [`crate::reference::AstGenerator::mutate`].
    pub fn mutate(&mut self, prog: &Program, max_len: usize) -> Program {
        if prog.is_empty() {
            return self.gen_program(max_len);
        }
        let Generator {
            lowered,
            rng,
            enabled,
            buf,
            sys,
        } = self;
        buf.clear();
        sys.clear();
        let n_calls = prog.len();
        match rng.random_range(0..10u32) {
            // Regenerate one argument of one call.
            0..=5 => {
                let ci = rng.random_range(0..n_calls);
                let call = prog.call(ci);
                let n_args = call.arg_count();
                if n_args == 0 {
                    return prog.clone();
                }
                let ai = rng.random_range(0..n_args);
                let ty = lowered.syscall(call.sys() as usize).params[ai].ty;
                // Generation only reads the calls before `ci`.
                sys.extend(prog.calls().take(ci).map(|c| c.sys()));
                gen_value(lowered, rng, ty, buf, sys, 0);
                prog.with_arg(ci, ai, buf)
            }
            // Append a random enabled call.
            6..=8 => {
                if enabled.is_empty() || n_calls >= max_len {
                    return prog.clone();
                }
                sys.extend(prog.calls().map(|c| c.sys()));
                let pick = enabled[rng.random_range(0..enabled.len())];
                append_call(lowered, rng, buf, sys, pick, 0);
                prog.with_calls(buf)
            }
            // Truncate: copy only the kept prefix.
            _ => {
                let keep = rng.random_range(1..=n_calls);
                prog.prefix(keep)
            }
        }
    }
}

/// Index of the most recent call in `calls` whose return value
/// produces `res` — a dense-id compare per call, where the AST walk
/// compared name strings.
fn find_producer(lowered: &LoweredDb, calls: &[u32], res: ResourceId) -> Option<usize> {
    calls
        .iter()
        .rposition(|&c| lowered.syscall(c as usize).ret_resource == Some(res))
}

/// Append a call to `out` (prepending producers for its resources);
/// `sys` lists every call before it and gains the appended ones.
fn append_call(
    lowered: &LoweredDb,
    rng: &mut StdRng,
    out: &mut ProgBuf,
    sys: &mut Vec<u32>,
    sys_idx: u32,
    depth: usize,
) {
    if depth > 6 || sys.len() > 24 {
        return;
    }
    let call = lowered.syscall(sys_idx as usize);
    // Satisfy consumed resources.
    for p in &call.params {
        if let LType::Resource { res } = lowered.ltype(p.ty) {
            if find_producer(lowered, sys, res).is_none() {
                if let Some(pick) = lowered
                    .lresource(res)
                    .producer_list()
                    .and_then(|list| list.choose(rng))
                    .copied()
                {
                    append_call(lowered, rng, out, sys, pick, depth + 1);
                }
            }
        }
    }
    let open = out.open_call(sys_idx, call.params.len());
    for p in &call.params {
        gen_value(lowered, rng, p.ty, out, sys, 0);
    }
    out.close(open);
    sys.push(sys_idx);
}

/// Write a value for a lowered type to `out`, resolving resource
/// references against `calls`.
fn gen_value(
    lowered: &LoweredDb,
    rng: &mut StdRng,
    ty: TypeId,
    out: &mut ProgBuf,
    calls: &[u32],
    depth: usize,
) {
    if depth > 12 {
        out.push_int(0);
        return;
    }
    match lowered.ltype(ty) {
        LType::Int { bits, range } => {
            let v = match range {
                // Mostly respect declared ranges; occasionally probe
                // outside them (the kernel should EINVAL).
                Some((lo, hi)) if rng.random_bool(0.85) => {
                    if hi > lo {
                        lo + rng.random_range(0..=(hi - lo))
                    } else {
                        lo
                    }
                }
                _ => gen_int(rng),
            };
            out.push_int(bits.truncate(v));
        }
        LType::Const { .. } => out.push_int(0), // encoder substitutes
        LType::Flags { values, bits } => {
            let members = lowered.flag_values(values);
            let mut acc = 0u64;
            for v in members {
                if rng.random_bool(0.4) {
                    acc |= v;
                }
            }
            if members.is_empty() || rng.random_bool(0.05) {
                acc = gen_int(rng);
            }
            out.push_int(bits.truncate(acc));
        }
        LType::StringLit { strs } => {
            let s = lowered
                .strings(strs)
                .choose(rng)
                .map_or(&[][..], Vec::as_slice);
            out.push_bytes(s);
        }
        LType::Ptr { elem, .. } => {
            if rng.random_bool(0.03) {
                out.push_null_ptr();
            } else {
                let open = out.open_ptr();
                gen_value(lowered, rng, elem, out, calls, depth + 1);
                out.close(open);
            }
        }
        LType::Array {
            elem,
            len,
            byte_elem,
        } => {
            let n = match len {
                ArrayLen::Fixed(n) => n,
                ArrayLen::Range(lo, hi) => {
                    if hi > lo {
                        lo + rng.random_range(0..=(hi - lo).min(16))
                    } else {
                        lo
                    }
                }
                // Long-tailed sizes: mostly small, sometimes page-
                // scale (large payloads are how the sendmsg-path
                // bugs are reached).
                ArrayLen::Unsized => match rng.random_range(0..10u32) {
                    0..=6 => rng.random_range(0..8),
                    7 | 8 => rng.random_range(8..256),
                    _ => rng.random_range(256..4096),
                },
            };
            // Byte arrays as raw buffers (cheaper, and what the
            // kernel decodes anyway), one draw per byte.
            if byte_elem {
                out.push_bytes_with(n as usize, |bytes| {
                    for b in bytes {
                        *b = rng.random_range(0..=255u32) as u8;
                    }
                });
                return;
            }
            let open = out.open_group(n as usize);
            for _ in 0..n {
                gen_value(lowered, rng, elem, out, calls, depth + 1);
            }
            out.close(open);
        }
        LType::Len { .. } | LType::Bytesize { .. } => out.push_int(0), // auto-filled
        LType::Resource { res } => out.push_res(ResRef {
            producer: find_producer(lowered, calls, res),
            // Dangling references land on small fds/ids sometimes.
            fallback: if rng.random_bool(0.5) {
                rng.random_range(0..6)
            } else {
                u64::MAX
            },
        }),
        LType::Struct { id } => {
            let def = lowered.lstruct(id);
            if def.is_union {
                let arm = rng.random_range(0..def.fields.len().max(1));
                let open = out.open_union(arm);
                match def.fields.get(arm) {
                    Some(f) => gen_value(lowered, rng, f.ty, out, calls, depth + 1),
                    None => out.push_int(0),
                }
                out.close(open);
            } else {
                let open = out.open_group(def.fields.len());
                for f in &def.fields {
                    gen_value(lowered, rng, f.ty, out, calls, depth + 1);
                }
                out.close(open);
            }
        }
        LType::UnknownNamed { .. } => out.push_int(0),
        LType::Proc { start, per, .. } => out.push_int(start + per),
        LType::Void => {
            let open = out.open_group(0);
            out.close(open);
        }
    }
}

fn gen_int(rng: &mut StdRng) -> u64 {
    if rng.random_bool(0.7) {
        *INTERESTING.choose(rng).expect("non-empty")
    } else {
        rng.random()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::AstGenerator;
    use kgpt_csrc::KernelCorpus;
    use kgpt_syzlang::Value;

    fn dm_db() -> (SpecDb, ConstDb) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
        (db, kc.consts().clone())
    }

    #[test]
    fn generates_programs_with_producers() {
        let (db, consts) = dm_db();
        let mut g = Generator::new(&db, &consts, 7);
        let mut saw_dependent = false;
        for _ in 0..50 {
            let p = g.gen_program(5);
            assert!(!p.is_empty());
            // Any ioctl must be preceded by its openat producer.
            let calls = p.to_calls();
            for (i, c) in calls.iter().enumerate() {
                if c.syscall(&db).base == "ioctl" {
                    for r in c.args.iter().flat_map(Value::res_refs) {
                        if let Some(pi) = r.producer {
                            assert!(pi < i, "producer after consumer");
                            assert_eq!(calls[pi].syscall(&db).base, "openat");
                            saw_dependent = true;
                        }
                    }
                }
            }
        }
        assert!(saw_dependent, "no dependent calls generated in 50 programs");
    }

    #[test]
    fn generation_is_deterministic() {
        let (db, consts) = dm_db();
        let a: Vec<Program> = {
            let mut g = Generator::new(&db, &consts, 42);
            (0..10).map(|_| g.gen_program(4)).collect()
        };
        let b: Vec<Program> = {
            let mut g = Generator::new(&db, &consts, 42);
            (0..10).map(|_| g.gen_program(4)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_bit_identical_to_ast_walk() {
        let (db, consts) = dm_db();
        let mut lowered = Generator::new(&db, &consts, 42);
        let mut ast = AstGenerator::new(&db, &consts, 42);
        for i in 0..40 {
            assert_eq!(lowered.gen_program(6), ast.gen_program(6), "program {i}");
        }
    }

    #[test]
    fn mutation_is_bit_identical_to_ast_walk() {
        let (db, consts) = dm_db();
        let mut lowered = Generator::new(&db, &consts, 5);
        let mut ast = AstGenerator::new(&db, &consts, 5);
        let mut lp = lowered.gen_program(5);
        let mut ap = ast.gen_program(5);
        assert_eq!(lp, ap);
        for i in 0..200 {
            lp = lowered.mutate(&lp, 8);
            ap = ast.mutate(&ap, 8);
            assert_eq!(lp, ap, "mutation {i}");
        }
    }

    #[test]
    fn enabled_filter_restricts() {
        let (db, consts) = dm_db();
        let mut g = Generator::new(&db, &consts, 1)
            .with_enabled(vec!["openat$dm".into(), "bogus$x".into()]);
        assert_eq!(g.enabled_count(), 1);
        for _ in 0..10 {
            let p = g.gen_program(3);
            for c in p.calls() {
                assert_eq!(c.syscall(&db).name(), "openat$dm");
            }
        }
    }

    #[test]
    fn mutation_keeps_program_well_formed() {
        let (db, consts) = dm_db();
        let mut g = Generator::new(&db, &consts, 3);
        let mut p = g.gen_program(4);
        for _ in 0..100 {
            p = g.mutate(&p, 8);
            assert!(p.len() <= 25);
            for c in p.calls() {
                assert_eq!(c.arg_count(), c.syscall(&db).params.len());
            }
        }
    }
}
