//! Model-based randomized test for the CTX-filtered store buffer: the
//! forwarding decision — down to the store a blocked load must wait on —
//! must match a naive reference model for arbitrary interleavings of
//! stores, kills, and position invalidations, and a kill must leave no
//! dead entry behind.

use pp_core::{LoadCheck, StoreBuffer};
use pp_ctx::{CtxTag, ResolutionKill};
use pp_isa::Width;
use pp_testutil::{cases, Rng};

/// One store in the reference model.
#[derive(Debug, Clone)]
struct ModelStore {
    seq: u64,
    tag: CtxTag,
    addr: Option<u64>,
    data: Option<i64>,
    width: Width,
    killed: bool,
}

/// What the paper says should happen, written as directly as possible.
/// A blocked load names the oldest participating store that blocks it.
fn model_check(
    stores: &[ModelStore],
    load_seq: u64,
    load_tag: &CtxTag,
    addr: u64,
    width: Width,
) -> LoadCheck {
    let overlap = |a: u64, aw: Width, b: u64, bw: Width| a < b + bw.bytes() && b < a + aw.bytes();
    let mut forward = None;
    for s in stores {
        if s.killed || s.seq >= load_seq || !load_tag.is_descendant_or_equal(&s.tag) {
            continue;
        }
        match s.addr {
            None => return LoadCheck::Block(s.seq),
            Some(sa) => {
                if sa == addr && s.width == width {
                    match s.data {
                        Some(d) => forward = Some(d),
                        None => return LoadCheck::Block(s.seq),
                    }
                } else if overlap(sa, s.width, addr, width) {
                    return LoadCheck::Block(s.seq);
                }
            }
        }
    }
    forward.map_or(LoadCheck::Memory, LoadCheck::Forward)
}

#[derive(Debug, Clone)]
enum Step {
    /// Insert a store: tag path bits, has address yet, narrow width.
    Insert {
        path: u8,
        resolved: bool,
        byte: bool,
        addr: u8,
        data: i8,
    },
    /// Kill descendants of a one-position tag.
    Kill { pos: u8, dir: bool },
    /// Invalidate a position everywhere.
    Invalidate { pos: u8 },
}

/// Weighted step: inserts dominate (6:1:1) as in the original strategy.
fn step(rng: &mut Rng) -> Step {
    match rng.below(8) {
        0..=5 => Step::Insert {
            path: rng.any_u8(),
            resolved: rng.flip(),
            byte: rng.flip(),
            addr: rng.any_u8(),
            data: rng.any_i8(),
        },
        6 => Step::Kill {
            pos: rng.in_range(0..6) as u8,
            dir: rng.flip(),
        },
        _ => Step::Invalidate {
            pos: rng.in_range(0..6) as u8,
        },
    }
}

/// Tag from the low 6 bits of `path`: bit i set → position i valid with
/// direction from bit 6 of `path`.
fn tag_of(path: u8) -> CtxTag {
    let mut t = CtxTag::root();
    for pos in 0..6 {
        if path & (1 << pos) != 0 {
            t = t.with_position(pos, (path >> 6) & 1 == 0);
        }
    }
    t
}

#[test]
fn store_buffer_matches_model() {
    cases(512, |rng| {
        let steps = rng.vec_of(0..60, step);
        let load_path = rng.any_u8();
        let load_addr = rng.any_u8();
        let load_byte = rng.flip();

        let mut sb = StoreBuffer::new();
        let mut model: Vec<ModelStore> = Vec::new();
        let mut seq = 0u64;

        for s in steps {
            match s {
                Step::Insert {
                    path,
                    resolved,
                    byte,
                    addr,
                    data,
                } => {
                    let tag = tag_of(path);
                    let width = if byte { Width::Byte } else { Width::Word };
                    sb.insert(seq, tag, width);
                    let mut m = ModelStore {
                        seq,
                        tag,
                        addr: None,
                        data: None,
                        width,
                        killed: false,
                    };
                    if resolved {
                        sb.set_addr_data(seq, addr as u64, data as i64);
                        m.addr = Some(addr as u64);
                        m.data = Some(data as i64);
                    }
                    model.push(m);
                    seq += 1;
                }
                Step::Kill { pos, dir } => {
                    // The simulator issues single-(position, direction) kill
                    // selectors; for eager tags that test is equivalent to
                    // "descendant of the one-position wrong-path tag", which
                    // is what the model checks.
                    let wrong = CtxTag::root().with_position(pos as usize, dir);
                    sb.kill_matching(&ResolutionKill {
                        pos: pos as usize,
                        dir,
                        stale_before: 0,
                    });
                    for m in &mut model {
                        if m.tag.is_descendant_or_equal(&wrong) {
                            m.killed = true;
                        }
                    }
                    // The kill removes what it matches: the buffer holds
                    // exactly the model's live stores, in order.
                    let held: Vec<u64> = sb.debug_iter().map(|e| e.seq).collect();
                    let live: Vec<u64> =
                        model.iter().filter(|m| !m.killed).map(|m| m.seq).collect();
                    assert_eq!(held, live, "dead entries left behind by a kill");
                    assert_eq!(held.len(), sb.len(), "len counts the held entries");
                }
                Step::Invalidate { pos } => {
                    sb.invalidate_position(pos as usize);
                    for m in &mut model {
                        if !m.killed {
                            m.tag.invalidate(pos as usize);
                        }
                    }
                }
            }
        }

        // Probe a load younger than everything, and one in the middle.
        let load_tag = tag_of(load_path);
        let width = if load_byte { Width::Byte } else { Width::Word };
        for load_seq in [seq + 1, seq / 2] {
            let addr = load_addr as u64;
            let want = model_check(&model, load_seq, &load_tag, addr, width);
            let got = sb.check_load(load_seq, &load_tag, addr, width);
            assert_eq!(got, want, "fast path vs model, load seq {load_seq}");
            let naive = sb.check_load_naive(load_seq, &load_tag, addr, width);
            assert_eq!(naive, want, "naive path vs model, load seq {load_seq}");
        }
    });
}
