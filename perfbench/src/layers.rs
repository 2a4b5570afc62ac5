//! Layer replays of the traced run. Each one calls a crate's public
//! functions on the workload's own data — its programs, its fork and
//! resolve mix, its cells and their `SimStats` — and times the calls.
//! Calls too short for the clock are repeated until the batch lasts at
//! least [`MIN_BATCH`].

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use pp_core::SimStats;
use pp_ctx::{CtxTag, PositionAllocator, ResolutionKill, TagIndex};
use pp_func::Emulator;
use pp_isa::Program;
use pp_predictor::{push_history, Confidence, Gshare, H2p, H2pConfig, Jrs, JrsConfig};
use pp_serve::{AdmitOutcome, LeaseOutcome, Reply, Request, Runtime, ServeConfig, WorkStatus};
use pp_sweep::{ResultStore, SweepCell};

use crate::kernel::{CoreProbe, CtxOp};
use crate::util::{ratio, repeat_for};
use crate::Run;

/// Shortest timed batch of a replay.
const MIN_BATCH: Duration = Duration::from_millis(20);
/// Most CTX states kept for the timed CTX loops.
const CTX_SAMPLES: usize = 4096;
/// Path slots a `TagIndex` holds (its mask is one word).
const INDEX_SLOTS: usize = 64;
/// Predictor sizes of the baseline machine.
const HISTORY_BITS: u32 = 14;

/// Every layer replay, for a workload whose kernel probe is `probe` and
/// whose distinct cells and results are `cells`/`stats`.
pub fn common(run: &mut Run, probe: &CoreProbe, cells: &[SweepCell], stats: &[SimStats]) {
    predictor(run, &probe.kernel.programs);
    let positions = probe
        .kernel
        .cells
        .iter()
        .map(|c| c.config.ctx_positions)
        .max()
        .unwrap_or(1);
    let paths = probe
        .kernel
        .cells
        .iter()
        .map(|c| c.config.max_paths)
        .max()
        .unwrap_or(1);
    ctx(run, &probe.ctx_ops.ops, positions, paths.min(INDEX_SLOTS));
    store(run, cells, stats);
    wire(run, cells, stats);
    runtime(run, cells, stats);
    if !run.has("serve.handshake_s") {
        let named = vec![("perfbench".to_string(), cells.to_vec())];
        match crate::serve::bind_and_probe(named, None, 1) {
            Ok((_, shake)) => run.metric("serve.handshake_s", shake.as_secs_f64()),
            Err(e) => run.fail(format!("handshake probe: {e}")),
        }
    }
}

/// pp-func and pp-predictor: record each program's correct-path branch
/// stream with the emulator, then replay it through gshare, JRS (fed
/// gshare's predictions) and H2p.
fn predictor(run: &mut Run, programs: &[Program]) {
    let (mut instructions, mut emu_s) = (0u64, 0.0);
    let mut branches: Vec<(usize, bool)> = Vec::new();
    for p in programs {
        let t = Instant::now();
        let traced = run.tracer.time("func.run_with_trace", || {
            Emulator::new(p).run_with_trace(20_000_000_000)
        });
        emu_s += t.elapsed().as_secs_f64();
        match traced {
            Ok((summary, trace)) => {
                instructions += summary.instructions;
                branches.extend(
                    (0..trace.len())
                        .filter_map(|i| trace.get(i))
                        .map(|r| (r.pc, r.taken)),
                );
            }
            Err(e) => run.fail(format!("emulator: {e}")),
        }
    }
    run.metric("func.mips", ratio(instructions as f64 / 1e6, emu_s));
    let n = branches.len().max(1) as f64;

    let id = run.tracer.begin("predictor.gshare");
    let (per, preds) = repeat_for(MIN_BATCH, || {
        let mut g = Gshare::new(HISTORY_BITS);
        let mut ghr = 0u64;
        let mut out = Vec::with_capacity(branches.len());
        for &(pc, taken) in &branches {
            let p = g.predict(pc, ghr);
            g.update(pc, ghr, taken);
            out.push((ghr, p));
            ghr = push_history(ghr, taken);
        }
        out
    });
    run.tracer.end(id);
    run.metric("predictor.gshare_ns", per.as_secs_f64() * 1e9 / n);
    let wrong = |i: usize| preds[i].1 != branches[i].1;
    let mispredicts = (0..branches.len()).filter(|&i| wrong(i)).count();
    run.metric("predictor.mispredict_rate", mispredicts as f64 / n);

    let id = run.tracer.begin("predictor.jrs");
    let (per, (low, low_wrong)) = repeat_for(MIN_BATCH, || {
        let mut jrs = Jrs::new(JrsConfig::paper_baseline().with_index_bits(HISTORY_BITS));
        let (mut low, mut low_wrong) = (0u64, 0u64);
        for (i, &(pc, _)) in branches.iter().enumerate() {
            let (ghr, p) = preds[i];
            if jrs.estimate(pc, ghr, p) == Confidence::Low {
                low += 1;
                low_wrong += u64::from(wrong(i));
            }
            jrs.update(pc, ghr, p, !wrong(i));
        }
        (low, low_wrong)
    });
    run.tracer.end(id);
    run.metric("predictor.jrs_ns", per.as_secs_f64() * 1e9 / n);
    run.metric("predictor.jrs_pvn", ratio(low_wrong as f64, low as f64));

    let id = run.tracer.begin("predictor.h2p");
    let (per, low) = repeat_for(MIN_BATCH, || {
        let mut h2p = H2p::new(H2pConfig::bullseye_default());
        let mut low = 0u64;
        for (i, &(pc, _)) in branches.iter().enumerate() {
            let ghr = preds[i].0;
            low += u64::from(h2p.estimate(pc, ghr) == Confidence::Low);
            h2p.update(pc, ghr, !wrong(i));
        }
        low
    });
    run.tracer.end(id);
    black_box(low);
    run.metric("predictor.h2p_ns", per.as_secs_f64() * 1e9 / n);
}

/// One CTX state captured at a kill broadcast.
struct CtxSample {
    index: TagIndex,
    kill: ResolutionKill,
    survivor: CtxTag,
    free_slot: usize,
}

/// A path table driven by the recorded fork/resolve mix: a fork splits
/// the youngest path at a fresh history position, a resolve kills the
/// wrong side of the oldest open fork, and a recovery broadcasts a kill
/// at a fresh position. States at each kill are sampled.
struct CtxModel {
    alloc: PositionAllocator,
    index: TagIndex,
    tags: Vec<Option<CtxTag>>,
    live: Vec<usize>,
    forks: VecDeque<usize>,
    flip: bool,
}

impl CtxModel {
    fn new(positions: usize, slots: usize) -> Self {
        let mut index = TagIndex::new(positions, INDEX_SLOTS);
        index.insert(0, &CtxTag::root());
        let mut tags = vec![None; slots.clamp(2, INDEX_SLOTS - 1)];
        tags[0] = Some(CtxTag::root());
        CtxModel {
            alloc: PositionAllocator::new(positions),
            index,
            tags,
            live: vec![0],
            forks: VecDeque::new(),
            flip: false,
        }
    }

    fn fork(&mut self) {
        let Some(&parent) = self.live.last() else {
            return;
        };
        let Some(free) = self.tags.iter().position(Option::is_none) else {
            return;
        };
        let Some(pos) = self.alloc.allocate() else {
            return;
        };
        let ptag = self.tags[parent].expect("live slot has a tag");
        self.index.extend(parent, pos, true);
        self.tags[parent] = Some(ptag.with_position(pos, true));
        let other = ptag.with_position(pos, false);
        self.index.insert(free, &other);
        self.tags[free] = Some(other);
        self.live.push(free);
        self.forks.push_back(pos);
    }

    /// Kill the wrong side at `pos`, sample the state, retire `pos`.
    fn kill(&mut self, pos: usize, sample: bool, out: &mut Vec<CtxSample>) {
        self.flip = !self.flip;
        let kill = self.alloc.resolution_kill(pos, self.flip);
        if sample {
            let survivor = self
                .live
                .iter()
                .find_map(|&s| self.tags[s].filter(|t| !kill.matches_eager(t)))
                .unwrap_or_else(CtxTag::root);
            let live = self.index.live_mask();
            out.push(CtxSample {
                index: self.index.clone(),
                kill,
                survivor,
                free_slot: (!live).trailing_zeros() as usize,
            });
        }
        let doomed = self.index.killed_by(&kill);
        if doomed.count_ones() as usize >= self.live.len() {
            // Never kill every path: keep the model's root lineage alive.
            self.flip = !self.flip;
            return self.retire(pos);
        }
        for slot in 0..self.tags.len() {
            if doomed & (1 << slot) != 0 {
                let tag = self.tags[slot].take().expect("doomed slot has a tag");
                self.index.remove(slot, &tag);
                self.live.retain(|&s| s != slot);
            }
        }
        self.retire(pos);
        // Forks opened on killed paths lost every holder.
        let index = &self.index;
        let alloc = &mut self.alloc;
        self.forks.retain(|&p| {
            let held = index.holding_position(p) != 0;
            if !held {
                alloc.free(p);
            }
            held
        });
    }

    /// The commit broadcast for `pos`: every tag drops it.
    fn retire(&mut self, pos: usize) {
        self.index.invalidate_position(pos);
        for t in self.tags.iter_mut().flatten() {
            t.invalidate(pos);
        }
        self.alloc.free(pos);
    }
}

/// pp-ctx: replay `ops` through `TagIndex`/`ResolutionKill`, then time
/// the kill-set, descendant and insert/remove calls on sampled states.
fn ctx(run: &mut Run, ops: &[CtxOp], positions: usize, slots: usize) {
    let kills = ops.iter().filter(|o| **o != CtxOp::Fork).count();
    let stride = kills.div_ceil(CTX_SAMPLES).max(1);
    let mut model = CtxModel::new(positions, slots);
    let mut samples = Vec::new();
    let mut seen = 0usize;
    let id = run.tracer.begin("ctx.replay");
    for op in ops {
        match op {
            CtxOp::Fork => model.fork(),
            CtxOp::Resolve | CtxOp::Recover => {
                let pos = match (op, model.forks.pop_front()) {
                    (CtxOp::Resolve, Some(p)) => Some(p),
                    (_, popped) => {
                        if let Some(p) = popped {
                            model.forks.push_front(p);
                        }
                        model.alloc.allocate()
                    }
                };
                if let Some(pos) = pos {
                    model.kill(pos, seen.is_multiple_of(stride), &mut samples);
                    seen += 1;
                }
            }
        }
    }
    run.tracer.end(id);
    if samples.is_empty() {
        // No kill in the stream: time the calls on the root-only state.
        let pos = model.alloc.allocate().unwrap_or(0);
        model.kill(pos, true, &mut samples);
    }
    let n = samples.len() as f64;
    let id = run.tracer.begin("ctx.killed_by");
    let (per, acc) = repeat_for(MIN_BATCH, || {
        samples
            .iter()
            .fold(0u64, |a, s| a ^ black_box(s.index.killed_by(&s.kill)))
    });
    run.tracer.end(id);
    black_box(acc);
    run.metric("ctx.killed_by_ns", per.as_secs_f64() * 1e9 / n);
    let id = run.tracer.begin("ctx.descendants");
    let (per, acc) = repeat_for(MIN_BATCH, || {
        samples.iter().fold(0u64, |a, s| {
            a ^ black_box(s.index.descendants_of(&s.survivor))
        })
    });
    run.tracer.end(id);
    black_box(acc);
    run.metric("ctx.descendants_ns", per.as_secs_f64() * 1e9 / n);
    let id = run.tracer.begin("ctx.insert_remove");
    let (per, ()) = repeat_for(MIN_BATCH, || {
        for s in &mut samples {
            s.index.insert(s.free_slot, &s.survivor);
            s.index.remove(s.free_slot, &s.survivor);
        }
    });
    run.tracer.end(id);
    run.metric("ctx.insert_remove_ns", per.as_secs_f64() * 1e9 / n);
    println!(
        "ctx replay: {} ops ({} kills), {} sampled states",
        ops.len(),
        kills,
        samples.len()
    );
}

/// pp-sweep's store and the `SimStats` codec: fingerprint, encode,
/// save, load and decode every cell, checking each load and decode.
fn store(run: &mut Run, cells: &[SweepCell], stats: &[SimStats]) {
    let n = cells.len().max(1) as f64;
    let id = run.tracer.begin("sweep.fingerprint");
    let (per, _) = repeat_for(MIN_BATCH, || {
        cells.iter().map(SweepCell::fingerprint).count()
    });
    run.tracer.end(id);
    run.metric("sweep.fingerprint_us", per.as_secs_f64() * 1e6 / n);

    let id = run.tracer.begin("stats.to_json");
    let (per, json) = repeat_for(MIN_BATCH, || {
        stats.iter().map(SimStats::to_json).collect::<Vec<_>>()
    });
    run.tracer.end(id);
    run.metric("stats.to_json_us", per.as_secs_f64() * 1e6 / n);

    let id = run.tracer.begin("stats.from_json");
    let (per, decoded) = repeat_for(MIN_BATCH, || {
        json.iter()
            .map(|j| SimStats::from_json(j))
            .collect::<Vec<_>>()
    });
    run.tracer.end(id);
    run.metric("stats.from_json_us", per.as_secs_f64() * 1e6 / n);
    run.attempt(1);
    if decoded.iter().zip(stats).any(|(d, s)| d.as_ref() != Ok(s)) {
        run.fail("SimStats::from_json is not the inverse of to_json");
    }

    let store = ResultStore::new(run.scratch.fresh("probe-store"));
    let id = run.tracer.begin("sweep.save");
    let (per, saved) = repeat_for(MIN_BATCH, || {
        cells
            .iter()
            .zip(stats)
            .map(|(c, s)| store.save(c, s))
            .collect::<Vec<_>>()
    });
    run.tracer.end(id);
    run.metric("sweep.save_us", per.as_secs_f64() * 1e6 / n);
    let id = run.tracer.begin("sweep.load");
    let (per, loaded) = repeat_for(MIN_BATCH, || {
        cells.iter().map(|c| store.load(c)).collect::<Vec<_>>()
    });
    run.tracer.end(id);
    run.metric("sweep.load_us", per.as_secs_f64() * 1e6 / n);
    run.attempt(1);
    if saved.iter().any(Result::is_err)
        || loaded.iter().zip(stats).any(|(l, s)| l.as_ref() != Some(s))
    {
        run.fail("ResultStore did not load back what it saved");
    }
}

/// The frames of one leased cell: lease, cell, result, ack.
fn frames(i: usize, cell: &SweepCell, stats: &SimStats) -> (Vec<Request>, Vec<Reply>) {
    let fingerprint = cell.fingerprint();
    let requests = vec![
        Request::Lease,
        Request::Result {
            index: i as u64,
            fingerprint: fingerprint.clone(),
            status: WorkStatus::Ok,
            stats: stats.to_json(),
            message: String::new(),
        },
    ];
    let replies = vec![
        Reply::Cell {
            index: i as u64,
            fingerprint,
            label: cell.label(),
            deadline_ms: 120_000,
        },
        Reply::Ack {
            index: i as u64,
            cached: false,
        },
    ];
    (requests, replies)
}

/// pp-serve's wire codec: encode and decode every frame of a served
/// grid, checking each decode.
fn wire(run: &mut Run, cells: &[SweepCell], stats: &[SimStats]) {
    let (mut requests, mut replies) = (Vec::new(), Vec::new());
    for (i, (c, s)) in cells.iter().zip(stats).enumerate() {
        let (q, r) = frames(i, c, s);
        requests.extend(q);
        replies.extend(r);
    }
    let n = (requests.len() + replies.len()).max(1) as f64;
    let id = run.tracer.begin("serve.encode");
    let (per, lines) = repeat_for(MIN_BATCH, || {
        let q: Vec<String> = requests.iter().map(Request::to_line).collect();
        let r: Vec<String> = replies.iter().map(Reply::to_line).collect();
        (q, r)
    });
    run.tracer.end(id);
    run.metric("serve.frame_encode_us", per.as_secs_f64() * 1e6 / n);
    let id = run.tracer.begin("serve.decode");
    let (per, decoded) = repeat_for(MIN_BATCH, || {
        let q: Vec<_> = lines.0.iter().map(|l| Request::from_line(l)).collect();
        let r: Vec<_> = lines.1.iter().map(|l| Reply::from_line(l)).collect();
        (q, r)
    });
    run.tracer.end(id);
    run.metric("serve.frame_decode_us", per.as_secs_f64() * 1e6 / n);
    run.attempt(1);
    let q_ok = decoded
        .0
        .iter()
        .zip(&requests)
        .all(|(d, q)| d.as_ref().ok() == Some(q));
    let r_ok = decoded
        .1
        .iter()
        .zip(&replies)
        .all(|(d, r)| d.as_ref().ok() == Some(r));
    if !(q_ok && r_ok) {
        run.fail("a wire frame did not decode to what was encoded");
    }
}

/// pp-serve's runtime: lease and complete every cell for one client,
/// with an explicit `now`.
fn runtime(run: &mut Run, cells: &[SweepCell], stats: &[SimStats]) {
    let json: Vec<String> = stats.iter().map(SimStats::to_json).collect();
    let mut rt = Runtime::new(cells.to_vec(), None, ServeConfig::default());
    let AdmitOutcome::Admitted(client) = rt.admit("perfbench") else {
        run.fail("runtime refused the only client");
        return;
    };
    let now = Instant::now();
    let (mut lease_t, mut complete_t) = (Duration::ZERO, Duration::ZERO);
    let mut leases = 0u64;
    let id = run.tracer.begin("serve.runtime");
    loop {
        let t = Instant::now();
        let out = rt.lease(client, now);
        lease_t += t.elapsed();
        let LeaseOutcome::Leased {
            index, fingerprint, ..
        } = out
        else {
            break;
        };
        leases += 1;
        let t = Instant::now();
        let done = rt.complete(client, index, &fingerprint, WorkStatus::Ok, &json[index]);
        complete_t += t.elapsed();
        match done {
            Ok(false) => {}
            Ok(true) => run.fail("runtime took a first result as redundant"),
            Err(e) => run.fail(format!("runtime rejected a result: {e}")),
        }
    }
    run.tracer.end(id);
    let snap = rt.snapshot();
    run.attempt(1);
    if snap.complete != snap.total {
        run.fail("runtime replay left cells incomplete");
    }
    let per = |d: Duration| d.as_secs_f64() * 1e6 / leases.max(1) as f64;
    run.metric("serve.lease_us", per(lease_t));
    run.metric("serve.complete_us", per(complete_t));
}
