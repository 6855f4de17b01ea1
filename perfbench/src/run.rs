//! Running one workload: repeated set-up, a closed-loop timed phase, a
//! fixed count pass, and the answer checks. With tracing on, each op is
//! also replayed layer by layer on an identical twin world, one timed
//! span per public call.

use crate::measure::{self, Span, Tracer};
use crate::world::{self, check_wire, cid_of, flat_profile, Op, OpGen, Report, Workload, World};
use aldsp::compiler::collect_sql_regions;
use aldsp::runtime::{ExecTuning, QueryBudget};
use aldsp::security::{AuditLog, Principal};
use aldsp::updates::ConcurrencyPolicy;
use aldsp::xdm::item::{Item, Sequence};
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{CallCriteria, ExecutionOptions, QueryRequest, StatsSnapshot, TraceLevel};
use aldsp_client::{Client, WireItem};
use aldsp_protocol::{ClientMsg, ServerMsg, WireExec, WireOptions};
use aldsp_server::{serve, WireConfig, WireListener};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Config {
    /// The untimed warm-up phase before the timed one.
    fn warm_seconds(&self) -> f64 {
        (self.seconds / 10.0).min(3.0)
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// `peak_rss_mb` is sampled once this many timed ops have completed
    /// (or at the end of a shorter run), so it does not grow with the
    /// number of ops a faster program completes.
    fn rss_after_ops(&self) -> u64 {
        match self.workload {
            Workload::PointWire => 400,
            Workload::ReportWire => 100,
            Workload::ProfileRw => 400,
        }
    }
}

/// The per-connection principals of a wire workload: `(name, roles)`.
fn principals(w: Workload) -> Vec<(&'static str, &'static [&'static str])> {
    match w {
        Workload::PointWire => vec![("csr", &[]), ("admin", &["admin"])],
        Workload::ReportWire => vec![("analyst", &[])],
        Workload::ProfileRw => vec![("app", &[]), ("app", &[])],
    }
}

fn principal(w: Workload, client: usize) -> Principal {
    let (name, roles) = principals(w)[client];
    Principal::new(name, roles)
}

/// `report_wire` runs its reports morsel-parallel on two workers.
fn wire_options(w: Workload) -> WireOptions {
    match w {
        Workload::ReportWire => WireOptions {
            exec: Some(WireExec {
                workers: 2,
                ..WireExec::default()
            }),
            ..WireOptions::default()
        },
        _ => WireOptions::default(),
    }
}

/// The in-process equivalent of [`wire_options`].
fn exec_options(w: Workload) -> Option<ExecutionOptions> {
    (w == Workload::ReportWire).then(|| ExecutionOptions::new().workers(2))
}

/// A set-up world: sources, server, listener and connected clients.
struct Live {
    world: World,
    listener: Option<WireListener>,
    clients: Vec<Client>,
    handles: HashMap<Report, u64>,
}

/// Build, deploy, bind, connect and warm: handles prepared and every
/// report run once, the plan cache filled with each client's warm-up
/// lookups, the matview filled with every key.
fn setup(cfg: &Config) -> Live {
    let w = cfg.workload;
    let world = world::build(w, cfg.smoke, true);
    let mut live = Live {
        world,
        listener: None,
        clients: Vec::new(),
        handles: HashMap::new(),
    };
    let customers = live.world.expected.ssn.len();
    if w.is_wire() {
        let listener = serve(
            "127.0.0.1:0",
            live.world.server.clone(),
            WireConfig::default(),
        )
        .expect("bind a loopback listener");
        for (name, roles) in principals(w) {
            live.clients
                .push(Client::connect(listener.local_addr(), name, roles).expect("connect"));
        }
        live.listener = Some(listener);
    }
    match w {
        Workload::ReportWire => {
            let client = &mut live.clients[0];
            for r in Report::ALL {
                let h = client.prepare(&r.source()).expect("report prepares").handle;
                live.handles.insert(r, h);
                let rs = client
                    .execute_prepared(h, &wire_options(w))
                    .expect("warm-up report runs");
                check_wire(&Op::Report(r), false, &rs.items, &live.world.expected)
                    .expect("warm-up report is correct");
            }
        }
        Workload::PointWire => {
            let warm = if cfg.smoke { 10 } else { 100 };
            for (c, client) in live.clients.iter_mut().enumerate() {
                let mut gen = OpGen::new(w, customers, cfg.seed, c, 1);
                for _ in 0..warm {
                    let op = gen.next_op();
                    let rs = client
                        .execute(&op.text().expect("point op"), &WireOptions::default())
                        .expect("warm-up lookup runs");
                    check_wire(&op, c == 1, &rs.items, &live.world.expected)
                        .expect("warm-up lookup is correct");
                }
            }
        }
        Workload::ProfileRw => {
            let user = principal(w, 0);
            for cid in 0..customers {
                match read_profile(&live.world, &user, cid) {
                    Ok(Answer::Items(items)) => {
                        check_read(cid, &items).expect("warm-up read is correct")
                    }
                    _ => panic!("warm-up read {cid} failed"),
                }
            }
        }
    }
    live
}

/// A materialized `getProfileByID` call.
fn read_profile(world: &World, user: &Principal, cid: usize) -> Result<Answer, String> {
    let resp = world.server.execute(
        QueryRequest::call(flat_profile())
            .args(vec![vec![Item::str(&cid_of(cid))]])
            .principal(user.clone()),
    );
    Ok(Answer::Items(resp.map_err(|e| e.to_string())?.into_items()))
}

/// One `PROFILE` with the requested CID.
fn check_read(cid: usize, items: &[Item]) -> Result<(), String> {
    let text = serialize_sequence(items);
    if items.len() != 1 || world::tag_values(&text, "CID") != [cid_of(cid)] {
        return Err(format!("read {cid}: {text}"));
    }
    Ok(())
}

/// Phase-boundary counters of the world serving the ops. Reading
/// `RelationalServer::stats()` clones its whole statement log, so it
/// happens only here, never per op.
#[derive(Clone, Copy)]
struct Snap {
    plan: (u64, u64),
    rt: StatsSnapshot,
    roundtrips: u64,
    rows: u64,
    wait_ns: u64,
    ws_calls: u64,
    admission_wait_ns: u64,
    allocs: (u64, u64),
}

fn snap(world: &World) -> Snap {
    let (s1, s2) = (world.db1.stats(), world.db2.stats());
    Snap {
        plan: world.server.plan_cache_stats(),
        rt: world.server.stats(),
        roundtrips: s1.roundtrips + s2.roundtrips,
        rows: s1.rows_returned + s2.rows_returned,
        wait_ns: s1.latency_ns + s2.latency_ns,
        ws_calls: world.rating.call_count(),
        admission_wait_ns: world.server.governor_stats().admission_wait_ns,
        allocs: measure::alloc_counts(),
    }
}

/// Counter differences over a phase.
struct Delta {
    a: Snap,
    b: Snap,
}

impl Delta {
    fn rt(&self, f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        f(&self.b.rt).saturating_sub(f(&self.a.rt)) as f64
    }

    fn plan_hits(&self) -> f64 {
        (self.b.plan.0 - self.a.plan.0) as f64
    }

    fn plan_misses(&self) -> f64 {
        (self.b.plan.1 - self.a.plan.1) as f64
    }
}

/// Sums over a thread's ops of the replayed layer timings.
#[derive(Default, Clone)]
struct Layers {
    wire_ops: u64,
    wire_ms: f64,
    frontdoor_ms: f64,
    parse_ms: f64,
    compile_ms: f64,
    regions: u64,
    core_ms: f64,
    core_self_ms: f64,
    runtime_ms: f64,
    peak_memory: u64,
    security_ms: f64,
    redactions: u64,
    serialize_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    frames: u64,
    bytes: u64,
    select_ms: f64,
    // the write workload
    reads: u64,
    read_ms: f64,
    writes: u64,
    read_object_ms: f64,
    submit_ms: f64,
    dml: u64,
    rows_affected: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.wire_ops += o.wire_ops;
        self.wire_ms += o.wire_ms;
        self.frontdoor_ms += o.frontdoor_ms;
        self.parse_ms += o.parse_ms;
        self.compile_ms += o.compile_ms;
        self.regions += o.regions;
        self.core_ms += o.core_ms;
        self.core_self_ms += o.core_self_ms;
        self.runtime_ms += o.runtime_ms;
        self.peak_memory = self.peak_memory.max(o.peak_memory);
        self.security_ms += o.security_ms;
        self.redactions += o.redactions;
        self.serialize_ms += o.serialize_ms;
        self.encode_ms += o.encode_ms;
        self.decode_ms += o.decode_ms;
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.select_ms += o.select_ms;
        self.reads += o.reads;
        self.read_ms += o.read_ms;
        self.writes += o.writes;
        self.read_object_ms += o.read_object_ms;
        self.submit_ms += o.submit_ms;
        self.dml += o.dml;
        self.rows_affected += o.rows_affected;
    }
}

/// One timed op.
#[derive(Clone, Copy)]
struct Sample {
    kind: &'static str,
    write: bool,
    ms: f64,
    ok: bool,
    /// Completion time, seconds into the timed phase.
    end_s: f64,
}

/// The timed phase is cut into this many equal slices; throughput, CPU
/// per op and each percentile are the median of their per-slice values,
/// so a burst of host noise in one slice does not move them.
const SLICES: usize = 5;

/// Median over `k` equal time slices of the `p` percentile of `ms`,
/// for the largest `k <= SLICES` that leaves at least ten samples beyond
/// the percentile in every slice (`k = 1`: the whole run). Returns the
/// value and `k`.
fn sliced_percentile(samples: &[Sample], wall_s: f64, p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    for k in (1..=SLICES).rev() {
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); k];
        for s in samples {
            let i = ((s.end_s / wall_s * k as f64) as usize).min(k - 1);
            slices[i].push(s.ms);
        }
        let mut values = Vec::with_capacity(k);
        for v in &mut slices {
            v.sort_by(f64::total_cmp);
            match measure::percentile(v, p) {
                (x, beyond) if beyond >= 10 || k == 1 => values.push(x),
                _ => break,
            }
        }
        if values.len() == k {
            return Some((measure::median(&values), k));
        }
    }
    unreachable!("k = 1 always succeeds")
}

/// One client thread's results.
#[derive(Default)]
struct ThreadOut {
    samples: Vec<Sample>,
    errors: Vec<String>,
    items: u64,
    layers: Layers,
    spans: Vec<Span>,
    /// Last LAST_NAME each written key was given, with its write order.
    written: HashMap<usize, String>,
}

/// What a client needs to run ops: its connection, or the in-process
/// server.
struct ClientCtx<'a> {
    w: Workload,
    c: usize,
    world: &'a World,
    client: Option<&'a mut Client>,
    handles: &'a HashMap<Report, u64>,
}

impl ClientCtx<'_> {
    /// Make one op's call: the only part of a read op that is timed.
    fn call(&mut self, op: &Op) -> Result<Answer, String> {
        let w = self.w;
        match op {
            Op::Report(r) => {
                let client = self.client.as_mut().expect("wire client");
                let rs = client.execute_prepared(self.handles[r], &wire_options(w));
                Ok(Answer::Wire(rs.map_err(|e| e.to_string())?.items))
            }
            Op::Profile { .. } | Op::Orders { .. } => {
                let client = self.client.as_mut().expect("wire client");
                let rs = client.execute(&op.text().expect("point op"), &wire_options(w));
                Ok(Answer::Wire(rs.map_err(|e| e.to_string())?.items))
            }
            Op::Read { cid } => read_profile(self.world, &principal(w, self.c), *cid),
            Op::Write { .. } => unreachable!("writes run through write_profile"),
        }
    }

    /// Check an op's answer.
    fn check(&self, op: &Op, answer: &Answer) -> Result<(), String> {
        match (op, answer) {
            (Op::Read { cid }, Answer::Items(items)) => check_read(*cid, items),
            (_, Answer::Wire(items)) => {
                let admin = self.w == Workload::PointWire && self.c == 1;
                check_wire(op, admin, items, &self.world.expected)
            }
            _ => Ok(()),
        }
    }
}

/// What an op returned.
enum Answer {
    Wire(Vec<WireItem>),
    Items(Sequence),
    Written,
}

impl Answer {
    fn len(&self) -> usize {
        match self {
            Answer::Wire(v) => v.len(),
            Answer::Items(v) => v.len(),
            Answer::Written => 0,
        }
    }
}

/// `read_object` → `set("LAST_NAME")` → `submit`, each a span.
#[allow(clippy::too_many_arguments)]
fn write_profile(
    world: &World,
    user: &Principal,
    cid: usize,
    last_name: &str,
    tr: &mut Tracer,
    op_id: u64,
    parent: u32,
    layers: &mut Layers,
) -> Result<(), String> {
    let (sdo, read_ms) = tr.span(op_id, parent, "updates.read_object", || {
        world.server.read_object(
            user,
            &flat_profile(),
            vec![vec![Item::str(&cid_of(cid))]],
            &CallCriteria::default(),
        )
    });
    let mut sdo = sdo
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("write {cid}: no object"))?;
    sdo.set(
        "LAST_NAME",
        Some(aldsp::xdm::value::AtomicValue::str(last_name)),
    )?;
    let (report, submit_ms) = tr.span(op_id, parent, "updates.submit", || {
        world.server.submit(
            user,
            &flat_profile(),
            &sdo,
            ConcurrencyPolicy::UpdatedValues,
        )
    });
    let report = report.map_err(|e| e.to_string())?;
    if report.rows_affected != 1 {
        return Err(format!(
            "write {cid}: {} rows affected",
            report.rows_affected
        ));
    }
    layers.writes += 1;
    layers.read_object_ms += read_ms;
    layers.submit_ms += submit_ms;
    layers.dml += report.statements.len() as u64;
    layers.rows_affected += report.rows_affected as u64;
    Ok(())
}

/// Replay a wire op layer by layer on the twin world: parse, compile,
/// SQL regions, the in-process execute of the same request, the runtime
/// on the compiled plan, the security filter, serialization and the
/// wire frames. `Err` when the in-process answer differs from the wire
/// answer.
#[allow(clippy::too_many_arguments)]
fn replay(
    twin: &World,
    w: Workload,
    c: usize,
    op: &Op,
    handles: &HashMap<Report, u64>,
    wire_items: &[WireItem],
    wire_ms: f64,
    first_of_kind: bool,
    tr: &mut Tracer,
    op_id: u64,
    parent: u32,
    layers: &mut Layers,
) -> Result<(), String> {
    let src = match op {
        Op::Report(r) => r.source(),
        _ => op.text().expect("point op"),
    };
    let user = principal(w, c);
    let (parsed, parse_ms) = tr.span(op_id, parent, "parser.parse_module", || {
        aldsp::parser::parse_module_strict(&src).is_ok()
    });
    let (plan, compile_ms) = tr.span(op_id, parent, "compiler.compile_query", || {
        twin.server.compiler().compile_query(&src)
    });
    let plan = plan.map_err(|d| format!("replay compile: {d:?}"))?;
    if !parsed {
        return Err("replay parse failed".into());
    }
    let regions = collect_sql_regions(&plan.plan);
    let (_, select_ms) = tr.span(op_id, parent, "relational.execute_select", || {
        for r in regions.iter().filter(|r| r.ppk.is_none()) {
            let db = if r.connection == twin.db1.name() {
                &twin.db1
            } else {
                &twin.db2
            };
            // regions that need runtime parameters cannot run alone
            let _ = db.execute_select(&r.select, &[]);
        }
    });
    let mut req = QueryRequest::new(&src).principal(user.clone());
    if let Some(e) = exec_options(w) {
        req = req.execution(e);
    }
    let misses_before = twin.server.plan_cache_stats().1;
    let (resp, core_ms) = tr.span(op_id, parent, "core.execute", || twin.server.execute(req));
    let missed = twin.server.plan_cache_stats().1 > misses_before;
    // keep only the answer's text: holding the items would make the
    // replays below allocate fresh memory that `execute` reuses
    let in_process: Vec<String> = resp
        .map_err(|e| e.to_string())?
        .items()
        .iter()
        .map(|i| serialize_sequence(std::slice::from_ref(i)))
        .collect();
    let tuning = ExecTuning {
        workers: exec_options(w).map_or(1, |e| e.workers),
        morsel_size: 1024,
    };
    // no budget, as on the server's ungoverned path
    let (raw, runtime_ms) = tr.span(op_id, parent, "runtime.execute_tuned", || {
        twin.server
            .runtime()
            .execute_tuned(&plan, &[], TraceLevel::Off, None, tuning)
    });
    let raw = raw.map_err(|e| e.to_string())?;
    if first_of_kind {
        // peak memory needs a budget to charge against: measured once
        // per op kind, untimed
        let budget = Some(Arc::new(QueryBudget::unlimited()));
        let peak = twin
            .server
            .runtime()
            .execute_tuned(&plan, &[], TraceLevel::Off, budget, tuning)
            .map_or(0, |e| e.per_query_stats.peak_memory_bytes);
        layers.peak_memory = layers.peak_memory.max(peak);
    }
    let audit = AuditLog::new();
    audit.set_enabled(true);
    let (filtered, security_ms) = tr.span(op_id, parent, "security.filter_result", || {
        twin.policy.filter_result(&user, raw.items, &audit)
    });
    let (texts, serialize_ms) = tr.span(op_id, parent, "xdm.serialize", || {
        filtered
            .iter()
            .map(|i| {
                (
                    matches!(i, Item::Atomic(_)),
                    serialize_sequence(std::slice::from_ref(i)),
                )
            })
            .collect::<Vec<_>>()
    });
    let wire_texts = wire_items.iter().map(|i| &i.text);
    if !texts.iter().map(|(_, t)| t).eq(wire_texts.clone()) || !in_process.iter().eq(wire_texts) {
        return Err(format!(
            "{op:?}: in-process answer differs from the wire answer"
        ));
    }
    let request = request_msg(w, op, handles);
    let (buf, encode_ms) = tr.span(op_id, parent, "protocol.encode", || {
        encode_frames(&request, texts)
    });
    let (frames, decode_ms) = tr.span(op_id, parent, "protocol.decode", || {
        let mut cur = std::io::Cursor::new(&buf[..]);
        let mut frames = u64::from(matches!(ClientMsg::read(&mut cur), Ok(Some(_))));
        while let Ok(Some(_)) = ServerMsg::read(&mut cur) {
            frames += 1;
        }
        frames
    });
    let compile_paid = if missed { compile_ms } else { 0.0 };
    let l = layers;
    l.wire_ops += 1;
    l.wire_ms += wire_ms;
    l.frontdoor_ms += wire_ms - core_ms;
    l.parse_ms += parse_ms;
    l.compile_ms += compile_ms;
    l.regions += regions.len() as u64;
    l.core_ms += core_ms;
    l.core_self_ms += core_ms - compile_paid - runtime_ms - security_ms;
    l.runtime_ms += runtime_ms;
    l.security_ms += security_ms;
    l.redactions += audit.entries().len() as u64;
    l.serialize_ms += serialize_ms;
    l.encode_ms += encode_ms;
    l.decode_ms += decode_ms;
    l.frames += frames;
    l.bytes += buf.len() as u64;
    l.select_ms += select_ms;
    Ok(())
}

/// What every client thread of a closed-loop phase shares.
struct Phase<'a> {
    cfg: &'a Config,
    /// The op stream the clients draw from.
    stream: u64,
    /// Record spans (and replay on the twin, if there is one).
    trace: bool,
    world: &'a World,
    handles: &'a HashMap<Report, u64>,
    /// The twin world of a traced wire run, and the lock that serializes
    /// replays on it.
    twin: Option<&'a World>,
    twin_lock: &'a Mutex<()>,
    /// Ops completed by all clients.
    done: AtomicU64,
    rss_at: Mutex<Option<f64>>,
    customers: usize,
    t0: Instant,
    stop: Instant,
}

impl<'a> Phase<'a> {
    /// An untraced phase on `stream` that starts now and runs `seconds`.
    fn new(
        cfg: &'a Config,
        world: &'a World,
        handles: &'a HashMap<Report, u64>,
        twin_lock: &'a Mutex<()>,
        stream: u64,
        seconds: f64,
    ) -> Self {
        let t0 = Instant::now();
        Phase {
            cfg,
            stream,
            trace: false,
            world,
            handles,
            twin: None,
            twin_lock,
            done: AtomicU64::new(0),
            rss_at: Mutex::new(None),
            customers: world.expected.ssn.len(),
            t0,
            stop: t0 + Duration::from_secs_f64(seconds),
        }
    }
}

/// One closed-loop thread driving its clients in turn, one op at a
/// time: generate, call, time, check; in a traced wire run, replay each
/// op on the twin.
fn client_loop(p: &Phase, clients: Vec<(usize, Option<&mut Client>)>) -> ThreadOut {
    let w = p.cfg.workload;
    let mut lanes: Vec<_> = clients
        .into_iter()
        .map(|(c, client)| {
            let ctx = ClientCtx {
                w,
                c,
                world: p.world,
                client,
                handles: p.handles,
            };
            (ctx, OpGen::new(w, p.customers, p.cfg.seed, c, p.stream), 0u64)
        })
        .collect();
    let mut out = ThreadOut::default();
    let mut tr = Tracer::new(p.t0, p.trace);
    let mut kinds_seen = std::collections::HashSet::new();
    let mut turn = 0;
    let lanes_n = lanes.len();
    while Instant::now() < p.stop {
        let (ctx, gen, n) = &mut lanes[turn % lanes_n];
        turn += 1;
        let c = ctx.c;
        let op = gen.next_op();
        let op_id = (c as u64) << 40 | *n;
        *n += 1;
        let root = tr.open(op_id, 0, w.name());
        let root_id = tr.id(root);
        let t = Instant::now();
        let answer = match &op {
            Op::Write { cid, last_name } => write_profile(
                p.world,
                &principal(w, c),
                *cid,
                last_name,
                &mut tr,
                op_id,
                root_id,
                &mut out.layers,
            )
            .map(|()| Answer::Written),
            _ => {
                let name = if w.is_wire() {
                    "client.execute"
                } else {
                    "core.execute"
                };
                let slot = tr.open(op_id, root_id, name);
                let answer = ctx.call(&op);
                tr.close(slot);
                answer
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let end_s = p.t0.elapsed().as_secs_f64();
        let checked = answer.and_then(|a| ctx.check(&op, &a).map(|()| a));
        let ok = match checked {
            Err(e) => {
                out.errors.push(e);
                false
            }
            Ok(answer) => {
                out.items += answer.len() as u64;
                match (&op, &answer, p.twin) {
                    (Op::Write { cid, last_name }, _, _) => {
                        out.written.insert(*cid, last_name.clone());
                        true
                    }
                    (Op::Read { .. }, _, _) => {
                        out.layers.reads += 1;
                        out.layers.read_ms += ms;
                        true
                    }
                    (_, Answer::Wire(items), Some(twin)) => {
                        let _serial = p.twin_lock.lock().expect("twin lock");
                        let first = kinds_seen.insert(op.kind());
                        let replayed = measure::replaying(|| {
                            let slot = tr.open(op_id, root_id, "replay");
                            let id = tr.id(slot);
                            let r = replay(
                                twin,
                                w,
                                c,
                                &op,
                                p.handles,
                                items,
                                ms,
                                first,
                                &mut tr,
                                op_id,
                                id,
                                &mut out.layers,
                            );
                            tr.close(slot);
                            r
                        });
                        replayed.map_err(|e| out.errors.push(e)).is_ok()
                    }
                    _ => true,
                }
            }
        };
        tr.close(root);
        out.samples.push(Sample {
            kind: op.kind(),
            write: op.is_write(),
            ms,
            ok,
            end_s,
        });
        if p.done.fetch_add(1, Ordering::SeqCst) + 1 == p.cfg.rss_after_ops() {
            *p.rss_at.lock().expect("rss lock") = Some(measure::peak_rss_mb());
        }
    }
    out.spans = tr.spans;
    out
}

/// The op stream of the untimed warm-up phase.
const WARM_STREAM: u64 = 3;

/// Run `p` on `w.threads()` closed-loop threads until `p.stop`, taking
/// (seconds, process CPU ms, ops done) at the start and at each of
/// `slices` equal boundaries.
fn drive(
    p: &Phase,
    clients: &mut [Client],
    slices: usize,
) -> (Vec<ThreadOut>, Vec<(f64, f64, u64)>) {
    let w = p.cfg.workload;
    let mut wire_clients: Vec<Option<&mut Client>> = clients.iter_mut().map(Some).collect();
    wire_clients.resize_with(w.clients(), || None);
    // client c runs on thread c mod threads
    let mut per_thread: Vec<Vec<(usize, Option<&mut Client>)>> =
        (0..w.threads()).map(|_| Vec::new()).collect();
    for (c, client) in wire_clients.into_iter().enumerate() {
        per_thread[c % w.threads()].push((c, client));
    }
    let mut ticks = vec![(0.0, measure::cpu_ms(), 0u64)];
    let mut outs = Vec::new();
    std::thread::scope(|s| {
        let threads: Vec<_> = per_thread
            .into_iter()
            .map(|clients| s.spawn(move || client_loop(p, clients)))
            .collect();
        let slice = (p.stop - p.t0) / slices as u32;
        for i in 1..=slices as u32 {
            if let Some(wait) = (p.t0 + slice * i).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let at = p.t0.elapsed().as_secs_f64();
            ticks.push((at, measure::cpu_ms(), p.done.load(Ordering::SeqCst)));
        }
        for t in threads {
            outs.push(t.join().expect("client thread"));
        }
    });
    (outs, ticks)
}

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// End-to-end metrics (untraced run); `None` where the workload has
    /// no such ops.
    pub e2e: Vec<(&'static str, Option<f64>, &'static str)>,
    pub layers: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    pub op_p50_ms: f64,
}

/// Run one workload end to end.
pub fn run(cfg: &Config) -> Outcome {
    let w = cfg.workload;
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..cfg.setup_reps() {
        // the previous set-up is torn down before the next is timed
        drop(live.take());
        let t0 = Instant::now();
        let l = setup(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let twin = (cfg.trace && w.is_wire()).then(|| world::build(w, cfg.smoke, false));
    let twin_lock = Mutex::new(());

    // warm-up: the same closed loop on its own op stream, untimed, so
    // the plan cache has reached its steady churn when timing starts
    let (world, handles) = (&live.world, &live.handles);
    let warm = Phase::new(cfg, world, handles, &twin_lock, WARM_STREAM, cfg.warm_seconds());
    let (warm_outs, _) = drive(&warm, &mut live.clients, 1);

    measure::set_counting(cfg.trace);
    let a = snap(&live.world);
    let timed = Phase {
        trace: cfg.trace,
        twin: twin.as_ref(),
        ..Phase::new(cfg, world, handles, &twin_lock, 0, cfg.seconds)
    };
    let t0 = timed.t0;
    let (outs, ticks) = drive(&timed, &mut live.clients, SLICES);
    let wall_s = t0.elapsed().as_secs_f64();
    let b = snap(&live.world);
    let peak_rss = timed
        .rss_at
        .into_inner()
        .expect("rss lock")
        .unwrap_or_else(measure::peak_rss_mb);
    let delta = Delta { a, b };

    // the count pass: one fixed block per client, run in sequence, so
    // the per-op counts repeat for a seed wherever the engine is
    // deterministic
    let counts = count_pass(cfg, &mut live);
    measure::set_counting(false);

    // merge the clients' results
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut layers = Layers::default();
    let mut spans = Vec::new();
    // thread t's writes: warm-up first, then timed, then the count pass
    let mut written: Vec<HashMap<usize, String>> = Vec::new();
    for o in warm_outs {
        errors.extend(o.errors);
        written.push(o.written);
    }
    let mut items = 0u64;
    for (t, o) in outs.into_iter().enumerate() {
        samples.extend(o.samples);
        errors.extend(o.errors);
        layers.add(&o.layers);
        spans.extend(o.spans);
        written[t].extend(o.written);
        items += o.items;
    }
    for (c, m) in counts.written.iter().enumerate() {
        if let Some(wr) = written.get_mut(c) {
            wr.extend(m.iter().map(|(k, v)| (*k, v.clone())));
        }
    }
    errors.extend(counts.errors.iter().cloned());
    if w == Workload::ProfileRw {
        errors.extend(check_profile_rw(cfg, &live.world, &written));
    }
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let correct = errors.is_empty() && failed == 0;

    let class = |write: Option<bool>| -> Vec<Sample> {
        samples
            .iter()
            .filter(|s| write.is_none_or(|wr| s.write == wr))
            .copied()
            .collect()
    };
    let (all, reads, writes) = (class(None), class(Some(false)), class(Some(true)));
    let pct = |v: &[Sample], p: f64| sliced_percentile(v, wall_s, p).map(|(x, _)| x);
    let ops = attempted.max(1) as f64;
    // per-slice throughput and CPU per op, from the boundary ticks
    let per_slice = |f: &dyn Fn(f64, f64, f64) -> f64| -> f64 {
        let v: Vec<f64> = ticks
            .windows(2)
            .filter(|t| t[1].2 > t[0].2)
            .map(|t| f(t[1].0 - t[0].0, t[1].1 - t[0].1, (t[1].2 - t[0].2) as f64))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            measure::median(&v)
        }
    };
    let ops_per_s = per_slice(&|dt, _, n| n / dt);
    let cpu_ms_per_op = per_slice(&|_, cpu, n| cpu / n);
    let rw = w == Workload::ProfileRw;
    let e2e = vec![
        ("setup_s", Some(measure::median(&setup_s)), "s"),
        ("ops_per_s", Some(ops_per_s), "1/s"),
        ("op_p50_ms", pct(&all, 0.5), "ms"),
        ("op_p90_ms", pct(&all, 0.9), "ms"),
        ("op_p99_ms", pct(&all, 0.99), "ms"),
        ("read_p50_ms", pct(&reads, 0.5).filter(|_| rw), "ms"),
        ("read_p99_ms", pct(&reads, 0.99).filter(|_| rw), "ms"),
        ("write_p50_ms", pct(&writes, 0.5).filter(|_| rw), "ms"),
        ("write_p90_ms", pct(&writes, 0.9).filter(|_| rw), "ms"),
        ("error_rate", Some(failed as f64 / ops), "ratio"),
        ("cpu_ms_per_op", Some(cpu_ms_per_op), "ms"),
        ("peak_rss_mb", Some(peak_rss), "MiB"),
    ];

    let mut lines = Vec::new();
    lines.push(format!(
        "workload {} seed {} nproc {} rev {} seconds {} trace {} clients {} threads {}",
        w.name(),
        cfg.seed,
        measure::nproc(),
        git_rev(),
        cfg.seconds,
        u8::from(cfg.trace),
        w.clients(),
        w.threads()
    ));
    lines.push(format!(
        "samples: {} ops ({} reads, {} writes); setup runs {:?}",
        all.len(),
        reads.len(),
        writes.len(),
        setup_s
    ));
    for (name, v, unit) in &e2e {
        let (p, list) = match *name {
            "op_p50_ms" => (0.5, &all),
            "op_p90_ms" => (0.9, &all),
            "op_p99_ms" => (0.99, &all),
            "read_p50_ms" => (0.5, &reads),
            "read_p99_ms" => (0.99, &reads),
            "write_p50_ms" => (0.5, &writes),
            "write_p90_ms" => (0.9, &writes),
            _ => (0.0, &all),
        };
        let note = if p > 0.0 {
            let mut v: Vec<f64> = list.iter().map(|s| s.ms).collect();
            v.sort_by(f64::total_cmp);
            let beyond = measure::percentile(&v, p).1;
            let k = sliced_percentile(list, wall_s, p).map_or(0, |(_, k)| k);
            let thin = if beyond < 10 {
                "; fewer than 10 beyond, not a reportable percentile"
            } else {
                ""
            };
            format!(
                " (n={}, {beyond} beyond, median of {k} slices{thin})",
                list.len()
            )
        } else {
            String::new()
        };
        match v {
            Some(v) => lines.push(format!("e2e {name} = {v:.4} {unit}{note}")),
            None => lines.push(format!("e2e {name} = n/a{note}")),
        }
    }
    let slice_rates: Vec<String> = ticks
        .windows(2)
        .map(|t| format!("{:.1}", (t[1].2 - t[0].2) as f64 / (t[1].0 - t[0].0)))
        .collect();
    lines.push(format!("ops/s per slice: {}", slice_rates.join(" ")));
    let mut kinds: Vec<&str> = samples.iter().map(|s| s.kind).collect();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        let mut v: Vec<f64> = samples.iter().filter(|s| s.kind == kind).map(|s| s.ms).collect();
        v.sort_by(f64::total_cmp);
        let at = |p| measure::percentile(&v, p).0;
        lines.push(format!(
            "op {kind}: n={} p50 {:.4} p90 {:.4} p99 {:.4} max {:.4} ms",
            v.len(),
            at(0.5),
            at(0.9),
            at(0.99),
            at(1.0)
        ));
    }
    lines.push(format!("counts {}", counts.line));
    for e in errors.iter().take(5) {
        lines.push(format!("ERROR {e}"));
    }

    let mut layer_metrics = Vec::new();
    if cfg.trace {
        layer_metrics = layer_metrics_of(cfg, &delta, &layers, attempted, items);
        for (name, ms, n) in measure::self_times(&spans) {
            lines.push(format!(
                "span {name}: {n} spans, self {:.4} ms/op",
                ms / ops
            ));
        }
        write_spans(cfg, &spans, &mut lines);
    }
    if let Some(mut l) = live.listener.take() {
        for c in live.clients.drain(..) {
            let _ = c.goodbye();
        }
        l.shutdown();
    }
    Outcome {
        attempted,
        failed,
        correct,
        op_p50_ms: pct(&all, 0.5).unwrap_or(0.0),
        e2e,
        layers: layer_metrics,
        lines,
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics_of(cfg: &Config, d: &Delta, l: &Layers, ops: u64, items: u64) -> Vec<Metric> {
    let ops = ops.max(1) as f64;
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let wire = l.wire_ops.max(1) as f64;
    let lookups = d.plan_hits() + d.plan_misses();
    let miss_share = per(d.plan_misses(), lookups);
    let writes = l.writes as f64;
    let workers = exec_options(cfg.workload).map_or(1, |e| e.workers) as f64;
    let allocs = (d.b.allocs.0 - d.a.allocs.0) as f64;
    let alloc_bytes = (d.b.allocs.1 - d.a.allocs.1) as f64;
    vec![
        ("server.frontdoor_ms", per(l.frontdoor_ms, wire), "ms"),
        (
            "protocol.frames_per_op",
            per(l.frames as f64, wire),
            "count",
        ),
        ("protocol.bytes_per_op", per(l.bytes as f64, wire), "bytes"),
        (
            "protocol.encode_us_per_op",
            per(l.encode_ms * 1e3, wire),
            "us",
        ),
        (
            "protocol.decode_us_per_op",
            per(l.decode_ms * 1e3, wire),
            "us",
        ),
        (
            "xdm.serialize_us_per_op",
            per(l.serialize_ms * 1e3, wire),
            "us",
        ),
        // parse and compile are paid only when the plan cache misses
        (
            "parser.parse_us",
            per(l.parse_ms * 1e3, wire) * miss_share,
            "us",
        ),
        (
            "compiler.compile_us",
            per(l.compile_ms * 1e3, wire) * miss_share,
            "us",
        ),
        (
            "compiler.sql_regions_per_plan",
            per(l.regions as f64, wire),
            "count",
        ),
        (
            "core.plan_cache_hit_ratio",
            per(d.plan_hits(), lookups),
            "ratio",
        ),
        (
            "core.execute_ms",
            if l.wire_ops > 0 {
                l.core_ms / wire
            } else {
                per(l.read_ms, l.reads as f64)
            },
            "ms",
        ),
        ("core.self_ms", per(l.core_self_ms, wire), "ms"),
        ("runtime.execute_ms", per(l.runtime_ms, wire), "ms"),
        (
            "runtime.vm_ops_per_op",
            d.rt(|s| s.vm_ops_executed) / ops,
            "count",
        ),
        (
            "runtime.vm_fallbacks_per_op",
            d.rt(|s| s.vm_fallback_subtrees) / ops,
            "count",
        ),
        (
            "runtime.ppk_blocks_per_op",
            d.rt(|s| s.ppk_blocks) / ops,
            "count",
        ),
        (
            "runtime.sql_statements_per_op",
            d.rt(|s| s.sql_statements) / ops,
            "count",
        ),
        (
            "runtime.hash_joins_per_op",
            d.rt(|s| s.hash_joins) / ops,
            "count",
        ),
        (
            "runtime.join_build_rows_per_op",
            d.rt(|s| s.join_build_rows) / ops,
            "count",
        ),
        (
            "runtime.sorted_groups_per_op",
            d.rt(|s| s.sorted_groups) / ops,
            "count",
        ),
        (
            "runtime.morsels_per_op",
            d.rt(|s| s.morsels_executed) / ops,
            "count",
        ),
        (
            "runtime.worker_busy_ratio",
            per(d.rt(|s| s.worker_busy_ns) / 1e6, workers * l.wire_ms),
            "ratio",
        ),
        (
            "runtime.peak_memory_kb",
            l.peak_memory as f64 / 1024.0,
            "KiB",
        ),
        (
            "relational.roundtrips_per_op",
            (d.b.roundtrips - d.a.roundtrips) as f64 / ops,
            "count",
        ),
        (
            "relational.rows_per_op",
            (d.b.rows - d.a.rows) as f64 / ops,
            "count",
        ),
        (
            "relational.rows_per_item",
            per((d.b.rows - d.a.rows) as f64, items as f64),
            "ratio",
        ),
        (
            "relational.wait_ms_per_op",
            (d.b.wait_ns - d.a.wait_ns) as f64 / 1e6 / ops,
            "ms",
        ),
        ("relational.select_ms", per(l.select_ms, wire), "ms"),
        (
            "adaptors.ws_calls_per_op",
            (d.b.ws_calls - d.a.ws_calls) as f64 / ops,
            "count",
        ),
        ("security.filter_ms", per(l.security_ms, wire), "ms"),
        (
            "security.redactions_per_op",
            per(l.redactions as f64, wire),
            "count",
        ),
        (
            "updates.read_object_ms",
            per(l.read_object_ms, writes),
            "ms",
        ),
        ("updates.submit_ms", per(l.submit_ms, writes), "ms"),
        (
            "updates.dml_statements_per_write",
            per(l.dml as f64, writes),
            "count",
        ),
        (
            "updates.rows_affected_per_write",
            per(l.rows_affected as f64, writes),
            "count",
        ),
        (
            "matview.hit_ratio",
            per(d.rt(|s| s.matview_hits), l.reads as f64 + writes),
            "ratio",
        ),
        (
            "matview.patches_per_write",
            per(d.rt(|s| s.matview_patches), writes),
            "count",
        ),
        (
            "matview.invalidations_per_write",
            per(d.rt(|s| s.matview_invalidations), writes),
            "count",
        ),
        (
            "matview.recomputes_per_kop",
            d.rt(|s| s.matview_recomputes) * 1e3 / ops,
            "count",
        ),
        (
            "workload.admission_wait_ms",
            (d.b.admission_wait_ns - d.a.admission_wait_ns) as f64 / 1e6 / ops,
            "ms",
        ),
        ("proc.allocs_per_op", allocs / ops, "count"),
        ("proc.alloc_kb_per_op", alloc_bytes / 1024.0 / ops, "KiB"),
    ]
}

/// The count pass's result.
struct Counts {
    line: String,
    errors: Vec<String>,
    written: Vec<HashMap<usize, String>>,
}

/// One fixed block of ops per client, in sequence, measured by counter
/// differences: host-independent per-op work.
fn count_pass(cfg: &Config, live: &mut Live) -> Counts {
    let w = cfg.workload;
    let customers = live.world.expected.ssn.len();
    let block = match w {
        Workload::ProfileRw => 20,
        _ => 10,
    };
    let a = snap(&live.world);
    let mut errors = Vec::new();
    let mut written = Vec::new();
    let (mut frames, mut bytes, mut ops) = (0u64, 0u64, 0u64);
    let mut tr = Tracer::new(Instant::now(), false);
    let mut layers = Layers::default();
    for c in 0..w.clients() {
        let mut mine = HashMap::new();
        let mut gen = OpGen::new(w, customers, cfg.seed, c, 2);
        for _ in 0..block {
            let op = gen.next_op();
            ops += 1;
            let result = match &op {
                Op::Write { cid, last_name } => {
                    let r = write_profile(
                        &live.world,
                        &principal(w, c),
                        *cid,
                        last_name,
                        &mut tr,
                        0,
                        0,
                        &mut layers,
                    );
                    if r.is_ok() {
                        mine.insert(*cid, last_name.clone());
                    }
                    r.map(|()| Answer::Written)
                }
                _ => {
                    let mut ctx = ClientCtx {
                        w,
                        c,
                        world: &live.world,
                        client: live.clients.get_mut(c),
                        handles: &live.handles,
                    };
                    ctx.call(&op).and_then(|a| ctx.check(&op, &a).map(|()| a))
                }
            };
            match result {
                Ok(Answer::Wire(items)) => {
                    // request + one frame per item + Done
                    frames += items.len() as u64 + 2;
                    let texts = items.iter().map(|i| (i.atomic, i.text.clone())).collect();
                    bytes += encode_frames(&request_msg(w, &op, &live.handles), texts).len() as u64;
                }
                Ok(_) => {}
                Err(e) => errors.push(format!("count pass: {e}")),
            }
        }
        written.push(mine);
    }
    let b = snap(&live.world);
    let d = Delta { a, b };
    let n = ops as f64;
    let mut line = format!(
        "nproc={} rev={} seed={} ops={} roundtrips_per_op={} rows_per_op={} vm_ops_per_op={} frames_per_op={} bytes_per_op={}",
        measure::nproc(),
        git_rev(),
        cfg.seed,
        ops,
        (b.roundtrips - a.roundtrips) as f64 / n,
        (b.rows - a.rows) as f64 / n,
        d.rt(|s| s.vm_ops_executed) / n,
        frames as f64 / n,
        bytes as f64 / n,
    );
    if cfg.trace {
        line.push_str(&format!(
            " allocs_per_op={} alloc_bytes_per_op={}",
            (b.allocs.0 - a.allocs.0) as f64 / n,
            (b.allocs.1 - a.allocs.1) as f64 / n
        ));
    }
    Counts {
        line,
        errors,
        written,
    }
}

/// The request frame of a wire op.
fn request_msg(w: Workload, op: &Op, handles: &HashMap<Report, u64>) -> ClientMsg {
    match op {
        Op::Report(r) => ClientMsg::ExecutePrepared {
            handle: handles[r],
            options: wire_options(w),
        },
        _ => ClientMsg::Execute {
            source: op.text().expect("point op"),
            options: wire_options(w),
        },
    }
}

/// An op's frames as they cross the wire: the request, one `Item` per
/// result item, then `Done`.
fn encode_frames(request: &ClientMsg, items: Vec<(bool, String)>) -> Vec<u8> {
    let mut buf = Vec::new();
    request.write(&mut buf).expect("writing to a Vec");
    let delivered = items.len() as u64;
    for (atomic, text) in items {
        ServerMsg::Item { atomic, text }
            .write(&mut buf)
            .expect("writing to a Vec");
    }
    ServerMsg::Done { delivered }
        .write(&mut buf)
        .expect("writing to a Vec");
    buf
}

/// After `profile_rw`: every written key holds its owner's last value in
/// db1, and for a sample of keys the materialized answer is
/// byte-identical to the same call on an uncached twin holding the same
/// rows.
fn check_profile_rw(
    cfg: &Config,
    world: &World,
    written: &[HashMap<usize, String>],
) -> Vec<String> {
    let mut errors = Vec::new();
    let last_names: HashMap<String, String> = world.db1.with_db(|d| {
        d.table("CUSTOMER")
            .expect("fixture table")
            .rows()
            .iter()
            .map(|r| (format!("{:?}", r[0]), format!("{:?}", r[1])))
            .collect()
    });
    let mut keys: Vec<usize> = Vec::new();
    for m in written {
        for (cid, name) in m {
            let key = format!("{:?}", aldsp::relational::SqlValue::str(&cid_of(*cid)));
            let want = format!("{:?}", aldsp::relational::SqlValue::str(name));
            if last_names.get(&key) != Some(&want) {
                errors.push(format!(
                    "customer {cid}: LAST_NAME is not the last submitted value"
                ));
            }
            keys.push(*cid);
        }
    }
    keys.sort_unstable();
    keys.truncate(40);
    let customers = world.expected.ssn.len();
    keys.extend((0..10).map(|i| (cfg.seed as usize + i * 97) % customers));
    let twin = world::build(Workload::ProfileRw, cfg.smoke, false);
    let rows = world.db1.with_db(|d| d.clone());
    twin.db1.with_db_mut(|d| *d = rows);
    let user = principal(Workload::ProfileRw, 0);
    for cid in keys {
        let call = |w: &World| {
            w.server
                .execute(
                    QueryRequest::call(flat_profile())
                        .args(vec![vec![Item::str(&cid_of(cid))]])
                        .principal(user.clone()),
                )
                .map(|r| serialize_sequence(r.items()))
                .map_err(|e| e.to_string())
        };
        let (m, t) = (call(world), call(&twin));
        if m.is_err() || m != t {
            errors.push(format!(
                "customer {cid}: materialized {m:?} != uncached {t:?}"
            ));
        }
    }
    errors
}

/// The git revision, when the benchmark runs in a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Write the traced run's spans, one JSON object per line, under
/// `.bench_spans/` in the working directory.
fn write_spans(cfg: &Config, spans: &[Span], lines: &mut Vec<String>) {
    use std::io::Write;
    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!("{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            writeln!(
                f,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    });
    match result {
        Ok(()) => lines.push(format!(
            "spans {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => lines.push(format!("spans not written: {e}")),
    }
}
