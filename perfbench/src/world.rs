//! The three workloads' worlds, their generated traffic and the answer
//! checks. Every world is the `aldsp_bench::fixtures` Figure 3 world
//! (CUSTOMER/ORDER on db1, CREDIT_CARD on db2, the rating web service,
//! the `int2date` library pair) at a workload-specific size; keys and
//! parameters come from the benchmark's seed, and the program sees only
//! the generated query texts and call arguments.

use aldsp::adaptors::SimulatedWebService;
use aldsp::relational::{LatencyModel, RelationalServer, SqlValue};
use aldsp::security::{DenialAction, ElementResource, SecurityPolicy};
use aldsp::xdm::value::AtomicValue;
use aldsp::xdm::QName;
use aldsp::{AldspServer, MatViewPolicy, ServerBuilder};
use aldsp_bench::fixtures::{build_world_tuned, WorldSize, PROLOG};
use aldsp_client::WireItem;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointWire,
    ReportWire,
    ProfileRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointWire,
        Workload::ReportWire,
        Workload::ProfileRw,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWire => "point_wire",
            Workload::ReportWire => "report_wire",
            Workload::ProfileRw => "profile_rw",
        }
    }

    /// Closed-loop clients (connections or in-process threads).
    pub fn clients(self) -> usize {
        match self {
            Workload::PointWire | Workload::ProfileRw => 2,
            Workload::ReportWire => 1,
        }
    }

    /// Threads that drive the clients. `point_wire`'s two connections
    /// take turns on one thread, so at most one op is in flight and the
    /// server's compile work does not compete with itself for the cores.
    pub fn threads(self) -> usize {
        match self {
            Workload::PointWire | Workload::ReportWire => 1,
            Workload::ProfileRw => 2,
        }
    }

    /// Whether a single-workload run pins the whole process, the
    /// in-process server included, to one CPU. `point_wire` has one op
    /// in flight, and every op hands off between the client, session
    /// and source-latency threads several times; on one CPU those
    /// hand-offs do not wait for a second (virtual) CPU to wake.
    pub fn pinned(self) -> bool {
        self == Workload::PointWire
    }

    pub fn is_wire(self) -> bool {
        self != Workload::ProfileRw
    }
}

/// World sizes: the full size, or the smoke size of the benchmark's own
/// test.
pub fn size(w: Workload, smoke: bool) -> WorldSize {
    let customers = match (w, smoke) {
        (Workload::PointWire, false) => 500,
        (Workload::ReportWire, false) => 10_000,
        (Workload::ProfileRw, false) => 1_000,
        (_, true) => 200,
    };
    let (orders, cards) = match w {
        Workload::ProfileRw => (0, 0),
        _ => (4, 2),
    };
    WorldSize {
        customers,
        orders_per_customer: orders,
        cards_per_customer: cards,
    }
}

/// The Figure 3 profile service with the customer's SSN, plus the
/// view-reusing `getProfileByID` (§4.2).
const FIG3_MODULE: &str = r#"
    declare namespace tns = "urn:profileDS";
    declare function tns:getProfile() as element(PROFILE)* {
      for $CUSTOMER in c:CUSTOMER()
      return
        <PROFILE>
          <CID>{fn:data($CUSTOMER/CID)}</CID>
          <LAST_NAME>{fn:data($CUSTOMER/LAST_NAME)}</LAST_NAME>
          <SSN>{fn:data($CUSTOMER/SSN)}</SSN>
          <ORDERS>{
            for $o in c:ORDER() where $o/CID eq $CUSTOMER/CID return $o/OID
          }</ORDERS>
          <CREDIT_CARDS>{
            for $k in cc:CREDIT_CARD() where $k/CID eq $CUSTOMER/CID return $k/CCN
          }</CREDIT_CARDS>
          <RATING>{
            fn:data(ws:getRating(
              <r:getRating>
                <r:lName>{fn:data($CUSTOMER/LAST_NAME)}</r:lName>
                <r:ssn>{fn:data($CUSTOMER/SSN)}</r:ssn>
              </r:getRating>)/r:getRatingResult)
          }</RATING>
        </PROFILE>
    };
    declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
      tns:getProfile()[CID eq $id]
    };
"#;

/// The flat, updatable profile service of the write workload.
const FLAT_MODULE: &str = r#"
    declare namespace p = "urn:profileDS";
    declare function p:getProfileByID($id as xs:string) as element(PROFILE)* {
      for $c in c:CUSTOMER()
      where $c/CID eq $id
      return
        <PROFILE>
          <CID>{fn:data($c/CID)}</CID>
          <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
          <SINCE>{lib:int2date($c/SINCE)}</SINCE>
        </PROFILE>
    };
"#;

/// The flat profile function of `profile_rw`.
pub fn flat_profile() -> QName {
    QName::new("urn:profileDS", "getProfileByID")
}

/// The four `report_wire` reports, in schedule weight order 30/30/20/20.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Report {
    Group,
    Top,
    Join,
    Listing,
}

impl Report {
    pub const ALL: [Report; 4] = [Report::Group, Report::Top, Report::Join, Report::Listing];

    pub fn source(self) -> String {
        let body = match self {
            Report::Group => {
                r#"for $o in c:ORDER()
                   where $o/AMOUNT ge 10
                   let $oid := $o/OID
                   group $oid as $ids by fn:substring($o/CID, 1, 6) as $k
                   return <G><K>{$k}</K><N>{fn:count($ids)}</N></G>"#
            }
            Report::Top => {
                r#"fn:subsequence(
                     for $c in c:CUSTOMER()
                     order by fn:substring($c/CID, 2) descending
                     return <T>{fn:data($c/CID)}</T>, 1, 100)"#
            }
            Report::Join => {
                r#"for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
                   where $c/CID eq $k/CID
                   return <J><CID>{fn:data($c/CID)}</CID><CCN>{fn:data($k/CCN)}</CCN></J>"#
            }
            Report::Listing => {
                r#"for $c in c:CUSTOMER()
                   return <CUST><CID>{fn:data($c/CID)}</CID><LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME><SSN>{fn:data($c/SSN)}</SSN></CUST>"#
            }
        };
        format!("{PROLOG}{body}")
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Ad-hoc Figure 3 `getProfileByID("C…")` over the wire.
    Profile { cid: usize },
    /// Ad-hoc "orders of customer X with AMOUNT ≥ N" over the wire.
    Orders { cid: usize, min: i64 },
    /// A prepared report over the wire.
    Report(Report),
    /// A materialized `getProfileByID($id)` call in process.
    Read { cid: usize },
    /// `read_object` → `set("LAST_NAME")` → `submit(UpdatedValues)`.
    Write { cid: usize, last_name: String },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }

    /// The op's kind, independent of its keys.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Profile { .. } => "profile",
            Op::Orders { .. } => "orders",
            Op::Report(Report::Group) => "group",
            Op::Report(Report::Top) => "top",
            Op::Report(Report::Join) => "join",
            Op::Report(Report::Listing) => "listing",
            Op::Read { .. } => "read",
            Op::Write { .. } => "write",
        }
    }

    /// The ad-hoc query text of a point lookup.
    pub fn text(&self) -> Option<String> {
        match self {
            Op::Profile { cid } => Some(format!(
                "{PROLOG}declare namespace tns = \"urn:profileDS\";\n\
                 tns:getProfileByID(\"{}\")",
                cid_of(*cid)
            )),
            Op::Orders { cid, min } => Some(format!(
                "{PROLOG}for $o in c:ORDER()\n\
                 where $o/CID eq \"{}\" and $o/AMOUNT ge {min}\n\
                 return $o",
                cid_of(*cid)
            )),
            _ => None,
        }
    }
}

/// The fixture's customer key format.
pub fn cid_of(i: usize) -> String {
    format!("C{i:06}")
}

/// Zipf(s = 1) ranks over `n` keys, mapped through a seeded permutation
/// so each seed has its own hot keys.
struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, rng: &mut StdRng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        shuffle(&mut perm, rng);
        Zipf { cdf, perm }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// A client's op stream. Ops come in shuffled blocks that hold the
/// workload's mix exactly, so every run has the same mix and only keys
/// and order depend on the seed.
pub struct OpGen {
    workload: Workload,
    client: usize,
    stream: u64,
    customers: usize,
    rng: StdRng,
    zipf: Zipf,
    block: Vec<Op>,
    writes: u64,
}

impl OpGen {
    /// Client `client`'s stream for `seed`; `stream` separates the
    /// warm-up, timed and count streams.
    pub fn new(
        workload: Workload,
        customers: usize,
        seed: u64,
        client: usize,
        stream: u64,
    ) -> OpGen {
        // the hot-key permutation is shared by all clients of a seed
        let zipf = Zipf::new(customers, &mut StdRng::seed_from_u64(seed ^ 0x5eed_2150));
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((client as u64) << 32 | stream);
        OpGen {
            workload,
            client,
            stream,
            customers,
            rng: StdRng::seed_from_u64(mixed),
            zipf,
            block: Vec::new(),
            writes: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop().expect("refilled block is non-empty")
    }

    fn refill(&mut self) {
        let mut block = Vec::new();
        match self.workload {
            Workload::PointWire => {
                for _ in 0..7 {
                    block.push(Op::Profile {
                        cid: self.zipf.sample(&mut self.rng),
                    });
                }
                for _ in 0..3 {
                    let cid = self.rng.gen_range(0..self.customers);
                    let min = self.rng.gen_range(1..501);
                    block.push(Op::Orders { cid, min });
                }
            }
            Workload::ReportWire => {
                for (r, n) in Report::ALL.into_iter().zip([3, 3, 2, 2]) {
                    block.extend(std::iter::repeat_n(Op::Report(r), n));
                }
            }
            Workload::ProfileRw => {
                for _ in 0..19 {
                    block.push(Op::Read {
                        cid: self.zipf.sample(&mut self.rng),
                    });
                }
                // client t owns the keys ≡ t (mod clients), so writers
                // never race each other on a row
                let clients = self.workload.clients();
                let k = self.zipf.sample(&mut self.rng);
                let cid = k - k % clients + self.client;
                let cid = if cid < self.customers {
                    cid
                } else {
                    self.client
                };
                self.writes += 1;
                // unique per client and stream: setting a value a key
                // already holds would be a no-op submit
                block.push(Op::Write {
                    cid,
                    last_name: format!("W{}s{}n{}", self.client, self.stream, self.writes),
                });
            }
        }
        shuffle(&mut block, &mut self.rng);
        self.block = block;
    }
}

/// The generated data the answer checks compare against, read from the
/// sources before any op runs. Report answers are derived once here, so
/// a check is a comparison and adds little CPU to the run.
#[derive(Default)]
pub struct Expected {
    pub ssn: Vec<String>,
    /// `(OID, AMOUNT)` of each customer's ORDER rows.
    pub orders: Vec<Vec<(i64, i64)>>,
    /// Customer index of each CREDIT_CARD row, by CCN.
    pub card_owner: HashMap<String, usize>,
    /// `(CID prefix, count)` of ORDER rows with AMOUNT ≥ 10, by prefix.
    pub groups: Vec<(String, i64)>,
    /// The 100 greatest CIDs, descending.
    pub top: Vec<String>,
}

fn text(v: &SqlValue) -> String {
    match v {
        SqlValue::Str(s) => s.to_string(),
        SqlValue::Null => String::new(),
        other => format!("{other:?}"),
    }
}

fn int(v: &SqlValue) -> i64 {
    match v {
        SqlValue::Int(i) => *i,
        SqlValue::Dec(d) => d.trunc(),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn cid_index(v: &SqlValue) -> usize {
    text(v)[1..].parse().expect("fixture CIDs are C + digits")
}

impl Expected {
    fn read(db1: &RelationalServer, db2: &RelationalServer) -> Expected {
        let mut e = Expected::default();
        let mut groups: std::collections::BTreeMap<String, i64> = Default::default();
        db1.with_db(|d| {
            for r in d.table("CUSTOMER").expect("fixture table").rows() {
                e.ssn.push(text(&r[4]));
            }
            e.orders = vec![Vec::new(); e.ssn.len()];
            for r in d.table("ORDER").expect("fixture table").rows() {
                let (cid, amount) = (cid_index(&r[1]), int(&r[2]));
                e.orders[cid].push((int(&r[0]), amount));
                if amount >= 10 {
                    *groups.entry(cid_of(cid)[..6].to_string()).or_default() += 1;
                }
            }
        });
        db2.with_db(|d| {
            for r in d.table("CREDIT_CARD").expect("fixture table").rows() {
                e.card_owner.insert(text(&r[0]), cid_index(&r[1]));
            }
        });
        e.groups = groups.into_iter().collect();
        // CIDs are zero-padded, so string order is key order
        e.top = (0..e.ssn.len()).rev().take(100).map(cid_of).collect();
        e
    }
}

/// A built world for one workload.
pub struct World {
    pub server: Arc<AldspServer>,
    pub db1: Arc<RelationalServer>,
    pub db2: Arc<RelationalServer>,
    pub rating: Arc<SimulatedWebService>,
    /// The installed element-level policy, kept for the security replay.
    pub policy: SecurityPolicy,
    pub expected: Expected,
}

/// SSN is visible to `admin` only; everyone else sees `###`.
fn ssn_policy() -> SecurityPolicy {
    let mut p = SecurityPolicy::new();
    p.add_resource(ElementResource {
        path: vec![QName::local("SSN")],
        allowed_roles: vec!["admin".into()],
        denial: DenialAction::Replace(AtomicValue::str("###")),
    });
    p
}

/// Build and deploy `w`'s world. `materialize` is off for the uncached
/// twin of `profile_rw`.
pub fn build(w: Workload, smoke: bool, materialize: bool) -> World {
    let policy = match w {
        Workload::ProfileRw => SecurityPolicy::new(),
        _ => ssn_policy(),
    };
    let installed = policy.clone();
    let tune = move |b: ServerBuilder| {
        let b = b.security(installed);
        if materialize && w == Workload::ProfileRw {
            b.materialize(flat_profile(), MatViewPolicy::PatchOrInvalidate)
        } else {
            b
        }
    };
    let fx = build_world_tuned(size(w, smoke), tune);
    let module = match w {
        Workload::PointWire => FIG3_MODULE,
        Workload::ReportWire => "",
        Workload::ProfileRw => FLAT_MODULE,
    };
    if !module.is_empty() {
        fx.server
            .deploy(&format!("{PROLOG}{module}"))
            .expect("benchmark module deploys");
    }
    if w == Workload::PointWire {
        fx.db1.set_latency(LatencyModel::lan(100));
        fx.db2.set_latency(LatencyModel::lan(100));
        fx.rating.set_latency(Duration::from_micros(100));
    }
    let expected = Expected::read(&fx.db1, &fx.db2);
    World {
        server: Arc::new(fx.server),
        db1: fx.db1,
        db2: fx.db2,
        rating: fx.rating,
        policy,
        expected,
    }
}

/// The texts between `<tag>` and `</tag>` in `s`, in order.
pub fn tag_values<'a>(s: &'a str, tag: &str) -> Vec<&'a str> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(i) = rest.find(&open) {
        rest = &rest[i + open.len()..];
        let Some(j) = rest.find(&close) else { break };
        out.push(&rest[..j]);
        rest = &rest[j + close.len()..];
    }
    out
}

/// Check one wire answer; `Err` names what is wrong.
pub fn check_wire(op: &Op, admin: bool, items: &[WireItem], e: &Expected) -> Result<(), String> {
    match op {
        Op::Profile { cid } => {
            let [item] = items else {
                return Err(format!("profile {cid}: {} items", items.len()));
            };
            let ssn = if admin { e.ssn[*cid].as_str() } else { "###" };
            if tag_values(&item.text, "CID") != [cid_of(*cid)]
                || tag_values(&item.text, "SSN") != [ssn]
            {
                return Err(format!("profile {cid}: wrong CID or SSN in {}", item.text));
            }
        }
        Op::Orders { cid, min } => {
            let mut got: Vec<i64> = items
                .iter()
                .flat_map(|i| tag_values(&i.text, "OID"))
                .map(|v| v.parse().unwrap_or(-1))
                .collect();
            got.sort_unstable();
            let mut want: Vec<i64> = e.orders[*cid]
                .iter()
                .filter(|(_, amount)| amount >= min)
                .map(|(oid, _)| *oid)
                .collect();
            want.sort_unstable();
            if got != want || got.len() != items.len() {
                return Err(format!(
                    "orders of {cid} with AMOUNT ≥ {min}: got {got:?}, want {want:?}"
                ));
            }
        }
        Op::Report(Report::Group) => {
            let got: Vec<(String, i64)> = items
                .iter()
                .map(|i| {
                    let k = tag_values(&i.text, "K").concat();
                    let n = tag_values(&i.text, "N").concat().parse().unwrap_or(-1);
                    (k, n)
                })
                .collect();
            let mut sorted = got.clone();
            sorted.sort();
            if sorted != e.groups {
                return Err(format!("group: got {got:?}, want {:?}", e.groups));
            }
        }
        Op::Report(Report::Top) => {
            let got: Vec<&str> = items
                .iter()
                .flat_map(|i| tag_values(&i.text, "T"))
                .collect();
            if got.len() != items.len() || !got.iter().eq(e.top.iter()) {
                return Err("top-100 differs from a sort of the generated keys".into());
            }
        }
        Op::Report(Report::Join) => {
            if items.len() != e.card_owner.len() {
                return Err(format!(
                    "join: {} items for {} cards",
                    items.len(),
                    e.card_owner.len()
                ));
            }
            let mut seen = std::collections::HashSet::with_capacity(items.len());
            for i in items {
                let ok = match (
                    tag_values(&i.text, "CCN").as_slice(),
                    tag_values(&i.text, "CID").as_slice(),
                ) {
                    ([ccn], [cid]) => {
                        e.card_owner.get(*ccn).map(|c| cid_of(*c)).as_deref() == Some(*cid)
                            && seen.insert(*ccn)
                    }
                    _ => false,
                };
                if !ok {
                    return Err(format!("join: unexpected or repeated item {}", i.text));
                }
            }
        }
        Op::Report(Report::Listing) => {
            if items.len() != e.ssn.len()
                || items.iter().any(|i| tag_values(&i.text, "SSN") != ["###"])
            {
                return Err(format!(
                    "listing: {} items for {} customers, or an SSN not redacted",
                    items.len(),
                    e.ssn.len()
                ));
            }
        }
        Op::Read { .. } | Op::Write { .. } => return Err("not a wire op".into()),
    }
    Ok(())
}
