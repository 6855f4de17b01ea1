//! Per-query observability: EXPLAIN output, operator traces, and their
//! consistency with each other and with the returned items.
//!
//! The world fixture makes every cardinality hand-computable: customer
//! `i` has `i % 3` orders and `i % 2` credit cards, so each trace
//! assertion below is checked against arithmetic, not against a prior
//! run of the engine.

mod common;

use aldsp::security::Principal;
use aldsp::{ExecutionOptions, JoinStrategy, QueryRequest, TraceKey, TraceLevel};
use common::{world, PROLOG};

fn demo() -> Principal {
    Principal::new("demo", &[])
}

/// The §4.2 PP-k block join (nested CREDIT_CARD lookup per customer):
/// the response carries an EXPLAIN naming the pushed SQL and a trace
/// whose per-node row counts are consistent with the returned items.
#[test]
fn ppk_block_join_trace_and_explain() {
    let w = world(10);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         return <P>{{ $c/CID,
           <CARDS>{{ for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN }}</CARDS> }}</P>"
    );
    let resp = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .trace(TraceLevel::Operators),
        )
        .expect("executes");
    assert_eq!(resp.items().len(), 10, "one <P> per customer");

    // ---- EXPLAIN names the PP-k spec and the SQL pushed to each source
    let explain = resp.plan_explain().expect("explain with trace");
    assert!(explain.contains("SqlScan connection=db1"), "{explain}");
    assert!(explain.contains("SqlScan connection=db2"), "{explain}");
    assert!(
        explain.contains("ppk: k=20 local-join=index-nested-loop"),
        "{explain}"
    );
    assert!(
        explain.contains("sql> FROM \"CREDIT_CARD\" t1"),
        "{explain}"
    );
    assert!(explain.contains("sql> FROM \"CUSTOMER\" t1"), "{explain}");
    assert!(
        explain.contains("mode=streaming (pre-clustered, constant memory)"),
        "{explain}"
    );

    // ---- the trace's row counts, against the fixture's arithmetic
    let trace = resp.trace().expect("trace requested");
    let node = |key: TraceKey| *trace.node(key).expect("traced node");

    // customer scan: one seed tuple in, ten customers out, one roundtrip
    let scan = node(TraceKey::clause(1, 0));
    assert_eq!((scan.rows_in, scan.rows_out), (1, 10));
    assert_eq!(scan.source_roundtrips, 1);

    // PP-k scan: ten customers fit one block of k=20 → ONE roundtrip to
    // db2; the outer join emits one tuple per customer (five with a
    // card, five null-padded)
    let ppk = node(TraceKey::clause(1, 1));
    assert_eq!((ppk.rows_in, ppk.rows_out), (10, 10));
    assert_eq!(ppk.source_roundtrips, 1, "blocked, not per-customer");
    assert_eq!(
        w.db2.stats().roundtrips,
        1,
        "trace agrees with the backend's own counter"
    );

    // the streaming regroup keeps one group per customer
    let regroup = node(TraceKey::clause(1, 3));
    assert_eq!((regroup.rows_in, regroup.rows_out), (10, 10));

    // root: rows_out equals the delivered item count, and matches what
    // the last clause fed into the return
    let root = node(TraceKey::node(1));
    assert_eq!(root.rows_out, resp.items().len() as u64);
    assert_eq!(root.rows_out, regroup.rows_out);
}

/// A flat correlated join takes the parameterized-scan path instead of
/// PP-k: one db2 roundtrip per outer row, and the join drops the
/// cardless customers.
#[test]
fn correlated_join_trace_row_counts() {
    let w = world(10);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
         where $k/CID eq $c/CID
         return <R>{{ $c/CID, $k/CCN }}</R>"
    );
    let resp = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .trace(TraceLevel::Operators),
        )
        .expect("executes");
    // customers 1,3,5,7,9 have one card each
    assert_eq!(resp.items().len(), 5);
    let trace = resp.trace().expect("trace requested");
    let node = |key: TraceKey| *trace.node(key).expect("traced node");

    let outer = node(TraceKey::clause(1, 0));
    assert_eq!((outer.rows_in, outer.rows_out), (1, 10));
    assert_eq!(outer.source_roundtrips, 1);

    let inner = node(TraceKey::clause(1, 1));
    assert_eq!((inner.rows_in, inner.rows_out), (10, 5));
    assert_eq!(inner.source_roundtrips, 10, "one probe per outer row");

    let root = node(TraceKey::node(1));
    assert_eq!(root.rows_out, 5);
}

/// Forcing the symmetric hash join on the flat cross-source join turns
/// ten-per-outer probe statements into ONE bulk fetch, and every
/// counter is hand-computable: world(40) has 20 credit cards (customers
/// 1,3,…,39), all of which land on the build side.
#[test]
fn forced_hash_join_counters_and_trace() {
    let w = world(40);
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
         where $k/CID eq $c/CID
         return <R>{{ $c/CID, $k/CCN }}</R>"
    );
    let resp = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .execution(ExecutionOptions::new().join_strategy(JoinStrategy::Hash))
                .trace(TraceLevel::Operators),
        )
        .expect("executes");
    assert_eq!(resp.items().len(), 20, "one <R> per card-holding customer");

    // ---- per-query counters: one hash join, 20 build rows, no reorder
    // (outer CUSTOMER=40 is the larger side, so the inner is built)
    let pq = resp.per_query_stats();
    assert_eq!(pq.hash_joins, 1);
    assert_eq!(pq.join_build_rows, 20, "every CREDIT_CARD row is buffered");
    assert_eq!(pq.join_reorders, 0);

    // ---- EXPLAIN carries the join planner's decision
    let explain = resp.plan_explain().expect("explain with trace");
    assert!(
        explain.contains("-- join: #1.1 strategy=hash est-build=20 est-probe=40 reordered=false"),
        "{explain}"
    );

    // ---- trace: the join clause fetched ONCE and buffered 20 rows
    let trace = resp.trace().expect("trace requested");
    let node = |key: TraceKey| *trace.node(key).expect("traced node");
    let outer = node(TraceKey::clause(1, 0));
    assert_eq!((outer.rows_in, outer.rows_out), (1, 40));
    assert_eq!(outer.source_roundtrips, 1);
    let join = node(TraceKey::clause(1, 1));
    assert_eq!((join.rows_in, join.rows_out), (40, 20));
    assert_eq!(join.source_roundtrips, 1, "bulk fetch, not per-outer");
    assert_eq!(join.join_build_rows, 20);

    // ---- the backends' own counters agree: one statement each
    assert_eq!(w.db1.stats().roundtrips, 1);
    assert_eq!(w.db2.stats().roundtrips, 1, "40 probes collapsed to 1");
}

/// With the smaller side *outer* (20 cards driving into 40 customers),
/// the planner's cardinality-driven reorder buffers the outer side
/// instead — `join_reorders` ticks, and the build-row count is the
/// outer cardinality.
#[test]
fn reordered_hash_join_buffers_the_smaller_outer_side() {
    let w = world(40);
    let q = format!(
        "{PROLOG}
         for $k in cc:CREDIT_CARD(), $c in c:CUSTOMER()
         where $c/CID eq $k/CID
         return <R>{{ $k/CCN, $c/LAST_NAME }}</R>"
    );
    let resp = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .execution(ExecutionOptions::new().join_strategy(JoinStrategy::Hash))
                .trace(TraceLevel::Operators),
        )
        .expect("executes");
    assert_eq!(resp.items().len(), 20, "each card matches its one holder");

    let pq = resp.per_query_stats();
    assert_eq!(pq.hash_joins, 1);
    assert_eq!(pq.join_reorders, 1, "outer est 20 < inner est 40");
    assert_eq!(pq.join_build_rows, 20, "the buffered side is the outer");

    let explain = resp.plan_explain().expect("explain with trace");
    assert!(
        explain.contains("-- join: #1.1 strategy=hash est-build=20 est-probe=40 reordered=true"),
        "{explain}"
    );

    let trace = resp.trace().expect("trace requested");
    let join = *trace.node(TraceKey::clause(1, 1)).expect("join clause");
    assert_eq!((join.rows_in, join.rows_out), (20, 20));
    assert_eq!(join.source_roundtrips, 1);
    assert_eq!(join.join_build_rows, 20);
    assert_eq!(w.db1.stats().roundtrips, 1, "20 probes collapsed to 1");
    assert_eq!(w.db2.stats().roundtrips, 1);
}

/// A group-by whose key the SQL generator cannot push falls back to the
/// sort-based operator; the trace shows the 9→6 collapse and the
/// EXPLAIN says which mode the optimizer chose.
#[test]
fn sorted_group_by_trace_row_counts() {
    // world(9): customers 1,2,4,5,7,8 have orders (9 rows total); the
    // key — the CID's last digit — yields 6 distinct groups
    let w = world(9);
    let q = format!(
        "{PROLOG}
         for $o in c:ORDER()
         let $oid := $o/OID
         group $oid as $ids by fn:substring($o/CID, 5, 1) as $k
         return <G>{{ $k, $ids }}</G>"
    );
    let resp = w
        .server
        .execute(
            QueryRequest::new(&q)
                .principal(demo())
                .trace(TraceLevel::Operators),
        )
        .expect("executes");
    assert_eq!(resp.items().len(), 6);
    let explain = resp.plan_explain().expect("explain with trace");
    assert!(
        explain.contains("GroupBy mode=sorted (buffers groups)"),
        "{explain}"
    );

    let trace = resp.trace().expect("trace requested");
    let node = |key: TraceKey| *trace.node(key).expect("traced node");
    let scan = node(TraceKey::clause(1, 0));
    assert_eq!((scan.rows_in, scan.rows_out), (1, 9));
    let group = node(TraceKey::clause(1, 2));
    assert_eq!((group.rows_in, group.rows_out), (9, 6));
    assert_eq!(node(TraceKey::node(1)).rows_out, 6);
}

/// Two concurrently traced executions over one shared server (and one
/// shared compiled-plan cache) each get their own counters — no bleed.
#[test]
fn concurrent_traces_are_isolated() {
    let w = world(10);
    let join = format!(
        "{PROLOG}
         for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD()
         where $k/CID eq $c/CID
         return <R>{{ $c/CID, $k/CCN }}</R>"
    );
    let scan = format!("{PROLOG} for $c in c:CUSTOMER() return $c/CID");
    let run = |q: &str| {
        w.server
            .execute(
                QueryRequest::new(q)
                    .principal(demo())
                    .trace(TraceLevel::Operators),
            )
            .expect("executes")
    };
    std::thread::scope(|s| {
        let join_thread = s.spawn(|| {
            for _ in 0..50 {
                let resp = run(&join);
                let t = resp.trace().expect("trace");
                assert_eq!(t.node(TraceKey::node(1)).expect("root").rows_out, 5);
                assert_eq!(
                    t.node(TraceKey::clause(1, 1)).expect("inner").rows_out,
                    5,
                    "join trace polluted by the concurrent scan"
                );
            }
        });
        let scan_thread = s.spawn(|| {
            for _ in 0..50 {
                let resp = run(&scan);
                let t = resp.trace().expect("trace");
                let root = t.node(TraceKey::node(1)).expect("root");
                assert_eq!(root.rows_out, 10);
                assert!(
                    t.node(TraceKey::clause(1, 1)).is_none(),
                    "scan trace polluted by the concurrent join"
                );
            }
        });
        join_thread.join().expect("join workload");
        scan_thread.join().expect("scan workload");
    });
}

/// Untraced requests carry neither a trace nor an EXPLAIN, and
/// `explain_only` compiles without touching any source.
#[test]
fn trace_is_opt_in_and_explain_only_runs_nothing() {
    let w = world(4);
    let q = format!("{PROLOG} for $c in c:CUSTOMER() return $c/CID");
    let plain = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("executes");
    assert!(plain.trace().is_none());
    assert!(plain.plan_explain().is_none());
    assert_eq!(plain.items().len(), 4);

    let before = w.db1.stats().roundtrips;
    let explained = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()).explain_only())
        .expect("explains");
    assert!(explained.items().is_empty());
    let explain = explained.plan_explain().expect("explain");
    assert!(explain.contains("sql> FROM \"CUSTOMER\" t1"), "{explain}");
    assert_eq!(
        w.db1.stats().roundtrips,
        before,
        "explain_only must not execute"
    );
}

/// `vm_ops_executed` and `vm_fallback_subtrees` outlived the bytecode
/// expression VM they counted: both always read 0, per query and
/// server-wide, even for a middleware predicate, computed sort key and
/// quantifier that the VM would have run or declined.
#[test]
fn retired_vm_counters_read_zero() {
    let w = common::world_tuned(7, |b| {
        b.execution(ExecutionOptions::new().pushdown(aldsp::PushdownLevel::Off))
    });
    let q = format!(
        "{PROLOG}
         for $c in c:CUSTOMER()
         where fn:starts-with($c/CID, \"C0\")
               and (some $o in c:ORDER() satisfies $o/CID eq $c/CID)
         order by fn:substring($c/LAST_NAME, 2) descending
         return $c/CID"
    );
    let resp = w
        .server
        .execute(QueryRequest::new(&q).principal(demo()))
        .expect("executes");
    assert_eq!(resp.items().len(), 4, "customers 1, 2, 4, 5 have orders");
    let local = resp.per_query_stats();
    assert_eq!((local.vm_ops_executed, local.vm_fallback_subtrees), (0, 0));
    let global = w.server.stats();
    assert_eq!(
        (global.vm_ops_executed, global.vm_fallback_subtrees),
        (0, 0)
    );
}
