//! Language-semantics integration tests: XQuery behaviors exercised end
//! to end through the server (builtins, comparisons, typeswitch,
//! quantifiers, ranges, casts, conditional construction details).

mod common;

use aldsp::security::Principal;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{ExecutionOptions, PushdownLevel, QueryRequest};
use common::{world, world_tuned, PROLOG};

fn run(w: &common::World, q: &str) -> String {
    let src = format!("{PROLOG}\n{q}");
    let out = w
        .server
        .execute(QueryRequest::new(&src).principal(Principal::new("demo", &[])))
        .unwrap_or_else(|e| panic!("query failed: {e}\n{q}"))
        .into_items();
    serialize_sequence(&out)
}

#[test]
fn string_builtins() {
    let w = world(1);
    assert_eq!(run(&w, r#"fn:upper-case("aBc")"#), "ABC");
    assert_eq!(run(&w, r#"fn:lower-case("aBc")"#), "abc");
    assert_eq!(run(&w, r#"fn:string-length("hello")"#), "5");
    assert_eq!(run(&w, r#"fn:substring("hello world", 7)"#), "world");
    assert_eq!(run(&w, r#"fn:substring("hello", 2, 3)"#), "ell");
    assert_eq!(run(&w, r#"fn:concat("a", "b", "c")"#), "abc");
    assert_eq!(run(&w, r#"fn:contains("haystack", "st")"#), "true");
    assert_eq!(run(&w, r#"fn:starts-with("haystack", "hay")"#), "true");
    assert_eq!(run(&w, r#"fn:starts-with("haystack", "stack")"#), "false");
}

#[test]
fn sequence_builtins() {
    let w = world(1);
    assert_eq!(run(&w, "count((1, 2, 3))"), "3");
    assert_eq!(run(&w, "count(())"), "0");
    assert_eq!(run(&w, "sum((1, 2, 3))"), "6");
    assert_eq!(run(&w, "avg((2, 4))"), "3");
    assert_eq!(run(&w, "min((3, 1, 2))"), "1");
    assert_eq!(run(&w, "max((3, 1, 2))"), "3");
    assert_eq!(run(&w, "empty(())"), "true");
    assert_eq!(run(&w, "exists(())"), "false");
    assert_eq!(run(&w, "subsequence((1,2,3,4,5), 2, 2)"), "2 3");
    assert_eq!(run(&w, "distinct-values((1, 2, 1, 3, 2))"), "1 2 3");
    assert_eq!(run(&w, "abs(-7)"), "7");
}

#[test]
fn arithmetic_and_comparison_semantics() {
    let w = world(1);
    assert_eq!(run(&w, "1 + 2 * 3"), "7");
    assert_eq!(run(&w, "7 mod 3"), "1");
    // integer div yields decimal, per XQuery
    assert_eq!(run(&w, "1 div 2"), "0.5");
    // empty operand propagates
    assert_eq!(run(&w, "() + 1"), "");
    // value comparison on empty is empty → EBV false
    assert_eq!(run(&w, "if (() eq 1) then \"y\" else \"n\""), "n");
    // general comparison is existential
    assert_eq!(run(&w, "if ((1, 5) = (5, 9)) then \"y\" else \"n\""), "y");
    assert_eq!(run(&w, "if ((1, 5) != (1, 5)) then \"y\" else \"n\""), "y");
}

#[test]
fn range_and_quantifiers() {
    let w = world(1);
    assert_eq!(run(&w, "count(1 to 10)"), "10");
    assert_eq!(run(&w, "count(5 to 4)"), "0");
    assert_eq!(run(&w, "sum(1 to 4)"), "10");
    assert_eq!(
        run(
            &w,
            "if (some $x in (1,2,3) satisfies $x gt 2) then 1 else 0"
        ),
        "1"
    );
    assert_eq!(
        run(
            &w,
            "if (every $x in (1,2,3) satisfies $x gt 2) then 1 else 0"
        ),
        "0"
    );
    assert_eq!(
        run(&w, "if (every $x in () satisfies $x gt 2) then 1 else 0"),
        "1"
    );
}

#[test]
fn casts_and_type_predicates() {
    let w = world(1);
    assert_eq!(run(&w, r#"xs:integer("42") + 1"#), "43");
    assert_eq!(run(&w, r#"xs:date("2006-09-12")"#), "2006-09-12");
    assert_eq!(run(&w, r#""5" castable as xs:integer"#), "true");
    assert_eq!(run(&w, r#""abc" castable as xs:integer"#), "false");
    assert_eq!(run(&w, "5 instance of xs:integer"), "true");
    assert_eq!(run(&w, r#""x" instance of xs:integer"#), "false");
    assert_eq!(run(&w, "(1, 2) instance of xs:integer"), "false");
    assert_eq!(run(&w, "(1, 2) instance of xs:integer+"), "true");
}

#[test]
fn typeswitch_dispatch() {
    let w = world(1);
    let q = r#"
        for $v in (1, "two", <E>3</E>)
        return typeswitch ($v)
               case xs:integer return "int"
               case xs:string return "str"
               default return "other""#;
    assert_eq!(run(&w, q), "int str other");
}

#[test]
fn constructor_details() {
    let w = world(1);
    // adjacent atomics joined with a space
    assert_eq!(run(&w, "<X>{1, 2}</X>"), "<X>1 2</X>");
    // conditional attribute omitted when its value is empty
    assert_eq!(run(&w, r#"<X a?="{()}"/>"#), "<X/>");
    assert_eq!(run(&w, r#"<X a?="{5}"/>"#), r#"<X a="5"/>"#);
    // conditional element omitted on empty content
    assert_eq!(run(&w, "<X?>{()}</X>"), "");
    assert_eq!(run(&w, "(<A/>, <X?>{1}</X>)"), "<A/><X>1</X>");
    // mixed literal and enclosed attribute parts
    assert_eq!(run(&w, r#"<X a="v{1+1}w"/>"#), r#"<X a="v2w"/>"#);
    // nested constructors preserve order
    assert_eq!(run(&w, "<O><A/><B/>{<C/>}</O>"), "<O><A/><B/><C/></O>");
}

#[test]
fn positional_predicates() {
    let w = world(1);
    assert_eq!(run(&w, "(10, 20, 30)[2]"), "20");
    assert_eq!(run(&w, "(10, 20, 30)[5]"), "");
    let q = "for $x in (<E><V>1</V></E>, <E><V>2</V></E>) return $x[V eq 2]/V";
    assert_eq!(run(&w, q), "<V>2</V>");
}

#[test]
fn path_semantics_on_constructed_trees() {
    let w = world(1);
    let q = r#"
        let $doc := <root><a><b>1</b></a><a><b>2</b></a><c/></root>
        return ($doc/a/b, count($doc//b), $doc/c, $doc/a/@x)"#;
    assert_eq!(run(&w, q), "<b>1</b><b>2</b>2<c/>");
    // attribute steps
    let q = r#"let $e := <e id="7"><k id="8"/></e> return ($e/@id, $e/k/@id)"#;
    assert_eq!(run(&w, q), r#"id="7"id="8""#);
}

#[test]
fn error_paths_surface_cleanly() {
    let w = world(1);
    let user = Principal::new("demo", &[]);
    // static error: unknown function
    let err = w
        .server
        .execute(QueryRequest::new(&format!("{PROLOG} nosuch:fn()")).principal(user.clone()))
        .expect_err("unknown function");
    assert!(
        err.to_string().contains("unbound") || err.to_string().contains("undeclared"),
        "{err}"
    );
    // static error: undeclared variable
    let err = w
        .server
        .execute(QueryRequest::new(&format!("{PROLOG} $nope + 1")).principal(user.clone()))
        .expect_err("undeclared variable");
    assert!(err.to_string().contains("undeclared"), "{err}");
    // dynamic error: cast failure
    let err = w
        .server
        .execute(
            QueryRequest::new(&format!("{PROLOG} xs:integer(\"abc\")")).principal(user.clone()),
        )
        .expect_err("bad cast");
    assert!(err.to_string().contains("cast"), "{err}");
}

#[test]
fn deep_view_stacks_execute_correctly() {
    // five view layers with predicates at different levels
    let w = world(20);
    w.server
        .deploy(&format!(
            "{PROLOG}
             declare namespace v = \"urn:v\";
             declare function v:l1() as element(CUSTOMER)* {{ for $c in c:CUSTOMER() return $c }}
             ;
             declare function v:l2() as element(CUSTOMER)* {{ for $c in v:l1() return $c }};
             declare function v:l3() as element(CUSTOMER)* {{ v:l2()[LAST_NAME eq \"Smith\"] }};
             declare function v:l4() as element(CUSTOMER)* {{ for $c in v:l3() return $c }};
             declare function v:l5($id as xs:string) as element(CUSTOMER)* {{ v:l4()[CID eq $id] }};"
        ))
        .expect("deploys");
    let src = format!(
        "{PROLOG}
         declare namespace v = \"urn:v\";
         v:l5(\"C0004\")"
    );
    let out = w
        .server
        .execute(QueryRequest::new(&src).principal(Principal::new("demo", &[])))
        .expect("query")
        .into_items();
    let s = serialize_sequence(&out);
    assert!(s.contains("<CID>C0004</CID>") && s.contains("Smith"), "{s}");
    // the compiled plan pushed everything into one statement
    assert_eq!(
        w.db1.stats().roundtrips,
        1,
        "{:#?}",
        w.db1.stats().statements
    );
}

/// A middleware-heavy scalar corpus: pushdown stays off, so predicates,
/// computed keys and filters are evaluated by the plan interpreter, not
/// by the source.
const SCALAR_CORPUS: [&str; 8] = [
    // comparison + arithmetic + boolean connectives in a where clause
    r#"for $o in c:ORDER()
       where $o/AMOUNT ge 20.00 and ($o/OID mod 2 eq 1 or $o/AMOUNT lt 100.00)
       return <R>{ $o/OID }</R>"#,
    // let over string builtins, order by a substring key (descending)
    r#"for $c in c:CUSTOMER()
       let $k := fn:concat($c/LAST_NAME, "-", $c/CID)
       order by fn:substring($k, 2, 5) descending, $c/CID
       return <K>{ $k }</K>"#,
    // group by a computed key through the sort-based group operator
    r#"for $o in c:ORDER()
       let $oid := $o/OID
       group $oid as $ids by fn:substring($o/CID, 1, 4) as $g
       return <G k="{$g}">{ fn:count($ids) }</G>"#,
    // casts, castable and instance-of in value space
    r#"for $x in (1, 2, 3)
       return (xs:string($x * 10), $x castable as xs:decimal,
               ($x + 1) instance of xs:integer)"#,
    // constant positional filters, in and out of range
    r#"let $s := (10, 20, 30)
       return ($s[2], $s[1], $s[4], ("a","b")[2])"#,
    // a quantified predicate
    r#"for $c in c:CUSTOMER()
       where some $o in c:ORDER() satisfies $o/CID eq $c/CID
       return $c/CID"#,
    // sequence + range construction feeding an aggregate
    r#"for $x in (1 to 4)
       return fn:sum((1 to $x, 100))"#,
    // string predicates over child steps
    r#"for $c in c:CUSTOMER()
       where fn:contains($c/LAST_NAME, "e") and fn:starts-with($c/CID, "C0")
       return $c/LAST_NAME"#,
];

/// [`SCALAR_CORPUS`]'s expected serializations per world size, recorded
/// while a bytecode expression VM and the plan interpreter still had to
/// agree on them byte for byte. Sizes cover a single customer, empty
/// groups, null columns, several group keys, and (from 20 customers on)
/// orders that pass the first query's `AMOUNT ge 20.00`.
const SCALAR_GOLDENS: &[(usize, [&str; 8])] = &[
    (
        1,
        [
            "",
            "<K>Jones-C0000</K>",
            "",
            "10 true true 20 true true 30 true true",
            "20 10 b",
            "",
            "101 103 106 110",
            "<LAST_NAME>Jones</LAST_NAME>",
        ],
    ),
    (
        7,
        [
            "",
            "<K>Jones-C0000</K><K>Jones-C0003</K><K>Jones-C0006</K><K>Smith-C0001</K><K>Smith-C0004</K><K>Chen-C0002</K><K>Chen-C0005</K>",
            r#"<G k="C000">6</G>"#,
            "10 true true 20 true true 30 true true",
            "20 10 b",
            "<CID>C0001</CID><CID>C0002</CID><CID>C0004</CID><CID>C0005</CID>",
            "101 103 106 110",
            "<LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME>",
        ],
    ),
    (
        13,
        [
            "",
            "<K>Jones-C0000</K><K>Jones-C0003</K><K>Jones-C0006</K><K>Jones-C0009</K><K>Jones-C0012</K><K>Smith-C0001</K><K>Smith-C0004</K><K>Smith-C0007</K><K>Smith-C0010</K><K>Chen-C0002</K><K>Chen-C0005</K><K>Chen-C0008</K><K>Chen-C0011</K>",
            r#"<G k="C000">9</G><G k="C001">3</G>"#,
            "10 true true 20 true true 30 true true",
            "20 10 b",
            "<CID>C0001</CID><CID>C0002</CID><CID>C0004</CID><CID>C0005</CID><CID>C0007</CID><CID>C0008</CID><CID>C0010</CID><CID>C0011</CID>",
            "101 103 106 110",
            "<LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME>",
        ],
    ),
    (
        24,
        [
            "<R><OID>19</OID></R><R><OID>20</OID></R><R><OID>21</OID></R><R><OID>22</OID></R><R><OID>23</OID></R><R><OID>24</OID></R>",
            "<K>Jones-C0000</K><K>Jones-C0003</K><K>Jones-C0006</K><K>Jones-C0009</K><K>Jones-C0012</K><K>Jones-C0015</K><K>Jones-C0018</K><K>Jones-C0021</K><K>Smith-C0001</K><K>Smith-C0004</K><K>Smith-C0007</K><K>Smith-C0010</K><K>Smith-C0013</K><K>Smith-C0016</K><K>Smith-C0019</K><K>Smith-C0022</K><K>Chen-C0002</K><K>Chen-C0005</K><K>Chen-C0008</K><K>Chen-C0011</K><K>Chen-C0014</K><K>Chen-C0017</K><K>Chen-C0020</K><K>Chen-C0023</K>",
            r#"<G k="C000">9</G><G k="C001">10</G><G k="C002">5</G>"#,
            "10 true true 20 true true 30 true true",
            "20 10 b",
            "<CID>C0001</CID><CID>C0002</CID><CID>C0004</CID><CID>C0005</CID><CID>C0007</CID><CID>C0008</CID><CID>C0010</CID><CID>C0011</CID><CID>C0013</CID><CID>C0014</CID><CID>C0016</CID><CID>C0017</CID><CID>C0019</CID><CID>C0020</CID><CID>C0022</CID><CID>C0023</CID>",
            "101 103 106 110",
            "<LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME><LAST_NAME>Jones</LAST_NAME><LAST_NAME>Chen</LAST_NAME>",
        ],
    ),
];

#[test]
fn scalar_corpus_goldens() {
    for (n, wants) in SCALAR_GOLDENS {
        let w = world_tuned(*n, |b| {
            b.execution(ExecutionOptions::new().pushdown(PushdownLevel::Off))
        });
        for (q, want) in SCALAR_CORPUS.iter().zip(wants) {
            assert_eq!(run(&w, q), *want, "n={n}: {q}");
        }
    }
}

/// The constant positional filter (`$s[2]`) is a direct index into the
/// sequence: item `n` (1-based), or nothing when `n` is out of range.
#[test]
fn const_positional_filter_picks_item() {
    let w = world(1);
    for (q, want) in [
        ("let $s := (10, 20, 30) return $s[2]", "20"),
        ("let $s := (10, 20, 30) return $s[1]", "10"),
        ("let $s := (10, 20, 30) return $s[3]", "30"),
        ("let $s := (10, 20, 30) return $s[4]", ""),
        ("let $s := (10, 20, 30) return $s[0]", ""),
        ("(\"a\", \"b\")[2]", "b"),
    ] {
        assert_eq!(run(&w, q), want, "{q}");
    }
}
