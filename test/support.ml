(* Shared test helpers: a small hand-built database with known contents,
   bag comparison of results, and pipeline shortcuts. *)

open Relalg

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_f f = Value.Float f
let v_null = Value.Null

(* A two-table toy schema: emp(eid, name, dept, salary), dept(did, dname).
   Employee 4 has no department (dept 99 does not exist); dept 3 has no
   employees. *)
let toy_catalog () : Catalog.t =
  let open Value in
  let c n ty = Catalog.col n ty in
  let cat = Catalog.create () in
  Catalog.add_table cat
    { name = "emp";
      columns = [ c "eid" TInt; c "name" TStr; c "dept" TInt; c "salary" TFloat ];
      primary_key = [ "eid" ];
      indexes = [ [ "dept" ] ]
    };
  Catalog.add_table cat
    { name = "dept";
      columns = [ c "did" TInt; c "dname" TStr ];
      primary_key = [ "did" ];
      indexes = []
    };
  (* a keyless table for the manufactured-key paths *)
  Catalog.add_table cat
    { name = "bag"; columns = [ c "x" TInt; c "y" TInt ]; primary_key = []; indexes = [] };
  cat

let toy_db () : Storage.Database.t =
  let cat = toy_catalog () in
  let db = Storage.Database.create cat in
  Storage.Table.load
    (Storage.Database.table db "emp")
    [ [| v_int 1; v_str "ann"; v_int 1; v_f 100. |];
      [| v_int 2; v_str "bob"; v_int 1; v_f 200. |];
      [| v_int 3; v_str "cid"; v_int 2; v_f 300. |];
      [| v_int 4; v_str "dan"; v_int 99; v_f 400. |]
    ];
  Storage.Table.load
    (Storage.Database.table db "dept")
    [ [| v_int 1; v_str "eng" |]; [| v_int 2; v_str "ops" |]; [| v_int 3; v_str "hr" |] ];
  Storage.Table.load
    (Storage.Database.table db "bag")
    [ [| v_int 1; v_int 10 |]; [| v_int 1; v_int 10 |]; [| v_int 2; v_int 20 |] ];
  Storage.Database.build_declared_indexes db;
  db

(* run a logical tree against a db, no order/limit *)
let run_op (db : Storage.Database.t) (o : Algebra.op) : Value.t array list =
  let ctx = Exec.Executor.make_ctx db in
  Exec.Executor.run ctx o

(* TPC-H at SF 0.01, the scale the adhoc-cold benchmark plans at;
   shared by the tests that pin answers or plans there *)
let tpch_sf001 = lazy (Datagen.Tpch_gen.database ~sf:0.01 ())

let check_same_bag msg a b =
  Alcotest.(check (list string)) msg (Engine.bag a) (Engine.bag b)

(* run a SQL query end-to-end under a given optimizer config *)
let run_sql ?config (db : Storage.Database.t) (sql : string) : Value.t array list =
  let eng = Engine.create db in
  (Engine.query ?config eng sql).rows

let rows_to_strings rows =
  List.map (fun r -> Array.to_list (Array.map Value.to_string r)) rows

(* the four stages of normalization all produce the same bag *)
let check_stages_equivalent (db : Storage.Database.t) (sql : string) =
  let cat = db.Storage.Database.catalog in
  let env = Catalog.props_env cat in
  let b = Sqlfront.Binder.bind_sql cat sql in
  let st = Normalize.run (Normalize.default_options env) b.op in
  let visible = List.length b.outputs in
  let narrow rows = List.map (fun r -> Array.sub r 0 (min visible (Array.length r))) rows in
  let r0 = narrow (run_op db st.bound) in
  let r1 = narrow (run_op db st.applied) in
  let r2 = narrow (run_op db st.decorrelated) in
  let r3 = narrow (run_op db st.normalized) in
  check_same_bag "bound = applied" r0 r1;
  check_same_bag "applied = decorrelated" r1 r2;
  check_same_bag "decorrelated = normalized" r2 r3;
  st

let qtest = QCheck_alcotest.to_alcotest

(* substring search *)
let contains (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0
