(* Data generator tests: determinism, cardinalities, key uniqueness and
   referential integrity. *)

open Relalg

let db = lazy (Datagen.Tpch_gen.database ~sf:0.002 ())

let table name = Storage.Database.table (Lazy.force db) name

let col_values tname cname =
  let tb = table tname in
  let pos = Option.get (Storage.Table.column_position tb cname) in
  List.map (fun r -> r.(pos)) (Storage.Table.to_rows tb)

let test_row_counts () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (Storage.Table.row_count (table name)))
    (Datagen.Tpch_gen.expected_rows 0.002);
  (* lineitem has 1..7 lines per order *)
  let li = Storage.Table.row_count (table "lineitem") in
  let orders = Storage.Table.row_count (table "orders") in
  Alcotest.(check bool) "lineitem within bounds" true (li >= orders && li <= 7 * orders)

let test_determinism () =
  let db2 = Datagen.Tpch_gen.database ~sf:0.002 () in
  let t1 = table "orders" and t2 = Storage.Database.table db2 "orders" in
  Alcotest.(check int) "same count" (Storage.Table.row_count t1) (Storage.Table.row_count t2);
  let logical tb = Storage.Table.to_rows tb in
  Alcotest.(check bool) "same rows" true
    (List.for_all2 (fun a b -> Array.for_all2 Value.equal a b) (logical t1) (logical t2));
  (* a different seed changes the data *)
  let db3 = Datagen.Tpch_gen.database ~seed:7 ~sf:0.002 () in
  let t3 = Storage.Database.table db3 "orders" in
  Alcotest.(check bool) "different seed differs" false
    (List.for_all2 (fun a b -> Array.for_all2 Value.equal a b) (logical t1) (logical t3))

let test_primary_keys_unique () =
  List.iter
    (fun (tname, cname) ->
      let vs = col_values tname cname in
      let distinct = List.sort_uniq Value.compare vs in
      Alcotest.(check int) (tname ^ " pk unique") (List.length vs) (List.length distinct))
    [ ("region", "r_regionkey"); ("nation", "n_nationkey"); ("supplier", "s_suppkey");
      ("customer", "c_custkey"); ("part", "p_partkey"); ("orders", "o_orderkey")
    ]

let test_referential_integrity () =
  let keyset tname cname =
    let tbl = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace tbl v ()) (col_values tname cname);
    tbl
  in
  let check_fk (child, ccol) (parent, pcol) =
    let parents = keyset parent pcol in
    List.iter
      (fun v ->
        if not (Hashtbl.mem parents v) then
          Alcotest.failf "%s.%s = %s has no parent in %s.%s" child ccol (Value.to_string v)
            parent pcol)
      (col_values child ccol)
  in
  check_fk ("nation", "n_regionkey") ("region", "r_regionkey");
  check_fk ("supplier", "s_nationkey") ("nation", "n_nationkey");
  check_fk ("customer", "c_nationkey") ("nation", "n_nationkey");
  check_fk ("orders", "o_custkey") ("customer", "c_custkey");
  check_fk ("lineitem", "l_orderkey") ("orders", "o_orderkey");
  check_fk ("lineitem", "l_partkey") ("part", "p_partkey");
  check_fk ("lineitem", "l_suppkey") ("supplier", "s_suppkey");
  check_fk ("partsupp", "ps_partkey") ("part", "p_partkey");
  check_fk ("partsupp", "ps_suppkey") ("supplier", "s_suppkey")

let test_value_domains () =
  List.iter
    (fun v ->
      match v with
      | Value.Float q -> Alcotest.(check bool) "quantity 1..50" true (q >= 1. && q <= 50.)
      | _ -> Alcotest.fail "quantity type")
    (col_values "lineitem" "l_quantity");
  List.iter
    (fun v ->
      match v with
      | Value.Str b ->
          Alcotest.(check bool) "brand format" true
            (String.length b = 8 && String.sub b 0 6 = "Brand#")
      | _ -> Alcotest.fail "brand type")
    (col_values "part" "p_brand");
  (* every part has a partsupp row for each of the 2 suppliers SF 0.002
     has (4 from 4 suppliers on) *)
  let ps = col_values "partsupp" "ps_partkey" in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace counts v (1 + try Hashtbl.find counts v with Not_found -> 0))
    ps;
  Hashtbl.iter (fun _ c -> Alcotest.(check int) "2 suppliers per part" 2 c) counts

let test_indexes_built () =
  let tb = table "orders" in
  Alcotest.(check bool) "pk index" true (Storage.Table.find_index tb "o_orderkey" <> None);
  Alcotest.(check bool) "fk index" true (Storage.Table.find_index tb "o_custkey" <> None);
  (* index lookups return the right rows *)
  match Storage.Table.find_index tb "o_orderkey" with
  | Some ix ->
      let rows = Storage.Table.index_lookup ix tb (Value.Int 1) in
      Alcotest.(check int) "one row for pk 1" 1 (List.length rows)
  | None -> Alcotest.fail "no index"

(* Every declared primary key is unique at each small scale factor,
   including those whose few suppliers the part-to-supplier spread
   wraps around; a scale factor with no suppliers is rejected; and the
   SF 0.01 data, which plans and benchmarks are pinned on, keeps its
   digest. *)
let test_declared_keys_every_sf () =
  let cat = Catalog.tpch () in
  List.iter
    (fun sf ->
      let db = Datagen.Tpch_gen.database ~sf () in
      List.iter
        (fun name ->
          let def = Option.get (Catalog.find_table cat name) in
          let tb = Storage.Database.table db name in
          let pos = List.map (fun c -> Option.get (Storage.Table.column_position tb c)) def.primary_key in
          let keys = List.map (fun r -> List.map (Array.get r) pos) (Storage.Table.to_rows tb) in
          Alcotest.(check int)
            (Printf.sprintf "SF %g: %s key unique" sf name)
            (List.length keys)
            (List.length (List.sort_uniq compare keys)))
        (Catalog.table_names cat))
    [ 0.001; 0.002; 0.004; 0.006; 0.009; 0.012; 0.01 ];
  (match Datagen.Tpch_gen.database ~sf:0.0005 () with
  | _ -> Alcotest.fail "SF 0.0005 has no suppliers and must be rejected"
  | exception Invalid_argument _ -> ());
  let db = Lazy.force Support.tpch_sf001 in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.concat_map
               (fun name ->
                 name
                 :: List.map
                      (fun r -> String.concat "|" (Array.to_list (Array.map Value.to_string r)))
                      (Storage.Table.to_rows (Storage.Database.table db name)))
               (Catalog.table_names cat))))
  in
  Alcotest.(check string) "SF 0.01 tables unchanged" "88cf97406407d382020d525b2fd9d549" digest

let suite =
  [ Alcotest.test_case "row counts" `Quick test_row_counts;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "primary keys unique" `Quick test_primary_keys_unique;
    Alcotest.test_case "referential integrity" `Quick test_referential_integrity;
    Alcotest.test_case "value domains" `Quick test_value_domains;
    Alcotest.test_case "indexes" `Quick test_indexes_built;
    Alcotest.test_case "declared keys at every SF" `Quick test_declared_keys_every_sf
  ]
