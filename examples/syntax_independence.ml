(* Syntax independence (the paper's Section 1.2).

   The same question — "customers who have ordered more than $X" — in
   the four formulations of Figure 1's lattice.  All normalize into the
   same plan space, return identical rows, and are optimized to plans
   of (near-)identical cost.

   Run with:  dune exec examples/syntax_independence.exe *)

let threshold = 500000

let formulations =
  [ ( "correlated subquery",
      Printf.sprintf
        "select c_custkey from customer where %d < \
         (select sum(o_totalprice) from orders where o_custkey = c_custkey)"
        threshold );
    ( "outerjoin + aggregate (Dayal)",
      Printf.sprintf
        "select c_custkey from customer left outer join orders on o_custkey = c_custkey \
         group by c_custkey having %d < sum(o_totalprice)"
        threshold );
    ( "join + aggregate",
      Printf.sprintf
        "select c_custkey from customer join orders on o_custkey = c_custkey \
         group by c_custkey having %d < sum(o_totalprice)"
        threshold );
    ( "derived table (Kim)",
      Printf.sprintf
        "select c_custkey from customer, (select o_custkey, sum(o_totalprice) as total \
         from orders group by o_custkey) a where o_custkey = c_custkey and %d < total"
        threshold )
  ]

let () =
  let db = Datagen.Tpch_gen.database ~sf:0.02 () in
  let eng = Engine.create db in
  let results =
    List.map
      (fun (name, sql) ->
        let p = Engine.prepare eng sql in
        let e = Engine.execute eng p in
        let rows =
          List.sort compare
            (List.map (fun r -> Relalg.Value.to_string r.(0)) e.result.rows)
        in
        (name, p, rows))
      formulations
  in
  print_endline "Four formulations of the same query (Figure 1's lattice):\n";
  List.iter
    (fun (name, p, rows) ->
      Printf.printf "%-32s cost %7.0f   %d rows\n" name p.Engine.plan_cost
        (List.length rows))
    results;
  let all_rows = List.map (fun (_, _, r) -> r) results in
  let same = List.for_all (fun r -> r = List.hd all_rows) all_rows in
  Printf.printf "\nidentical results across formulations: %b\n" same;
  let canons =
    List.map (fun (_, p, _) -> Relalg.Fingerprint.of_op p.Engine.plan) results
  in
  Printf.printf "distinct plans chosen: %d\n"
    (List.length (List.sort_uniq compare canons));
  print_endline "\nChosen plan for the correlated-subquery formulation:";
  (match results with
  | (_, p, _) :: _ -> print_string (Relalg.Pp.to_string p.Engine.plan)
  | [] -> ())
