(* Differential fuzz sweep, run by `dune build @fuzz` (long sweep) and
   `make fuzz-smoke` (fixed seeds, bounded cases, part of `make verify`).

   Usage: fuzz_main.exe [--property-check] [--cache] [CASES [SEED...]]

   For each seed, runs CASES generated correlated-subquery queries
   through the differential checker (full optimizer vs the correlated
   oracle).  Failures print a minimized reproducer and its replay id.
   Exit status 0 iff no mismatches and no crashes.

   With --property-check, every case additionally asserts the symbolic
   property engine's inferred facts (derived keys, non-nullability,
   FDs, cardinality intervals, row-local equalities and constants)
   against the candidate's actual result bag, and the equalities and
   constants on every closed subtree as well (see Engine.execute).

   With --cache, the differential check is replaced by the
   caching-tier contract: every case runs cold and then warm with
   perturbed literals against a cache-enabled engine, each run
   bag-compared to a fresh uncached optimization of the same SQL.

   A deterministic row budget bounds each case: the correlated oracle
   executes uncorrelated nested subqueries quadratically, and a fuzzer
   must not hang on the (legitimate) expensive tail.  Budget trips
   classify as skipped, not failed. *)

let sf = 0.002

let max_rows_per_case = 5_000_000

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let property_check = List.mem "--property-check" args in
  let cache = List.mem "--cache" args in
  let args = List.filter (fun a -> a <> "--property-check" && a <> "--cache") args in
  let cases, seeds =
    match args with
    | [] -> (40, [ 1; 2; 3; 4; 5 ])
    | [ c ] -> (int_of_string c, [ 1; 2; 3; 4; 5 ])
    | c :: rest -> (int_of_string c, List.map int_of_string rest)
  in
  Printf.printf "fuzz sweep: SF %.3f, %d cases x seeds [%s]%s%s\n%!" sf cases
    (String.concat "; " (List.map string_of_int seeds))
    (if property_check then ", property cross-check on" else "")
    (if cache then ", caching-tier contract" else "");
  let db = Datagen.Tpch_gen.database ~sf () in
  let eng = Engine.create db in
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let cfg =
        { (Testgen.Fuzz.default_config ~seed ~cases) with
          Testgen.Fuzz.budget = Some (Exec.Budget.make ~max_rows:max_rows_per_case ());
          property_check;
          cache;
        }
      in
      let summary =
        Testgen.Fuzz.run
          ~on_case:(fun r ->
            if Testgen.Fuzz.is_failure r.outcome then
              print_string (Testgen.Fuzz.format_case r))
          cfg eng
      in
      failures := !failures + List.length summary.failures;
      Printf.printf "seed %d: %s\n%!" seed (Testgen.Fuzz.format_summary summary))
    seeds;
  if !failures > 0 then begin
    Printf.printf "FUZZ FAILED: %d failing cases\n" !failures;
    exit 1
  end
  else print_endline "fuzz sweep passed"
