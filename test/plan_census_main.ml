(* Plan census: plans every Qgen statement of seeds 1-5, cases 0-199,
   at SF 0.01 with the plan cache off and column ids reset before each
   statement, and prints one line per statement -- seed, case, the
   chosen plan's cost bit for bit ([%h]), the number of explored
   alternatives and the MD5 of the plan's text -- then the MD5 of all
   those lines.  A planner change that means to keep every plan must
   leave the final digest alone.

     dune exec test/plan_census_main.exe      (or: make plan-census) *)

open Relalg

let () =
  let eng = Engine.create (Datagen.Tpch_gen.database ~sf:0.01 ()) in
  let all = Buffer.create (1 lsl 16) in
  for seed = 1 to 5 do
    for case = 0 to 199 do
      Col.reset_counter ();
      let p = Engine.prepare ~use_cache:false eng (Testgen.Qgen.sql_of ~seed ~case) in
      let line =
        Printf.sprintf "%d %d %h %d %s\n" seed case p.plan_cost p.explored
          (Digest.to_hex (Digest.string (Pp.to_string p.plan)))
      in
      print_string line;
      Buffer.add_string all line
    done
  done;
  Printf.printf "census %s\n" (Digest.to_hex (Digest.string (Buffer.contents all)))
