(* Plan census: plans every Qgen statement of seeds 1-5, cases 0-199,
   at SF 0.01 with the plan cache off and column ids reset before each
   statement, and prints one line per statement -- seed, case, the
   chosen plan's cost bit for bit ([%h]), the number of explored
   alternatives and the MD5 of the plan's text -- then the MD5 of all
   those lines.  A planner change that means to keep every plan must
   leave the final digest alone.

     dune exec test/plan_census_main.exe      (or: make plan-census)

   With [--against FILE], a census saved from another build (this
   program's output), it then compares the chosen costs statement by
   statement: how many rose, fell or stayed, every statement whose cost
   rose with both costs, and on each side the number of statements
   whose search reached the [max_alternatives] budget.  It exits 1 if
   any cost rose. *)

open Relalg

let budget = Optimizer.Config.full.max_alternatives

(* (seed, case) -> (cost, explored) of each statement line of a census *)
let parse (lines : string list) : ((int * int) * (float * int)) list =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ seed; case; cost; explored; _ ] ->
          Some
            ( (int_of_string seed, int_of_string case),
              (float_of_string cost, int_of_string explored) )
      | _ -> None)
    lines

let read_lines file =
  let ic = open_in file in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

(* prints the comparison and tells whether no cost rose *)
let compare_against file (mine : ((int * int) * (float * int)) list) : bool =
  let theirs = parse (read_lines file) in
  let rose = ref [] and fell = ref 0 and stayed = ref 0 in
  List.iter
    (fun (k, (cost, _)) ->
      match List.assoc_opt k theirs with
      | None -> ()
      | Some (old, _) ->
          if cost > old then rose := (k, old, cost) :: !rose
          else if cost < old then incr fell
          else incr stayed)
    mine;
  let exhausted l = List.length (List.filter (fun (_, (_, e)) -> e >= budget) l) in
  Printf.printf "against %s: %d rose, %d fell, %d stayed\n" file (List.length !rose) !fell
    !stayed;
  List.iter
    (fun ((seed, case), old, cost) ->
      Printf.printf "  rose: seed %d case %d: %.17g -> %.17g\n" seed case old cost)
    (List.rev !rose);
  Printf.printf "explored reached max_alternatives (%d): %d there, %d here\n" budget
    (exhausted theirs) (exhausted mine);
  !rose = []

let () =
  let against =
    match Array.to_list Sys.argv with
    | [ _ ] -> None
    | [ _; "--against"; file ] -> Some file
    | _ ->
        prerr_endline "usage: plan_census_main.exe [--against CENSUS_FILE]";
        exit 2
  in
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
  Printf.printf "census %s\n" (Digest.to_hex (Digest.string (Buffer.contents all)));
  match against with
  | None -> ()
  | Some file ->
      if not (compare_against file (parse (String.split_on_char '\n' (Buffer.contents all))))
      then exit 1
