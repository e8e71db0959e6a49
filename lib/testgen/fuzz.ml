(* Differential fuzzing driver.

   Each case: generate a correlated-subquery query ({!Qgen}), run it
   under the full optimizer and under the correlated-only oracle, and
   compare result bags ({!Engine.check}).  The properties checked are
   the paper's orthogonality claim (every decorrelated plan computes
   the correlated plan's bag) and the robustness contract of this
   codebase (no untyped exception ever escapes the pipeline).

   Under fault injection the differential check is replaced by the
   resilience property of the fault sweep: a fault-injected query
   either agrees with the clean correlated oracle (possibly after
   degrading) or dies with a typed error.

   Every case is identified by its (seed, case) pair; failures shrink
   to a structurally minimal reproducer before reporting. *)

type outcome =
  | Agree  (** bags matched (or, under faults, the contract held) *)
  | Mismatch of string  (** differential disagreement; formatted report *)
  | Skipped of string  (** budget trip / injected fault — no verdict *)
  | Failed of string  (** generator bug, invalid plan, or untyped crash *)

type case_result = {
  seed : int;
  case : int;
  sql : string;
  outcome : outcome;
  minimized : string option;  (** shrunken reproducer, for failures *)
}

type summary = {
  total : int;
  agreed : int;
  skipped : int;
  failures : case_result list;  (** mismatches, pipeline failures, crashes *)
}

type config = {
  seed : int;
  cases : int;  (** run cases 0 .. cases-1 *)
  only_case : int option;  (** replay a single case *)
  budget : Exec.Budget.t option;
  fault : Exec.Faults.spec option;
  shrink : bool;
  exec_mode : Engine.exec_mode;
      (** engine for the candidate side of every differential check;
          [`Vector] turns the sweep into a row-vs-vector harness *)
  candidate : Optimizer.Config.t;
      (** optimizer config for the candidate side; the reference stays
          the correlated-only oracle.  [correlated_only] here makes the
          candidate retain its Apply operators, so a [`Vector] sweep
          exercises the batched-Apply paths instead of decorrelated
          joins *)
  property_check : bool;
      (** assert the symbolic property engine's inferred facts (derived
          keys, non-nullability, cardinality intervals) against the
          candidate's actual result bag on every case *)
  cache : bool;
      (** caching-tier contract instead of the differential check:
          every case runs twice against a cache-enabled engine — cold,
          then with perturbed literals so the warm run rebinds the
          cached template — and each run is bag-compared against a
          fresh uncached optimization of the same SQL *)
}

let default_config ~seed ~cases =
  { seed;
    cases;
    only_case = None;
    budget = None;
    fault = None;
    shrink = true;
    exec_mode = `Row;
    candidate = Optimizer.Config.full;
    property_check = false;
    cache = false;
  }

(* ------------------------------------------------------------------ *)

(* Floats rendered to 6 significant digits: plans that join in a
   different order sum floats in a different order, and the fuzzer must
   not report that last-ulp drift as a semantic disagreement. *)
let float_digits = 6

let bag = Engine.bag ~float_digits

(* Differential classification.  Budget and fault trips carry no
   verdict; everything else that is not agreement is a failure — in a
   fuzzer, even a Bind error is a bug (the generator emitted SQL the
   front end rejects). *)
let classify ?budget ?mode ?candidate ?property_check (eng : Engine.t) (sql : string) :
    outcome =
  match
    try
      `R
        (Engine.Errors.protect ~sql (fun () ->
             Engine.check ?candidate ?budget ?property_check ?mode ~float_digits eng sql))
    with exn -> `Exn exn
  with
  | `R (Ok r) when r.Engine.agree && r.Engine.lint_errors <> [] ->
      (* the bags agree, but the linter proved the plan statically
         broken (e.g. a comparison that can never be satisfied): a
         pipeline bug even when the data does not expose it *)
      Failed ("lint: " ^ String.concat "; " r.Engine.lint_errors)
  | `R (Ok r) when r.Engine.agree -> Agree
  | `R (Ok r) -> Mismatch (Engine.format_check_report r)
  | `R (Error e) -> (
      match e.Engine.Errors.phase with
      | Budget | Fault -> Skipped (Engine.Errors.phase_to_string e.phase)
      | _ -> Failed (Engine.Errors.to_string e))
  | `Exn exn -> Failed ("untyped exception: " ^ Printexc.to_string exn)

(* Resilience classification under an armed fault plan: the result must
   match the clean correlated oracle or die typed. *)
let classify_fault ?budget ~(fspec : Exec.Faults.spec) (eng : Engine.t) (sql : string) :
    outcome =
  match
    Engine.query_checked ~config:Optimizer.Config.correlated_only ?budget eng sql
  with
  | Error e -> (
      match e.Engine.Errors.phase with
      | Budget -> Skipped "budget"
      | _ -> Failed ("oracle: " ^ Engine.Errors.to_string e))
  | Ok oracle -> (
      match
        try
          `R
            (Engine.query_resilient_checked ?budget
               ~faults:(Exec.Faults.create fspec) eng sql)
        with exn -> `Exn exn
      with
      | `R (Ok r) ->
          if bag r.Engine.execution.result.rows = bag oracle.rows then Agree
          else
            Mismatch
              (Printf.sprintf "under fault %s: %d rows vs oracle %d (served by %s)"
                 (Exec.Faults.spec_to_string fspec)
                 (List.length r.Engine.execution.result.rows)
                 (List.length oracle.rows) r.Engine.served_by)
      | `R (Error e) ->
          (* both paths killed: acceptable, but must be typed *)
          Skipped ("killed: " ^ Engine.Errors.phase_to_string e.Engine.Errors.phase)
      | `Exn exn -> Failed ("untyped exception: " ^ Printexc.to_string exn))

(* Deterministically perturb the literal tokens of a SQL string so a
   warm cache run exercises template rebinding with fresh values.
   Both sides of the comparison run the *same* perturbed text, so the
   perturbation cannot change the verdict — only which plan-cache
   entry serves it.  Date literals (STRING right after the DATE
   keyword) are left alone so the text stays parseable. *)
let perturb_literals ~(salt : int) (sql : string) : string =
  let state = ref (((salt * 2654435761) + 97) land 0x3FFFFFFF) in
  let next n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  let rec go prev acc = function
    | [] -> List.rev acc
    | t :: rest ->
        let t' =
          match (prev, t) with
          | Some (Sqlfront.Token.KEYWORD "DATE"), _ -> t
          | _, Sqlfront.Token.INT n -> Sqlfront.Token.INT (n + 1 + next 7)
          | _, Sqlfront.Token.FLOAT f ->
              (* keep the result non-integral: [Token.to_string] renders an
                 integral float as "9024.", which re-tokenizes as INT DOT *)
              let f' = f +. (0.5 *. float_of_int (1 + next 5)) in
              Sqlfront.Token.FLOAT
                (if Float.is_integer f' then f' +. 0.5 else f')
          | _, Sqlfront.Token.STRING s -> Sqlfront.Token.STRING (s ^ "x")
          | _ -> t
        in
        go (Some t) (t' :: acc) rest
  in
  Sqlfront.Parser.tokenize sql
  |> List.filter (fun t -> t <> Sqlfront.Token.EOF)
  |> go None []
  |> List.map Sqlfront.Token.to_string
  |> String.concat " "

(* Caching-tier contract for one SQL text: the cache-enabled engine
   and a fresh uncached optimization of the same text must produce the
   same bag. *)
let classify_cache ?budget ~mode ~candidate ~(salt : int) (eng : Engine.t)
    (sql : string) : outcome =
  let compare_on sql =
    match
      try
        `R
          (Engine.Errors.protect ~sql (fun () ->
               let cached = Engine.query ~config:candidate ?budget ~mode eng sql in
               let fresh =
                 Engine.query ~config:candidate ?budget ~mode ~use_cache:false eng sql
               in
               (bag cached.Exec.Executor.rows, bag fresh.Exec.Executor.rows)))
      with exn -> `Exn exn
    with
    | `R (Ok (a, b)) ->
        if a = b then Agree
        else
          Mismatch
            (Printf.sprintf "cached plan bag: %d rows vs fresh optimization %d rows"
               (List.length a) (List.length b))
    | `R (Error e) -> (
        match e.Engine.Errors.phase with
        | Budget | Fault -> Skipped (Engine.Errors.phase_to_string e.phase)
        | _ -> Failed (Engine.Errors.to_string e))
    | `Exn exn -> Failed ("untyped exception: " ^ Printexc.to_string exn)
  in
  match compare_on sql with
  | Agree -> compare_on (perturb_literals ~salt sql)
  | o -> o

let classify_spec (cfg : config) (eng : Engine.t) (spec : Qgen.spec) : outcome =
  let sql = Qgen.render spec in
  match cfg.fault with
  | None when cfg.cache ->
      Engine.enable_cache eng;
      classify_cache ?budget:cfg.budget ~mode:cfg.exec_mode ~candidate:cfg.candidate
        ~salt:(cfg.seed + Hashtbl.hash sql) eng sql
  | None ->
      classify ?budget:cfg.budget ~mode:cfg.exec_mode ~candidate:cfg.candidate
        ~property_check:cfg.property_check eng sql
  | Some fspec -> classify_fault ?budget:cfg.budget ~fspec eng sql

let is_failure = function Mismatch _ | Failed _ -> true | Agree | Skipped _ -> false

let run_case (cfg : config) (eng : Engine.t) ~(case : int) : case_result =
  let spec = Qgen.spec_of ~seed:cfg.seed ~case in
  let sql = Qgen.render spec in
  let outcome = classify_spec cfg eng spec in
  let minimized =
    if is_failure outcome && cfg.shrink then begin
      let still_failing s = is_failure (classify_spec cfg eng s) in
      let small = Qgen.minimize still_failing spec in
      let msql = Qgen.render small in
      if msql = sql then None else Some msql
    end
    else None
  in
  { seed = cfg.seed; case; sql; outcome; minimized }

let outcome_label = function
  | Agree -> "agree"
  | Mismatch _ -> "MISMATCH"
  | Skipped s -> "skipped (" ^ s ^ ")"
  | Failed _ -> "FAILED"

let format_case (r : case_result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "[%d:%d] %s\n  %s\n" r.seed r.case (outcome_label r.outcome) r.sql);
  (match r.outcome with
  | Mismatch d | Failed d -> Buffer.add_string b ("  " ^ d ^ "\n")
  | _ -> ());
  (match r.minimized with
  | Some m ->
      Buffer.add_string b
        (Printf.sprintf "  minimized: %s\n  replay: fuzz %d --case %d\n" m r.seed r.case)
  | None ->
      if is_failure r.outcome then
        Buffer.add_string b (Printf.sprintf "  replay: fuzz %d --case %d\n" r.seed r.case));
  Buffer.contents b

(* Run the configured sweep.  [on_case] observes each result as it
   lands (progress reporting); the summary aggregates at the end. *)
let run ?(on_case = fun (_ : case_result) -> ()) (cfg : config) (eng : Engine.t) : summary =
  let cases =
    match cfg.only_case with
    | Some c -> [ c ]
    | None -> List.init cfg.cases (fun i -> i)
  in
  let agreed = ref 0 and skipped = ref 0 and failures = ref [] in
  List.iter
    (fun case ->
      let r = run_case cfg eng ~case in
      (match r.outcome with
      | Agree -> incr agreed
      | Skipped _ -> incr skipped
      | Mismatch _ | Failed _ -> failures := r :: !failures);
      on_case r)
    cases;
  { total = List.length cases;
    agreed = !agreed;
    skipped = !skipped;
    failures = List.rev !failures;
  }

let format_summary (s : summary) : string =
  Printf.sprintf "%d cases: %d agree, %d skipped, %d failures" s.total s.agreed s.skipped
    (List.length s.failures)
