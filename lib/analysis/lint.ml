(* Plan linter: a bottom-up static pass over final (optimized) plans.

   Each check is a sound consequence of facts the optimizer itself
   derives, read from their one implementation: the properties and
   row-local equalities and constants of [Relalg.Fd], the predicate
   verdict of [Relalg.Props], the column demand of
   [Normalize.Prune.demand] and the column classes of [Col.classes].
   When a finding fires, the reported fact is true of the plan, not a
   heuristic guess.  Severities:

   ERROR    the plan computes something statically nonsensical; the
            binder and the rewrite rules never produce it, so an ERROR
            on an optimized plan is a bug in the pipeline (the fuzzer
            treats it as a failure).
   WARNING  the plan is correct but leaves provable work on the table
            (simplifiable outerjoin, redundant GroupBy, contradictory
            filter) or violates a configuration expectation (residual
            Apply after full decorrelation).
   INFO     worth a look, routinely benign (dead columns, elidable
            Max1row, tautological conjunct). *)

open Relalg
open Relalg.Algebra

type severity = Error | Warning | Info

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let severity_label = function Error -> "ERROR" | Warning -> "WARNING" | Info -> "INFO"

type finding = {
  severity : severity;
  code : string;  (** stable kebab-case identifier of the check *)
  node : string;  (** one-line label of the operator it anchors to *)
  detail : string;
}

(* What the optimizer configuration promises about the plan shape. *)
type expectations = {
  no_residual_apply : bool;
      (** decorrelation on, correlated execution off: any Apply left in
          the plan is a decorrelation gap *)
  no_residual_segment_apply : bool;
}

let relaxed = { no_residual_apply = false; no_residual_segment_apply = false }

let of_config (cfg : Optimizer.Config.t) =
  { no_residual_apply = cfg.decorrelate && not cfg.correlated_exec;
    no_residual_segment_apply = cfg.decorrelate && not cfg.segment_apply;
  }

(* ------------------------------------------------------------------ *)

(* Static type of a scalar expression, where determinable without
   context.  Int and Float are mutually comparable (the executor
   compares them numerically); every other type only matches itself. *)
let static_ty (e : expr) : Value.ty option =
  match e with ColRef c -> Some c.Col.ty | Const v -> Value.type_of v | _ -> None

let tys_comparable (a : Value.ty) (b : Value.ty) =
  match (a, b) with
  | Value.TInt, Value.TFloat | Value.TFloat, Value.TInt -> true
  | _ -> a = b

(* every comparison in [e] whose operand types can never match: such a
   comparison is FALSE or NULL on every row *)
let rec cross_type_cmps (e : expr) : (Value.ty * Value.ty) list =
  let sub = List.concat_map cross_type_cmps in
  match e with
  | Cmp (_, a, b) ->
      let here =
        match (static_ty a, static_ty b) with
        | Some ta, Some tb when not (tys_comparable ta tb) -> [ (ta, tb) ]
        | _ -> []
      in
      here @ sub [ a; b ]
  | Arith (_, a, b) | And (a, b) | Or (a, b) -> sub [ a; b ]
  | Not a | IsNull a | Like (a, _) -> sub [ a ]
  | Case (arms, els) ->
      sub (List.concat_map (fun (c, v) -> [ c; v ]) arms)
      @ (match els with Some e -> sub [ e ] | None -> [])
  | ColRef _ | Const _ -> []
  (* relational-valued scalar operators are binder output; the linter
     runs on optimized plans where they no longer occur *)
  | Subquery _ | Exists _ | InSub _ | QuantCmp _ -> []

let count_outerjoins (o : op) : int =
  let n = ref 0 in
  let rec walk o =
    (match o with
    | Join { kind = LeftOuter; _ } | Apply { kind = LeftOuter; _ } -> incr n
    | _ -> ());
    List.iter walk (Op.children o)
  in
  walk o;
  !n

(* The dead-column walk: top-down with the set of columns the context
   requires, by the column-pruning pass's own rule
   ({!Normalize.Prune.demand}), reporting instead of rewriting.
   Base-table scans are exempt: they are full-width by design (storage
   rows are never narrowed). *)
let dead_columns (root : op) : (string * Col.t list) list =
  let found = ref [] in
  let rec walk (required : Col.Set.t) (o : op) =
    List.iter2
      (fun child req ->
        let req = Col.Set.inter req (Op.schema_set child) in
        (match child with
        | TableScan _ | ConstTable _ | SegmentHole _ -> ()
        | _ -> (
            match List.filter (fun c -> not (Col.Set.mem c req)) (Op.schema child) with
            | [] -> ()
            | dead -> found := (Pp.label child, dead) :: !found));
        walk req child)
      (Op.children o)
      (Normalize.Prune.demand o required)
  in
  walk (Op.schema_set root) root;
  List.rev !found

(* ------------------------------------------------------------------ *)

let run ?(expect = relaxed) ~(env : Props.env) (plan : op) : finding list =
  let findings = ref [] in
  let add severity code node detail =
    findings := { severity; code; node; detail } :: !findings
  in
  (* per-node checks, bottom-up; the walk folds the property analysis
     ({!Fd.step}) and the row-local equalities and constants
     ({!Fd.eq_step}), so each node is analysed once and every check
     reads its node's and children's results *)
  let rec walk (o : op) : Fd.t * Fd.eqs =
    let kids, kid_eqs = List.split (List.map walk (Op.children o)) in
    let fd = Fd.step ~env o kids in
    let label = Pp.label o in
    (* 0. contradictory cardinality interval: lo > hi means the node can
       never execute successfully — today this arises exactly when a
       Max1row guard sits over an input proven to hold two or more rows,
       so the plan is statically guaranteed to raise *)
    (if Fd.contradiction fd then
       add Error "contradictory-interval" label
         (Printf.sprintf
            "inferred cardinality %s is contradictory: this operator always fails"
            (Fd.interval_to_string fd.Fd.card)));
    (* 1. comparisons whose operand types can never match *)
    List.iter
      (fun e ->
        List.iter
          (fun (ta, tb) ->
            add Error "cross-type-cmp" label
              (Printf.sprintf
                 "comparison between %s and %s is FALSE or NULL on every row"
                 (Value.ty_name ta) (Value.ty_name tb)))
          (cross_type_cmps e))
      (Op.local_exprs o);
    (* 2/3. predicate verdicts on filtering operators, over the facts
       of all their inputs *)
    let pred_checks pred =
      let nonnull =
        List.fold_left
          (fun acc (i : Fd.t) -> Col.Set.union acc i.nonnull)
          Col.Set.empty kids
      in
      let consts =
        List.fold_left
          (fun acc (e : Fd.eqs) -> Col.IdMap.union (fun _ v _ -> Some v) acc e.consts)
          Col.IdMap.empty kid_eqs
      in
      match Props.pred_verdict ~nonnull ~consts pred with
      | Props.Contradiction ->
          add Warning "contradictory-pred" label
            (Printf.sprintf "predicate %s is never satisfied: the operator %s"
               (Expr.to_string pred)
               (match o with
               | Join { kind = LeftOuter; _ } | Apply { kind = LeftOuter; _ } ->
                   "pads every outer row"
               | Join { kind = Anti; _ } | Apply { kind = Anti; _ } ->
                   "passes every left row"
               | _ -> "produces no rows"))
      | Props.Tautology ->
          if not (is_true_const pred) then
            add Info "tautological-pred" label
              (Printf.sprintf "predicate %s is true on every row" (Expr.to_string pred))
      | Props.Unknown -> ()
    in
    (match o with
    | Select (p, _) -> pred_checks p
    | Join { pred; _ } | Apply { pred; _ } ->
        (* the predicate is evaluated against raw left x right pairs,
           before any outer padding, so both sides' properties apply *)
        if not (is_true_const pred) then pred_checks pred
    | _ -> ());
    (* 4. residual correlated operators *)
    (match o with
    | Apply _ ->
        let sev = if expect.no_residual_apply then Warning else Info in
        add sev "residual-apply" label
          (if expect.no_residual_apply then
             "Apply survived in a plan configured for full decorrelation"
           else "plan re-executes the inner expression per outer row")
    | SegmentApply _ when expect.no_residual_segment_apply ->
        add Warning "residual-segment-apply" label
          "SegmentApply survived although segmented execution is disabled"
    | _ -> ());
    (* 5. GroupBy whose groups are provably singletons: the grouping
       columns determine a key of the input.  The FD-closure derivation
       also yields the proving chain for the diagnostic; when it fails,
       the grouping set is widened by the input's per-row equalities and
       constants (which hold through an Apply's inner side, where [Fd]
       keeps no dependencies) and tested again. *)
    (match (o, kids, kid_eqs) with
    | GroupBy { keys; input; _ }, [ fd ], [ eqs ] -> (
        let kset = Col.Set.of_list keys in
        match Fd.cover_chain fd kset with
        | Some (unique, chain) ->
            add Warning "redundant-groupby" label
              (Printf.sprintf
                 "grouping columns %s determine key %s%s: every group has exactly one row"
                 (Fd.cols_to_string kset)
                 (if Col.Set.is_empty unique then "{} (input has at most one row)"
                  else Fd.cols_to_string unique)
                 (match chain with
                 | [] -> ""
                 | fds ->
                     " via " ^ String.concat ", " (List.map Fd.fd_to_string fds)))
        | None ->
            let equated =
              List.fold_left
                (fun acc cls -> if Col.Set.disjoint cls acc then acc else Col.Set.union cls acc)
                kset (Col.classes eqs.equal)
            in
            let covered =
              Col.Set.union equated
                (Col.Set.filter (fun c -> Col.IdMap.mem c.id eqs.consts) (Op.schema_set input))
            in
            if Fd.covers_key fd covered then
              add Warning "redundant-groupby" label
                "grouping columns cover a key of the input: every group has exactly one row")
    | _ -> ());
    (* 6. Max1row over a provably single-row input *)
    (match (o, kids) with
    | Max1row _, [ ki ] ->
        if Fd.max_one ki then
          add Info "max1row-elidable" label
            (Printf.sprintf
               "input provably has at most one row (card %s); the guard can be elided"
               (Fd.interval_to_string ki.Fd.card))
    | _ -> ());
    (fd, Fd.eq_step o kid_eqs)
  in
  ignore (walk plan);
  (* whole-plan checks *)
  let before = count_outerjoins plan in
  if before > 0 then begin
    let after = count_outerjoins (Normalize.Oj_simplify.simplify plan) in
    if after < before then
      add Warning "oj-simplifiable" "plan"
        (Printf.sprintf
           "%d of %d outerjoin(s) provably reject NULL downstream and can run as inner joins"
           (before - after) before)
  end;
  List.iter
    (fun (node, dead) ->
      add Info "dead-columns" node
        (Printf.sprintf "computes %s never used above"
           (Pp.cols_to_string dead)))
    (dead_columns plan);
  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> compare a.code b.code
      | n -> n)
    (List.rev !findings)

let errors fs = List.filter (fun f -> f.severity = Error) fs

let finding_to_string (f : finding) : string =
  Printf.sprintf "%-7s %-22s at %s: %s" (severity_label f.severity) f.code f.node
    f.detail

let render (fs : finding list) : string =
  match fs with
  | [] -> "clean\n"
  | fs -> String.concat "" (List.map (fun f -> finding_to_string f ^ "\n") fs)

(* a one-line summary: "clean" or "2 WARNING (code, code), 1 INFO (code)" *)
let summary (fs : finding list) : string =
  if fs = [] then "clean"
  else
    let bucket sev =
      let codes =
        List.sort_uniq compare
          (List.filter_map (fun f -> if f.severity = sev then Some f.code else None) fs)
      in
      let n = List.length (List.filter (fun f -> f.severity = sev) fs) in
      if n = 0 then None
      else
        Some
          (Printf.sprintf "%d %s (%s)" n (severity_label sev) (String.concat ", " codes))
    in
    String.concat ", " (List.filter_map bucket [ Error; Warning; Info ])

let to_json (fs : finding list) : string =
  let item f =
    Printf.sprintf "{\"severity\":%s,\"code\":%s,\"node\":%s,\"detail\":%s}"
      (Json.string (severity_label f.severity))
      (Json.string f.code)
      (Json.string f.node)
      (Json.string f.detail)
  in
  "[" ^ String.concat "," (List.map item fs) ^ "]"
