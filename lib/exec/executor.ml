(* The execution engine.

   A materializing interpreter over logical operator trees.  It executes
   every stage of the compilation pipeline:

   - the binder's output, where scalar expressions still contain
     relational children — executed with the mutual recursion between
     scalar and relational evaluation described in Section 2.1;
   - Apply trees — executed as correlated nested loops, with an
     index-lookup fast path when the inner expression is a filtered
     scan whose equality column has a hash index (the "simplest and
     most common" correlated execution of Section 4);
   - fully decorrelated trees — joins execute as hash joins when the
     predicate has equi-conjuncts, aggregations as hash aggregates.

   This makes the interpreter the single semantic baseline: tests
   compare results across pipeline stages to validate every rewrite. *)

open Relalg
open Relalg.Algebra

exception Runtime_error of string

type row = Value.t array

(* Correlation environment: column id -> value.  Extended per outer row
   by Apply and by scalar-subquery evaluation. *)
type lookup = int -> Value.t option

let empty_lookup : lookup = fun _ -> None

type ctx = {
  db : Storage.Database.t;
  mutable seg : (Col.t list * row list) option;
      (** current SegmentApply segment: outer layout and segment rows *)
  mutable apply_invocations : int;  (** statistics for tests/benches *)
  mutable rows_processed : int;
  mutable apply_batches : int;  (** vector mode: batched-Apply outer batches *)
  mutable apply_bindings : int;  (** vector mode: distinct parameter sets evaluated *)
  mutable apply_dedup_hits : int;
      (** vector mode: outer rows that reused an evaluated binding *)
  budget : Budget.t option;  (** cooperative resource limits *)
  faults : Faults.t option;  (** fault-injection plan (tests/harness) *)
  started : float;  (** Unix time at context creation, for timeouts *)
  metrics : Metrics.t option;  (** per-operator metrics tree (EXPLAIN ANALYZE) *)
  mutable mnode : Metrics.node option;
      (** metrics node of the operator currently being evaluated *)
  pos_cache : (int, int) Hashtbl.t Metrics.PhysTbl.t;
      (** schema position tables, memoized per plan node *)
  probe_cache : (lookup -> row list) option Metrics.PhysTbl.t;
      (** Apply index fast paths, memoized per inner tree *)
  mutable cse : (string -> row list) option;
      (** resolver for [CseScan] ids, installed by the engine when a
          CSE store is active; plans containing [CseScan] fail without
          one *)
}

let make_ctx ?budget ?faults ?metrics db =
  let budget = match budget with Some b when Budget.is_unlimited b -> None | b -> b in
  { db;
    seg = None;
    apply_invocations = 0;
    rows_processed = 0;
    apply_batches = 0;
    apply_bindings = 0;
    apply_dedup_hits = 0;
    budget;
    faults;
    started = Unix.gettimeofday ();
    metrics;
    mnode = None;
    pos_cache = Metrics.PhysTbl.create 64;
    probe_cache = Metrics.PhysTbl.create 16;
    cse = None;
  }

(* Cooperative budget check — called wherever the counters advance and
   at every operator evaluation (which bounds timeout drift). *)
let check_budget (ctx : ctx) =
  match ctx.budget with
  | None -> ()
  | Some b ->
      Budget.check b ~started:ctx.started ~rows_processed:ctx.rows_processed
        ~apply_invocations:ctx.apply_invocations

(* Every operator accounts the rows it consumes (TableScan: the rows it
   produces) and re-checks the budget, so [max_rows] trips no matter
   which operator the bulk of the work hides in. *)
let account_rows (ctx : ctx) (n : int) =
  ctx.rows_processed <- ctx.rows_processed + n;
  check_budget ctx

let note_rows_in (ctx : ctx) (n : int) =
  match ctx.mnode with None -> () | Some node -> Metrics.add_rows_in node n

(* Max1row's runtime error, raised by both engines. *)
let max1row_violation () =
  raise (Runtime_error "subquery returned more than one row (Max1row)")

let op_fault_kind : op -> Faults.op_kind = function
  | TableScan _ | CseScan _ -> Faults.Scan
  | ConstTable _ -> Faults.ConstTable
  | SegmentHole _ -> Faults.SegmentHole
  | Select _ -> Faults.Select
  | Project _ -> Faults.Project
  | Join _ -> Faults.Join
  | Apply _ -> Faults.Apply
  | SegmentApply _ -> Faults.SegmentApply
  | GroupBy _ | LocalGroupBy _ -> Faults.GroupBy
  | ScalarAgg _ -> Faults.ScalarAgg
  | UnionAll _ -> Faults.UnionAll
  | Except _ -> Faults.Except
  | Max1row _ -> Faults.Max1row
  | Rownum _ -> Faults.Rownum

(* position map for a schema *)
let positions (schema : Col.t list) : (int, int) Hashtbl.t =
  let h = Hashtbl.create (List.length schema * 2) in
  List.iteri (fun i (c : Col.t) -> if not (Hashtbl.mem h c.id) then Hashtbl.add h c.id i) schema;
  h

(* Memoized [positions (Op.schema o)] keyed on physical node identity.
   Apply re-executes its inner tree once per outer row; rebuilding the
   schema position tables of every inner operator on every invocation
   dominated the correlated slow path. *)
let pos_of (ctx : ctx) (o : op) : (int, int) Hashtbl.t =
  match Metrics.PhysTbl.find_opt ctx.pos_cache o with
  | Some h -> h
  | None ->
      let h = positions (Op.schema o) in
      Metrics.PhysTbl.replace ctx.pos_cache o h;
      h

let row_lookup (pos : (int, int) Hashtbl.t) (r : row) (outer : lookup) : lookup =
 fun id ->
  match Hashtbl.find_opt pos id with
  | Some i -> Some r.(i)
  | None -> outer id

let rows_lookup (pos1 : (int, int) Hashtbl.t) (r1 : row) (pos2 : (int, int) Hashtbl.t)
    (r2 : row) (outer : lookup) : lookup =
 fun id ->
  match Hashtbl.find_opt pos1 id with
  | Some i -> Some r1.(i)
  | None -> (
      match Hashtbl.find_opt pos2 id with Some i -> Some r2.(i) | None -> outer id)

(* ------------------------------------------------------------------ *)
(* Grouping keys: hashtable over value lists                          *)
(* ------------------------------------------------------------------ *)

module VKey = struct
  type t = Value.t list

  let equal a b = try List.for_all2 Value.equal a b with Invalid_argument _ -> false
  let hash l = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 l
end

module VTbl = Hashtbl.Make (VKey)

(* ------------------------------------------------------------------ *)
(* Aggregate accumulation                                             *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable count : int;  (** non-null inputs seen (or rows, for count-star) *)
  mutable sum : Value.t;
  mutable min_ : Value.t;
  mutable max_ : Value.t;
}

let fresh_acc () = { count = 0; sum = Value.Null; min_ = Value.Null; max_ = Value.Null }

let acc_add (a : acc) (v : Value.t) =
  if not (Value.is_null v) then begin
    a.count <- a.count + 1;
    a.sum <- (if Value.is_null a.sum then v else Value.arith `Add a.sum v);
    a.min_ <- (if Value.is_null a.min_ || Value.compare v a.min_ < 0 then v else a.min_);
    a.max_ <- (if Value.is_null a.max_ || Value.compare v a.max_ > 0 then v else a.max_)
  end

let acc_result (fn : agg_fn) (a : acc) : Value.t =
  match fn with
  | CountStar | Count _ -> Value.Int a.count
  | Sum _ -> a.sum
  | Min _ -> a.min_
  | Max _ -> a.max_
  | Avg _ ->
      if a.count = 0 then Value.Null
      else Value.arith `Div a.sum (Value.Int a.count)

(* ------------------------------------------------------------------ *)
(* Scalar evaluation (3VL) — mutually recursive with [run]            *)
(* ------------------------------------------------------------------ *)

let rec eval (ctx : ctx) (env : lookup) (e : expr) : Value.t =
  match e with
  | ColRef c -> (
      match env c.id with
      | Some v -> v
      | None -> raise (Runtime_error (Printf.sprintf "unbound column %s#%d" c.name c.id)))
  | Const v -> v
  | Arith (op, a, b) ->
      let va = eval ctx env a and vb = eval ctx env b in
      Value.arith (arith_op op) va vb
  | Cmp (op, a, b) -> (
      match Value.cmp_sql (eval ctx env a) (eval ctx env b) with
      | None -> Value.Null
      | Some c -> Value.Bool (cmp_holds op c))
  (* Kleene AND/OR over {TRUE, FALSE, UNKNOWN}; like [Not], any other
     operand type is a runtime type error (a FALSE/TRUE left operand
     still short-circuits without evaluating the right). *)
  | And (a, b) -> (
      match eval ctx env a with
      | Value.Bool false -> Value.Bool false
      | (Value.Bool true | Value.Null) as va -> (
          match eval ctx env b with
          | Value.Bool false -> Value.Bool false
          | Value.Bool true -> va
          | Value.Null -> Value.Null
          | v -> raise (Runtime_error ("AND applied to non-boolean " ^ Value.to_string v)))
      | v -> raise (Runtime_error ("AND applied to non-boolean " ^ Value.to_string v)))
  | Or (a, b) -> (
      match eval ctx env a with
      | Value.Bool true -> Value.Bool true
      | (Value.Bool false | Value.Null) as va -> (
          match eval ctx env b with
          | Value.Bool true -> Value.Bool true
          | Value.Bool false -> va
          | Value.Null -> Value.Null
          | v -> raise (Runtime_error ("OR applied to non-boolean " ^ Value.to_string v)))
      | v -> raise (Runtime_error ("OR applied to non-boolean " ^ Value.to_string v)))
  | Not a -> (
      match eval ctx env a with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Null
      | v -> raise (Runtime_error ("NOT applied to non-boolean " ^ Value.to_string v)))
  | IsNull a -> Value.Bool (Value.is_null (eval ctx env a))
  | Like (a, pattern) -> (
      match eval ctx env a with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Bool (Like.matches ~pattern s)
      | v -> raise (Runtime_error ("LIKE applied to non-string " ^ Value.to_string v)))
  | Case (branches, els) ->
      let rec go = function
        | [] -> ( match els with Some e -> eval ctx env e | None -> Value.Null)
        | (c, v) :: rest -> (
            match eval ctx env c with Value.Bool true -> eval ctx env v | _ -> go rest)
      in
      go branches
  | Subquery q -> (
      (* mutual recursion: scalar evaluation calls back into the
         relational engine (Section 2.1) *)
      match run ctx env q with
      | [] -> Value.Null
      | [ r ] ->
          if Array.length r <> 1 then
            raise (Runtime_error "scalar subquery must return one column");
          r.(0)
      | _ -> raise (Runtime_error "scalar subquery returned more than one row"))
  | Exists q -> Value.Bool (run ctx env q <> [])
  | InSub (a, q) -> eval ctx env (QuantCmp (Eq, Any, a, q))
  | QuantCmp (op, quant, a, q) ->
      let va = eval ctx env a in
      let rows = run ctx env q in
      let results =
        List.map
          (fun (r : row) ->
            if Array.length r <> 1 then
              raise (Runtime_error "quantified subquery must return one column");
            match Value.cmp_sql va r.(0) with
            | None -> Value.Null
            | Some c -> Value.Bool (cmp_holds op c))
          rows
      in
      (match quant with
      | Any ->
          if List.exists (fun v -> v = Value.Bool true) results then Value.Bool true
          else if List.exists Value.is_null results then Value.Null
          else Value.Bool false
      | All ->
          if List.exists (fun v -> v = Value.Bool false) results then Value.Bool false
          else if List.exists Value.is_null results then Value.Null
          else Value.Bool true)

and eval_pred ctx env e = eval ctx env e = Value.Bool true

(* ------------------------------------------------------------------ *)
(* Relational execution                                               *)
(* ------------------------------------------------------------------ *)

and run (ctx : ctx) (env : lookup) (o : op) : row list =
  (match ctx.faults with None -> () | Some f -> Faults.tick f (op_fault_kind o));
  check_budget ctx;
  match ctx.metrics with
  | None -> run_node ctx env o
  | Some m -> (
      match Metrics.find m o with
      | None -> run_node ctx env o
      | Some node ->
          let saved = ctx.mnode in
          ctx.mnode <- Some node;
          let t0 = Unix.gettimeofday () in
          let out =
            try run_node ctx env o
            with e ->
              ctx.mnode <- saved;
              Metrics.record node ~elapsed_s:(Unix.gettimeofday () -. t0) ~rows_out:0;
              raise e
          in
          ctx.mnode <- saved;
          Metrics.record node
            ~elapsed_s:(Unix.gettimeofday () -. t0)
            ~rows_out:(List.length out);
          out)

and run_node (ctx : ctx) (env : lookup) (o : op) : row list =
  match o with
  | TableScan { table; _ } ->
      let tb = Storage.Database.table ctx.db table in
      let rows, n = Storage.Table.rows_view tb in
      let out = ref [] in
      for i = n - 1 downto 0 do
        out := rows.(i) :: !out
      done;
      account_rows ctx n;
      !out
  | ConstTable { rows; _ } -> rows
  | CseScan { id; _ } -> (
      match ctx.cse with
      | None -> raise (Runtime_error ("CseScan without a CSE store: " ^ id))
      | Some fetch ->
          let rows = fetch id in
          account_rows ctx (List.length rows);
          rows)
  | SegmentHole { src; _ } -> (
      match ctx.seg with
      | None -> raise (Runtime_error "SegmentHole outside SegmentApply")
      | Some (layout, rows) ->
          let pos = positions layout in
          let idx =
            List.map
              (fun (c : Col.t) ->
                match Hashtbl.find_opt pos c.id with
                | Some i -> i
                | None -> raise (Runtime_error ("segment source column missing: " ^ c.name)))
              src
          in
          List.map (fun r -> Array.of_list (List.map (fun i -> r.(i)) idx)) rows)
  | Select (p, i) ->
      let child = run ctx env i in
      let n = List.length child in
      account_rows ctx n;
      note_rows_in ctx n;
      let pos = pos_of ctx i in
      List.filter (fun r -> eval_pred ctx (row_lookup pos r env) p) child
  | Project (projs, i) ->
      let child = run ctx env i in
      let n = List.length child in
      account_rows ctx n;
      note_rows_in ctx n;
      let pos = pos_of ctx i in
      List.map
        (fun r ->
          let l = row_lookup pos r env in
          Array.of_list (List.map (fun p -> eval ctx l p.expr) projs))
        child
  | Join { kind; pred; left; right } -> exec_join ctx env kind pred left right
  | Apply { kind; pred; left; right } -> exec_apply ctx env kind pred left right
  | SegmentApply { seg_cols; outer; inner } -> exec_segment_apply ctx env seg_cols outer inner
  | GroupBy { keys; aggs; input } | LocalGroupBy { keys; aggs; input } ->
      exec_group_by ctx env keys aggs input
  | ScalarAgg { aggs; input } ->
      let child = run ctx env input in
      let n = List.length child in
      account_rows ctx n;
      note_rows_in ctx n;
      let pos = pos_of ctx input in
      let accs = List.map (fun _ -> fresh_acc ()) aggs in
      List.iter
        (fun r ->
          let l = row_lookup pos r env in
          List.iter2
            (fun (a : agg) acc ->
              match agg_input_expr a.fn with
              | None -> acc.count <- acc.count + 1
              | Some e -> acc_add acc (eval ctx l e))
            aggs accs)
        child;
      if child = [] then [ Array.of_list (List.map (fun (a : agg) -> agg_on_empty a.fn) aggs) ]
      else [ Array.of_list (List.map2 (fun (a : agg) acc -> acc_result a.fn acc) aggs accs) ]
  | UnionAll (l, r) ->
      let lrows = run ctx env l in
      let rrows = run ctx env r in
      let n = List.length lrows + List.length rrows in
      account_rows ctx n;
      note_rows_in ctx n;
      lrows @ rrows
  | Except (l, r) ->
      (* bag difference: remove one left occurrence per right occurrence *)
      let rrows = run ctx env r in
      account_rows ctx (List.length rrows);
      let counts = VTbl.create 64 in
      List.iter
        (fun (r : row) ->
          let k = Array.to_list r in
          VTbl.replace counts k (1 + try VTbl.find counts k with Not_found -> 0))
        rrows;
      let lrows = run ctx env l in
      account_rows ctx (List.length lrows);
      note_rows_in ctx (List.length lrows + List.length rrows);
      List.filter
        (fun (r : row) ->
          let k = Array.to_list r in
          match VTbl.find_opt counts k with
          | Some n when n > 0 ->
              VTbl.replace counts k (n - 1);
              false
          | _ -> true)
        lrows
  | Max1row i -> (
      match run ctx env i with _ :: _ :: _ -> max1row_violation () | rows -> rows)
  | Rownum { input; _ } ->
      let child = run ctx env input in
      let n = List.length child in
      account_rows ctx n;
      note_rows_in ctx n;
      List.mapi (fun i r -> Array.append r [| Value.Int (i + 1) |]) child

(* --- hash aggregation ------------------------------------------------ *)

and exec_group_by ctx env (keys : Col.t list) (aggs : agg list) (input : op) : row list =
  let mnode = ctx.mnode in
  let child = run ctx env input in
  let n = List.length child in
  account_rows ctx n;
  note_rows_in ctx n;
  let pos = pos_of ctx input in
  let key_idx =
    List.map
      (fun (c : Col.t) ->
        match Hashtbl.find_opt pos c.id with
        | Some i -> i
        | None -> raise (Runtime_error ("grouping column missing: " ^ c.name)))
      keys
  in
  let groups = VTbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (r : row) ->
      let k = List.map (fun i -> r.(i)) key_idx in
      let accs =
        match VTbl.find_opt groups k with
        | Some accs -> accs
        | None ->
            let accs = List.map (fun _ -> fresh_acc ()) aggs in
            VTbl.add groups k accs;
            order := k :: !order;
            accs
      in
      let l = row_lookup pos r env in
      List.iter2
        (fun (a : agg) acc ->
          match agg_input_expr a.fn with
          | None -> acc.count <- acc.count + 1
          | Some e -> acc_add acc (eval ctx l e))
        aggs accs)
    child;
  (match mnode with
  | Some node -> Metrics.add_hash_build node (VTbl.length groups)
  | None -> ());
  List.rev_map
    (fun k ->
      let accs = VTbl.find groups k in
      Array.of_list (k @ List.map2 (fun (a : agg) acc -> acc_result a.fn acc) aggs accs))
    !order

(* --- joins ---------------------------------------------------------- *)

and split_equi_conjuncts pred (lcols : Col.Set.t) (rcols : Col.Set.t) =
  let conj = conjuncts pred in
  let is_subset e s = Col.Set.subset (Expr.cols e) s in
  let equi, residual =
    List.partition_map
      (fun c ->
        match c with
        | Cmp (Eq, a, b) when is_subset a lcols && is_subset b rcols -> Left (a, b)
        | Cmp (Eq, a, b) when is_subset b lcols && is_subset a rcols -> Left (b, a)
        | c -> Right c)
      conj
  in
  (equi, residual)

and exec_join ctx env kind pred left right =
  let mnode = ctx.mnode in
  let lrows = run ctx env left and rrows = run ctx env right in
  let lschema = Op.schema left and rschema = Op.schema right in
  let lpos = pos_of ctx left and rpos = pos_of ctx right in
  let lset = Col.Set.of_list lschema and rset = Col.Set.of_list rschema in
  let rarity = List.length rschema in
  let nin = List.length lrows + List.length rrows in
  account_rows ctx nin;
  note_rows_in ctx nin;
  let equi, residual = split_equi_conjuncts pred lset rset in
  let emit_combined l r = Array.append l r in
  let nulls = Array.make rarity Value.Null in
  if equi <> [] then begin
    (* hash join; NULL keys never match *)
    let res_pred = conj_list residual in
    let build = VTbl.create (List.length rrows * 2) in
    let built = ref 0 in
    List.iter
      (fun (r : row) ->
        let lk = row_lookup rpos r env in
        let key = List.map (fun (_, be) -> eval ctx lk be) equi in
        if not (List.exists Value.is_null key) then begin
          incr built;
          VTbl.replace build key (r :: (try VTbl.find build key with Not_found -> []))
        end)
      rrows;
    (match mnode with Some node -> Metrics.add_hash_build node !built | None -> ());
    let out = ref [] in
    List.iter
      (fun (l : row) ->
        let llk = row_lookup lpos l env in
        let key = List.map (fun (ae, _) -> eval ctx llk ae) equi in
        let matches =
          if List.exists Value.is_null key then []
          else
            match VTbl.find_opt build key with
            | None -> []
            | Some cand ->
                List.filter
                  (fun r -> eval_pred ctx (rows_lookup lpos l rpos r env) res_pred)
                  cand
        in
        match kind with
        | Inner -> List.iter (fun r -> out := emit_combined l r :: !out) matches
        | LeftOuter ->
            if matches = [] then out := emit_combined l nulls :: !out
            else List.iter (fun r -> out := emit_combined l r :: !out) matches
        | Semi -> if matches <> [] then out := l :: !out
        | Anti -> if matches = [] then out := l :: !out)
      lrows;
    List.rev !out
  end
  else begin
    (* nested loops *)
    let out = ref [] in
    List.iter
      (fun (l : row) ->
        let matches =
          List.filter (fun r -> eval_pred ctx (rows_lookup lpos l rpos r env) pred) rrows
        in
        match kind with
        | Inner -> List.iter (fun r -> out := emit_combined l r :: !out) matches
        | LeftOuter ->
            if matches = [] then out := emit_combined l nulls :: !out
            else List.iter (fun r -> out := emit_combined l r :: !out) matches
        | Semi -> if matches <> [] then out := l :: !out
        | Anti -> if matches = [] then out := l :: !out)
      lrows;
    List.rev !out
  end

(* --- Apply: correlated nested-loops execution ----------------------- *)

(* Index fast path: the inner tree is Select(p, TableScan t) (possibly
   under a Project) where p contains an equality between an indexed
   column of t and an expression over outer columns only. *)
and index_eq_pick tb (conj : expr list) (cols : Col.t list) :
    (Col.t * expr * expr) option =
  let scan_set = Col.Set.of_list cols in
  let indexed (c : Col.t) = Storage.Table.find_index tb c.Col.name <> None in
  List.find_map
    (fun cj ->
      let ok c e =
        List.exists (Col.equal c) cols
        && Col.Set.is_empty (Col.Set.inter (Expr.cols e) scan_set)
        && indexed c
      in
      match cj with
      | Cmp (Eq, ColRef c, e) when ok c e -> Some (c, e, cj)
      | Cmp (Eq, e, ColRef c) when ok c e -> Some (c, e, cj)
      | _ -> None)
    conj

and index_probe_path ctx (right : op) :
    (lookup -> row list) option =
  let try_scan pred table cols =
    let tb = Storage.Database.table ctx.db table in
    let conj = conjuncts pred in
    match index_eq_pick tb conj cols with
    | None -> None
    | Some (c, probe_expr, used) ->
        let ix = Option.get (Storage.Table.find_index tb c.Col.name) in
        let residual = conj_list (List.filter (fun x -> x != used) conj) in
        let pos = positions cols in
        Some
          (fun (env : lookup) ->
            let v = eval ctx env probe_expr in
            if Value.is_null v then []
            else
              let cand = Storage.Table.index_lookup ix tb v in
              List.filter (fun r -> eval_pred ctx (row_lookup pos r env) residual) cand)
  in
  match right with
  | Select (p, TableScan { table; cols }) -> try_scan p table cols
  | Project (projs, Select (p, TableScan { table; cols })) -> (
      match try_scan p table cols with
      | None -> None
      | Some f ->
          let pos = positions cols in
          Some
            (fun env ->
              List.map
                (fun r ->
                  let l = row_lookup pos r env in
                  Array.of_list (List.map (fun pr -> eval ctx l pr.expr) projs))
                (f env)))
  | _ -> None

(* The index fast path is a pure function of the inner tree: detect it
   once per plan node, not once per Apply evaluation. *)
and probe_path ctx (right : op) : (lookup -> row list) option =
  match Metrics.PhysTbl.find_opt ctx.probe_cache right with
  | Some f -> f
  | None ->
      let f = index_probe_path ctx right in
      Metrics.PhysTbl.replace ctx.probe_cache right f;
      f

(* Parameterized inner-plan entry point: one evaluation of an Apply
   inner tree under a binding of its correlation parameters.  The
   vectorized engine's batched Apply calls this once per *distinct*
   parameter set; the budget/fault accounting matches one row-mode
   Apply iteration, so cooperative cancellation (deadlines, row and
   apply caps) keeps firing inside batched execution.  Returns the
   inner rows and whether the index fast path served them. *)
(* Existence variant of the index fast path: a Semi/Anti Apply under a
   constant-true predicate only needs to know whether ANY inner row
   matches, so the residual filter can stop at the first candidate that
   passes instead of materializing them all.  Early exit skips residual
   evaluations the materializing path would perform, so it is offered
   only when the residual cannot raise on one row but not another:
   subquery-bearing residuals (Max1row violations are data-dependent)
   are excluded, while comparisons/arithmetic are total by construction
   ([Value.cmp_sql]/[Value.arith]) and boolean/LIKE type errors depend
   only on column types, not row values.  A Project wrapper never
   changes emptiness and its projections are skipped entirely, so the
   same subquery-free condition applies to them. *)
and probe_exists_path ctx (right : op) : (lookup -> bool) option =
  let try_scan pred table cols =
    let tb = Storage.Database.table ctx.db table in
    let conj = conjuncts pred in
    match index_eq_pick tb conj cols with
    | None -> None
    | Some (c, probe_expr, used) ->
        let residual = conj_list (List.filter (fun x -> x != used) conj) in
        if Expr.has_subquery residual then None
        else
          let ix = Option.get (Storage.Table.find_index tb c.Col.name) in
          let pos = positions cols in
          Some
            (fun (env : lookup) ->
              let v = eval ctx env probe_expr in
              (not (Value.is_null v))
              && List.exists
                   (fun r -> eval_pred ctx (row_lookup pos r env) residual)
                   (Storage.Table.index_lookup ix tb v))
  in
  match right with
  | Select (p, TableScan { table; cols }) -> try_scan p table cols
  | Project (projs, Select (p, TableScan { table; cols }))
    when not (List.exists (fun (pr : proj) -> Expr.has_subquery pr.expr) projs)
    ->
      try_scan p table cols
  | _ -> None

and run_inner (ctx : ctx) (env : lookup) (right : op) : row list * bool =
  ctx.apply_invocations <- ctx.apply_invocations + 1;
  ctx.rows_processed <- ctx.rows_processed + 1;
  check_budget ctx;
  match probe_path ctx right with
  | Some f -> (f env, true)
  | None -> (run ctx env right, false)

and exec_apply ctx env kind pred left right =
  let mnode = ctx.mnode in
  let lrows = run ctx env left in
  note_rows_in ctx (List.length lrows);
  let rschema = Op.schema right in
  let lpos = pos_of ctx left and rpos = pos_of ctx right in
  let rarity = List.length rschema in
  let nulls = Array.make rarity Value.Null in
  let fast = probe_path ctx right in
  let out = ref [] in
  List.iter
    (fun (l : row) ->
      ctx.apply_invocations <- ctx.apply_invocations + 1;
      ctx.rows_processed <- ctx.rows_processed + 1;
      check_budget ctx;
      let lenv = row_lookup lpos l env in
      let rrows =
        match fast with
        | Some f ->
            (match mnode with Some node -> Metrics.add_fast_hit node | None -> ());
            f lenv
        | None -> run ctx lenv right
      in
      let matches =
        if is_true_const pred then rrows
        else List.filter (fun r -> eval_pred ctx (rows_lookup lpos l rpos r env) pred) rrows
      in
      match kind with
      | Inner -> List.iter (fun r -> out := Array.append l r :: !out) matches
      | LeftOuter ->
          if matches = [] then out := Array.append l nulls :: !out
          else List.iter (fun r -> out := Array.append l r :: !out) matches
      | Semi -> if matches <> [] then out := l :: !out
      | Anti -> if matches = [] then out := l :: !out)
    lrows;
  List.rev !out

(* --- SegmentApply ---------------------------------------------------- *)

and exec_segment_apply ctx env seg_cols outer inner =
  let orows = run ctx env outer in
  let n = List.length orows in
  account_rows ctx n;
  note_rows_in ctx n;
  let oschema = Op.schema outer in
  let opos = pos_of ctx outer in
  let seg_idx =
    List.map
      (fun (c : Col.t) ->
        match Hashtbl.find_opt opos c.id with
        | Some i -> i
        | None -> raise (Runtime_error ("segment column missing: " ^ c.name)))
      seg_cols
  in
  (* partition preserving first-seen order *)
  let order = ref [] in
  let parts = VTbl.create 64 in
  List.iter
    (fun (r : row) ->
      let k = List.map (fun i -> r.(i)) seg_idx in
      (match VTbl.find_opt parts k with
      | None ->
          order := k :: !order;
          VTbl.add parts k [ r ]
      | Some rs -> VTbl.replace parts k (r :: rs)))
    orows;
  let out = ref [] in
  List.iter
    (fun k ->
      let seg_rows = List.rev (VTbl.find parts k) in
      let saved = ctx.seg in
      ctx.seg <- Some (oschema, seg_rows);
      let inner_rows = run ctx env inner in
      ctx.seg <- saved;
      (* {a} × E(σ_{A=a} R): pair the segment key columns with each
         inner row.  The output schema is outer ++ inner, where the
         outer part carries the segment's defining values; columns of
         the outer not among seg_cols are NULL (they are not
         well-defined per segment and must not be referenced above). *)
      let proto = Array.make (List.length oschema) Value.Null in
      List.iteri (fun _ _ -> ()) seg_idx;
      List.iter2 (fun i v -> proto.(i) <- v) seg_idx k;
      List.iter (fun r -> out := Array.append proto r :: !out) inner_rows)
    (List.rev !order);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Sorting and top-level result production                            *)
(* ------------------------------------------------------------------ *)

type result = { col_names : string list; rows : row list }

let sort_rows (schema : Col.t list) (order : (Col.t * bool) list) (rows : row list) :
    row list =
  if order = [] then rows
  else begin
    let pos = positions schema in
    let keyed =
      List.map
        (fun ((c : Col.t), desc) ->
          match Hashtbl.find_opt pos c.id with
          | Some i -> (i, desc)
          | None -> raise (Runtime_error ("order-by column missing: " ^ c.name)))
        order
    in
    let cmp (a : row) (b : row) =
      let rec go = function
        | [] -> 0
        | (i, desc) :: rest ->
            let c = Value.compare a.(i) b.(i) in
            if c <> 0 then if desc then -c else c else go rest
      in
      go keyed
    in
    List.stable_sort cmp rows
  end

let truncate limit rows =
  match limit with
  | None -> rows
  | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | r :: rest -> r :: take (k - 1) rest
      in
      take n rows

(* Execute a query end to end: run, sort, limit, project away the hidden
   order-by columns ([outputs] lists the visible ones). *)
let run_query ?budget ?faults ?metrics (db : Storage.Database.t) ~(op : op)
    ~(outputs : (string * Col.t) list) ~(order : (Col.t * bool) list)
    ~(limit : int option) : result =
  let ctx = make_ctx ?budget ?faults ?metrics db in
  let rows = run ctx empty_lookup op in
  let schema = Op.schema op in
  let rows = sort_rows schema order rows in
  let rows = truncate limit rows in
  let visible = List.length outputs in
  let rows =
    if List.length schema > visible then List.map (fun r -> Array.sub r 0 visible) rows
    else rows
  in
  { col_names = List.map fst outputs; rows }
