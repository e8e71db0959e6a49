(* Batch-at-a-time columnar executor.

   Operators are pull sources ([unit -> Batch.t option]) compiled from
   the same logical trees the row interpreter runs.  Columns are typed
   (Storage.Column: unboxed int/float/string/date/bool arrays with a
   NULL bitmap, boxed only when a column mixes kinds), from the
   storage layer's columnar cache through scans, filters, projections,
   join and grouping keys and aggregates.  Scalar expressions evaluate
   column-wise with the row engine's exact semantics (3VL comparisons,
   Kleene AND/OR, NULL-strict arithmetic, [Value.compare]'s order
   across kinds) minus short-circuiting, which is observationally
   equivalent on type-correct plans; a kind combination without a
   typed kernel evaluates row by row over boxed values.

   Apply and SegmentApply execute natively as *batched nested
   iteration* (Guravannavar): collect an outer batch, deduplicate the
   correlation-parameter tuples (NULL-safe value hashing), and evaluate
   the inner plan once per distinct binding, by one of two access
   paths.  An inner that is a filtered scan ([Project] [ScalarAgg]
   Select(p, Scan t)) with an equality between a scan column and an
   outer-only expression runs natively on typed columns: the probe
   keys are evaluated over the distinct bindings, the candidate row
   positions come from the column's hash index (the row engine's
   index-lookup pick, {!Op.index_eq}; one consistent table view per
   probe) or, without an index, from one hash-probe pass over the
   table, and the residual filter, the aggregates (each binding's run
   is its group) and the projections run as column kernels over
   candidate batches that gather the table columns and each
   candidate's binding.  Any other inner, or one whose probe,
   residual, aggregates or projections hold a subquery, goes through
   the row engine's parameterized entry point ([Ex.run_inner]), where
   a filtered scan probes its own index.  The inner
   rows are paired back with the outer slots by gathers, slot-major
   with each binding's rows in index (table) order — the row engine's
   Apply output order — under each variant's bag semantics
   (cross/outer/semi/anti, SegmentApply's per-segment grouping).

   Every operator runs natively.  Max1row drains its child and raises
   the row engine's error on a second row; Rownum numbers rows across
   batch boundaries in emission order.  An operator expression with a
   relational child (scalar subquery, EXISTS, IN, quantified
   comparison) is evaluated row by row through the row engine's [eval]
   over a lookup into the batch, so its laziness (CASE branches,
   AND/OR) and its runtime errors match row mode exactly; every other
   expression evaluates column-wise.

   Budget accounting and fault injection run at batch granularity:
   every pull of every compiled operator ticks the operator's fault
   kind and re-checks the budget, so resource limits trip inside
   vectorized pipelines just as they do row by row. *)

module Batch = Batch
module Value = Relalg.Value
module Col = Relalg.Col
module Op = Relalg.Op
module Column = Storage.Column
module Ex = Exec.Executor
module Metrics = Exec.Metrics
open Relalg.Algebra

type source = unit -> Batch.t option

type vctx = {
  ctx : Ex.ctx;
  batch_size : int;
  mutable seg : (Col.t list * Batch.t) option;
      (** the current SegmentApply segment as a dense batch in the
          outer layout, read by SegmentHole *)
}

let runtime_error fmt = Printf.ksprintf (fun s -> raise (Ex.Runtime_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Column-wise scalar evaluation                                      *)
(* ------------------------------------------------------------------ *)

let positions (schema : Col.t list) : (int, int) Hashtbl.t =
  let h = Hashtbl.create (List.length schema * 2) in
  List.iteri
    (fun i (c : Col.t) -> if not (Hashtbl.mem h c.id) then Hashtbl.add h c.id i)
    schema;
  h

let kleene_and a b =
  match (a, b) with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | (Value.Bool _ | Value.Null), (Value.Bool _ | Value.Null) -> Value.Null
  | v, _ -> runtime_error "AND applied to non-boolean %s" (Value.to_string v)

let kleene_or a b =
  match (a, b) with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | (Value.Bool _ | Value.Null), (Value.Bool _ | Value.Null) -> Value.Null
  | v, _ -> runtime_error "OR applied to non-boolean %s" (Value.to_string v)

(* A kernel operand: a dense slot-indexed column, or a constant that is
   never broadcast into one. *)
type arg = C of Column.t | K of Value.t

let arg_get a i = match a with C c -> Column.get c i | K v -> v

(* The boxed fallback: evaluate row by row over [Value.t]. *)
let boxed n (f : int -> Value.t) : Column.t = Column.of_values (Array.init n f)

(* [m] plus every row where [p] holds (a fresh bitmap: [m] may be
   shared with an input column). *)
let nulls_where n (m : Column.nulls) (p : int -> bool) : Column.nulls =
  let out = ref m and fresh = ref false in
  for i = 0 to n - 1 do
    if p i then begin
      if not !fresh then begin
        let c = Column.make_nulls n in
        Bytes.blit m 0 c 0 (Bytes.length m);
        out := c;
        fresh := true
      end;
      Column.set_null !out i
    end
  done;
  !out

let int_operand n = function
  | C (Column.Ints (a, m)) -> Some (a, m)
  | K (Value.Int k) -> Some (Array.make n k, Column.no_nulls)
  | _ -> None

let floats_of_ints (a : int array) : float array =
  let r = Array.make (Array.length a) 0. in
  for i = 0 to Array.length a - 1 do
    r.(i) <- float_of_int a.(i)
  done;
  r

let float_operand n = function
  | C (Column.Floats (a, m)) -> Some (a, m)
  | C (Column.Ints (a, m)) -> Some (floats_of_ints a, m)
  | K (Value.Float x) -> Some (Array.make n x, Column.no_nulls)
  | K (Value.Int k) -> Some (Array.make n (float_of_int k), Column.no_nulls)
  | _ -> None

(* [Value.arith] column-wise: Int op Int stays integral except
   division, a Float on either side promotes, a zero divisor gives
   NULL; any other kind goes through the boxed fallback. *)
let arith_kernel n (op : arithop) (ax : arg) (ay : arg) : Column.t =
  match (int_operand n ax, int_operand n ay) with
  | Some (a, ma), Some (b, mb) -> (
      let m = Column.union_nulls n ma mb in
      match op with
      | Add | Sub | Mul ->
          let r = Array.make n 0 in
          (match op with
          | Add -> for i = 0 to n - 1 do r.(i) <- a.(i) + b.(i) done
          | Sub -> for i = 0 to n - 1 do r.(i) <- a.(i) - b.(i) done
          | _ -> for i = 0 to n - 1 do r.(i) <- a.(i) * b.(i) done);
          Column.Ints (r, m)
      | Div ->
          let r = Array.make n 0. in
          for i = 0 to n - 1 do
            if b.(i) <> 0 then r.(i) <- float_of_int a.(i) /. float_of_int b.(i)
          done;
          Column.Floats (r, nulls_where n m (fun i -> b.(i) = 0))
      | Mod ->
          let r = Array.make n 0 in
          for i = 0 to n - 1 do
            if b.(i) <> 0 then r.(i) <- a.(i) mod b.(i)
          done;
          Column.Ints (r, nulls_where n m (fun i -> b.(i) = 0)))
  | _ -> (
      (* a float column against a numeric constant, unbroadcast ([+.]
         and [*.] commute exactly) *)
      let const_float = function
        | K (Value.Float x) -> Some x
        | K (Value.Int k) -> Some (float_of_int k)
        | _ -> None
      in
      let with_const (a : float array) m k ~const_left =
        let r = Array.make n 0. in
        (match op with
        | Add -> for i = 0 to n - 1 do r.(i) <- a.(i) +. k done
        | Mul -> for i = 0 to n - 1 do r.(i) <- a.(i) *. k done
        | _ when const_left -> for i = 0 to n - 1 do r.(i) <- k -. a.(i) done
        | _ -> for i = 0 to n - 1 do r.(i) <- a.(i) -. k done);
        Column.Floats (r, m)
      in
      match (op, ax, ay, const_float ax, const_float ay) with
      | (Add | Sub | Mul), C (Column.Floats (a, m)), _, _, Some k ->
          with_const a m k ~const_left:false
      | (Add | Sub | Mul), _, C (Column.Floats (a, m)), Some k, _ ->
          with_const a m k ~const_left:true
      | _ -> (
      match (float_operand n ax, float_operand n ay) with
      | Some (a, ma), Some (b, mb) ->
          let m = Column.union_nulls n ma mb in
          let r = Array.make n 0. in
          (match op with
          | Add -> for i = 0 to n - 1 do r.(i) <- a.(i) +. b.(i) done
          | Sub -> for i = 0 to n - 1 do r.(i) <- a.(i) -. b.(i) done
          | Mul -> for i = 0 to n - 1 do r.(i) <- a.(i) *. b.(i) done
          | Div -> for i = 0 to n - 1 do r.(i) <- a.(i) /. b.(i) done
          | Mod -> for i = 0 to n - 1 do r.(i) <- Float.rem a.(i) b.(i) done);
          let m =
            match op with
            | Div | Mod -> nulls_where n m (fun i -> b.(i) = 0.)
            | _ -> m
          in
          Column.Floats (r, m)
      | _ -> boxed n (fun i -> Value.arith (arith_op op) (arg_get ax i) (arg_get ay i))))

let flip_cmp = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | (Eq | Ne) as op -> op

(* [Value.cmp_sql] column-wise: the outcome per row (FALSE where
   either side is NULL) and the NULL bitmap.  Same-kind and Int/Float
   pairs compare unboxed; any other pair (kinds of different rank, the
   boxed fallback) compares boxed values. *)
let cmp_kernel n (op : cmpop) (ax : arg) (ay : arg) : bool array * Column.nulls =
  let op, ax, ay = match (ax, ay) with K _, C _ -> (flip_cmp op, ay, ax) | _ -> (op, ax, ay) in
  let finish (r : bool array) m =
    if Column.has_nulls m then
      for i = 0 to n - 1 do
        if Column.null_at m i then r.(i) <- false
      done;
    (r, m)
  in
  let ints_cc (a : int array) ma (b : int array) mb =
    let r = Array.make n false in
    for i = 0 to n - 1 do
      r.(i) <- cmp_holds op (Int.compare a.(i) b.(i))
    done;
    finish r (Column.union_nulls n ma mb)
  in
  let ints_ck (a : int array) ma (k : int) =
    let r = Array.make n false in
    for i = 0 to n - 1 do
      r.(i) <- cmp_holds op (Int.compare a.(i) k)
    done;
    finish r ma
  in
  let floats_cc (a : float array) ma (b : float array) mb =
    let r = Array.make n false in
    for i = 0 to n - 1 do
      r.(i) <- cmp_holds op (Float.compare a.(i) b.(i))
    done;
    finish r (Column.union_nulls n ma mb)
  in
  let floats_ck (a : float array) ma (k : float) =
    let r = Array.make n false in
    for i = 0 to n - 1 do
      r.(i) <- cmp_holds op (Float.compare a.(i) k)
    done;
    finish r ma
  in
  let strs_cc (a : string array) ma (b : string array) mb =
    let r = Array.make n false in
    for i = 0 to n - 1 do
      r.(i) <- cmp_holds op (String.compare a.(i) b.(i))
    done;
    finish r (Column.union_nulls n ma mb)
  in
  let strs_ck (a : string array) ma (k : string) =
    let r = Array.make n false in
    for i = 0 to n - 1 do
      r.(i) <- cmp_holds op (String.compare a.(i) k)
    done;
    finish r ma
  in
  match (ax, ay) with
  | C (Column.Ints (a, ma)), C (Column.Ints (b, mb))
  | C (Column.Dates (a, ma)), C (Column.Dates (b, mb)) ->
      ints_cc a ma b mb
  | C (Column.Ints (a, ma)), K (Value.Int k) | C (Column.Dates (a, ma)), K (Value.Date k) ->
      ints_ck a ma k
  | C (Column.Floats (a, ma)), C (Column.Floats (b, mb)) -> floats_cc a ma b mb
  | C (Column.Floats (a, ma)), C (Column.Ints (b, mb)) -> floats_cc a ma (floats_of_ints b) mb
  | C (Column.Ints (a, ma)), C (Column.Floats (b, mb)) -> floats_cc (floats_of_ints a) ma b mb
  | C (Column.Floats (a, ma)), K (Value.Float k) -> floats_ck a ma k
  | C (Column.Floats (a, ma)), K (Value.Int k) -> floats_ck a ma (float_of_int k)
  | C (Column.Ints (a, ma)), K (Value.Float k) -> floats_ck (floats_of_ints a) ma k
  | C (Column.Strs (a, ma)), C (Column.Strs (b, mb)) -> strs_cc a ma b mb
  | C (Column.Strs (a, ma)), K (Value.Str k) -> strs_ck a ma k
  | _ ->
      let r = Array.make n false in
      let m = ref Column.no_nulls in
      for i = 0 to n - 1 do
        match Value.cmp_sql (arg_get ax i) (arg_get ay i) with
        | None ->
            if not (Column.has_nulls !m) then m := Column.make_nulls n;
            Column.set_null !m i
        | Some c -> r.(i) <- cmp_holds op c
      done;
      (r, !m)

(* Rows whose value is TRUE (not FALSE, not NULL). *)
let truthy (c : Column.t) : bool array =
  match c with
  | Column.Bools (a, m) -> Array.mapi (fun i b -> b && not (Column.null_at m i)) a
  | _ ->
      Array.init (Column.length c) (fun i ->
          match Column.get c i with Value.Bool true -> true | _ -> false)

let like_flags ~pattern (c : Column.t) : bool array * Column.nulls =
  match c with
  | Column.Strs (a, m) ->
      (Array.mapi (fun i s -> (not (Column.null_at m i)) && Exec.Like.matches ~pattern s) a, m)
  | _ ->
      let n = Column.length c in
      ( Array.init n (fun i ->
            match Column.get c i with
            | Value.Null -> false
            | Value.Str s -> Exec.Like.matches ~pattern s
            | v -> runtime_error "LIKE applied to non-string %s" (Value.to_string v)),
        nulls_where n Column.no_nulls (Column.is_null c) )

(* Evaluate [e] over every live row of [b]; the result is a dense
   slot-indexed column aligned with the selection vector. *)
let rec eval_cols (b : Batch.t) (pos : (int, int) Hashtbl.t) (e : expr) : Column.t =
  let n = Batch.length b in
  match e with
  | ColRef c -> (
      match Hashtbl.find_opt pos c.Col.id with
      | Some i -> Batch.gather b i
      | None -> runtime_error "unbound column in vectorized eval: %s#%d" c.Col.name c.Col.id)
  | Const v -> Column.const n v
  | Arith (op, x, y) -> arith_kernel n op (eval_arg b pos x) (eval_arg b pos y)
  | Cmp (op, x, y) ->
      let r, m = cmp_kernel n op (eval_arg b pos x) (eval_arg b pos y) in
      Column.Bools (r, m)
  | And (x, y) -> (
      match (eval_cols b pos x, eval_cols b pos y) with
      | Column.Bools (a, ma), Column.Bools (c, mc) ->
          (* FALSE wins, then UNKNOWN *)
          let fa i = (not (Column.null_at ma i)) && not a.(i)
          and fc i = (not (Column.null_at mc i)) && not c.(i) in
          let r = Array.init n (fun i -> a.(i) && c.(i)) in
          let m =
            nulls_where n Column.no_nulls (fun i ->
                (Column.null_at ma i || Column.null_at mc i) && not (fa i || fc i))
          in
          Column.Bools (r, m)
      | vx, vy -> boxed n (fun i -> kleene_and (Column.get vx i) (Column.get vy i)))
  | Or (x, y) -> (
      match (eval_cols b pos x, eval_cols b pos y) with
      | Column.Bools (a, ma), Column.Bools (c, mc) ->
          (* TRUE wins, then UNKNOWN *)
          let ta i = (not (Column.null_at ma i)) && a.(i)
          and tc i = (not (Column.null_at mc i)) && c.(i) in
          let r = Array.init n (fun i -> ta i || tc i) in
          let m =
            nulls_where n Column.no_nulls (fun i ->
                (Column.null_at ma i || Column.null_at mc i) && not r.(i))
          in
          Column.Bools (r, m)
      | vx, vy -> boxed n (fun i -> kleene_or (Column.get vx i) (Column.get vy i)))
  | Not x -> (
      match eval_cols b pos x with
      | Column.Bools (a, m) -> Column.Bools (Array.map not a, m)
      | vx ->
          boxed n (fun i ->
              match Column.get vx i with
              | Value.Bool bv -> Value.Bool (not bv)
              | Value.Null -> Value.Null
              | v -> runtime_error "NOT applied to non-boolean %s" (Value.to_string v)))
  | IsNull x ->
      let vx = eval_cols b pos x in
      Column.Bools (Array.init n (Column.is_null vx), Column.no_nulls)
  | Like (x, pattern) ->
      let r, m = like_flags ~pattern (eval_cols b pos x) in
      Column.Bools (r, m)
  | Case (branches, els) ->
      let vbranches =
        List.map (fun (c, v) -> (truthy (eval_cols b pos c), eval_cols b pos v)) branches
      in
      let velse = Option.map (eval_cols b pos) els in
      boxed n (fun i ->
          let rec go = function
            | [] -> ( match velse with Some v -> Column.get v i | None -> Value.Null)
            | (c, v) :: rest -> if c.(i) then Column.get v i else go rest
          in
          go vbranches)
  | Subquery _ | Exists _ | InSub _ | QuantCmp _ ->
      (* [expr_eval] routes these row by row *)
      runtime_error "column-wise eval reached a subquery expression"

and eval_arg b pos e = match e with Const v -> K v | _ -> C (eval_cols b pos e)

(* Predicate evaluation straight to keep flags, skipping the boolean
   column's bitmap: a filter keeps exactly the TRUE rows, so UNKNOWN
   collapses to "drop" — and under that reading strict boolean AND/OR
   over flags coincides with Kleene AND/OR on type-correct predicates.
   Operators without that property (NOT, CASE, bare boolean columns)
   fall back to the 3VL column evaluator. *)
let rec eval_flags (b : Batch.t) (pos : (int, int) Hashtbl.t) (e : expr) : bool array =
  let n = Batch.length b in
  match e with
  | Const (Value.Bool v) -> Array.make n v
  | Const Value.Null -> Array.make n false
  | Cmp (op, x, y) -> fst (cmp_kernel n op (eval_arg b pos x) (eval_arg b pos y))
  | And (x, y) ->
      (* batch-level short-circuit: evaluate [y] only on rows surviving
         [x] — the row engine's lazy AND, column-at-a-time, so a cheap
         selective first conjunct keeps an expensive second one (LIKE,
         arithmetic) proportional to survivors *)
      let fx = eval_flags b pos x in
      let m = ref 0 in
      Array.iter (fun f -> if f then incr m) fx;
      if !m = n then eval_flags b pos y
      else if !m = 0 then fx
      else begin
        let idx = Array.make !m 0 in
        let j = ref 0 in
        for i = 0 to n - 1 do
          if fx.(i) then begin
            idx.(!j) <- i;
            incr j
          end
        done;
        let fy = eval_flags (Batch.take b idx) pos y in
        let out = Array.make n false in
        for j = 0 to !m - 1 do
          out.(idx.(j)) <- fy.(j)
        done;
        out
      end
  | Or (x, y) ->
      let fx = eval_flags b pos x and fy = eval_flags b pos y in
      Array.init n (fun i -> fx.(i) || fy.(i))
  | IsNull x ->
      let vx = eval_cols b pos x in
      Array.init n (Column.is_null vx)
  | Like (x, pattern) -> fst (like_flags ~pattern (eval_cols b pos x))
  | _ -> truthy (eval_cols b pos e)

(* An operator expression is compiled once, on the whole expression:
   one with a relational child runs row by row through the row engine's
   [eval] over a lookup into the batch, so CASE branches and AND/OR
   stay lazy and a guarded subquery that would raise never runs; every
   other expression runs column-wise.  Never split per sub-expression:
   [eval_flags]'s batch-level AND skips the right conjunct on rows
   whose left conjunct is NULL, where the row engine still evaluates
   it. *)
let per_row (b : Batch.t) (pos : (int, int) Hashtbl.t) (f : Ex.lookup -> 'a) : 'a array =
  Array.init (Batch.length b) (fun s ->
      let i = b.Batch.sel.(s) in
      f (fun id ->
          Option.map
            (fun c -> Column.get (Lazy.force b.Batch.cols.(c)) i)
            (Hashtbl.find_opt pos id)))

let expr_eval (v : vctx) (e : expr) : Batch.t -> (int, int) Hashtbl.t -> Column.t =
  if Relalg.Expr.has_subquery e then fun b pos ->
    Column.of_values (per_row b pos (fun env -> Ex.eval v.ctx env e))
  else fun b pos -> eval_cols b pos e

let pred_eval (v : vctx) (p : expr) : Batch.t -> (int, int) Hashtbl.t -> bool array =
  if Relalg.Expr.has_subquery p then fun b pos ->
    per_row b pos (fun env -> Ex.eval_pred v.ctx env p)
  else fun b pos -> eval_flags b pos p

(* ------------------------------------------------------------------ *)
(* Growable int arrays (join pair collection)                         *)
(* ------------------------------------------------------------------ *)

module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Slots [0 .. n-1] where [p] holds, in order. *)
let slots_where n (p : int -> bool) : int array =
  let m = ref 0 in
  for s = 0 to n - 1 do
    if p s then incr m
  done;
  let keep = Array.make !m 0 in
  let j = ref 0 in
  for s = 0 to n - 1 do
    if p s then begin
      keep.(!j) <- s;
      incr j
    end
  done;
  keep

let true_slots (flags : bool array) : int array = slots_where (Array.length flags) (Array.get flags)

(* ------------------------------------------------------------------ *)
(* Instrumentation: metrics, budget, faults per pull                  *)
(* ------------------------------------------------------------------ *)

let metrics_node (v : vctx) (o : op) : Metrics.node option =
  match v.ctx.Ex.metrics with None -> None | Some m -> Metrics.find m o

(* Wrap an operator's pull: tick the fault plan, re-check the budget,
   account produced rows, and attribute time/rows/batches to the
   operator's metrics node (inclusive of children, like the row
   engine). *)
let instrument (v : vctx) (o : op) (node : Metrics.node option) (pull : source) : source =
  let fault_kind = Ex.op_fault_kind o in
  fun () ->
    (match v.ctx.Ex.faults with None -> () | Some f -> Exec.Faults.tick f fault_kind);
    Ex.check_budget v.ctx;
    match node with
    | None ->
        let r = pull () in
        (match r with Some b -> Ex.account_rows v.ctx (Batch.length b) | None -> ());
        r
    | Some nd ->
        let t0 = Unix.gettimeofday () in
        let r =
          try pull ()
          with e ->
            Metrics.record nd ~elapsed_s:(Unix.gettimeofday () -. t0) ~rows_out:0;
            raise e
        in
        (match r with
        | Some b ->
            Metrics.record nd
              ~elapsed_s:(Unix.gettimeofday () -. t0)
              ~rows_out:(Batch.length b);
            Metrics.add_batch nd;
            Ex.account_rows v.ctx (Batch.length b)
        | None -> Metrics.record nd ~elapsed_s:(Unix.gettimeofday () -. t0) ~rows_out:0);
        r

(* Count the rows an operator consumes from a child source. *)
let consuming (node : Metrics.node option) (src : source) : source =
  match node with
  | None -> src
  | Some nd ->
      fun () ->
        let r = src () in
        (match r with Some b -> Metrics.add_rows_in nd (Batch.length b) | None -> ());
        r

(* ------------------------------------------------------------------ *)
(* Key hashing: grouping, join and binding keys                       *)
(* ------------------------------------------------------------------ *)

let hash_int (k : int) =
  let h = k * 0x9E3779B1 in
  h lxor (h lsr 17)

(* Growable open-addressing map from any int to a non-negative int
   (linear probing, power-of-two capacity, at most half full); a
   negative value marks an empty slot, so [min_int] is a key like any
   other. *)
module IntTbl = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
  }

  let create () = { keys = Array.make 64 0; vals = Array.make 64 (-1); mask = 63; count = 0 }

  let rec slot keys (vals : int array) mask k i =
    if vals.(i) < 0 || keys.(i) = k then i else slot keys vals mask k ((i + 1) land mask)

  let grow t =
    let cap = 2 * (t.mask + 1) in
    let keys = Array.make cap 0 and vals = Array.make cap (-1) in
    for i = 0 to t.mask do
      if t.vals.(i) >= 0 then begin
        let k = t.keys.(i) in
        let j = slot keys vals (cap - 1) k (hash_int k land (cap - 1)) in
        keys.(j) <- k;
        vals.(j) <- t.vals.(i)
      end
    done;
    t.keys <- keys;
    t.vals <- vals;
    t.mask <- cap - 1

  (* the value bound to [k], or -1 *)
  let find t k = t.vals.(slot t.keys t.vals t.mask k (hash_int k land t.mask))

  (* bind [k] to [v >= 0], returning the previous value or -1 *)
  let exchange t k v =
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let i = slot t.keys t.vals t.mask k (hash_int k land t.mask) in
    let old = t.vals.(i) in
    if old < 0 then begin
      t.keys.(i) <- k;
      t.count <- t.count + 1
    end;
    t.vals.(i) <- v;
    old
end

(* An int -> non-negative int map over a key column known up front: a
   flat array indexed by [k - lo] when the non-NULL keys span a range
   at most about twice their count (dense surrogate keys, the common
   case), else an [IntTbl].  Keys outside the column's range (a probe
   side's) are absent. *)
module KeyMap = struct
  type t = Direct of int * int array | Hashed of IntTbl.t

  let for_keys (a : int array) (m : Column.nulls) : t =
    let lo = ref max_int and hi = ref min_int in
    Array.iteri
      (fun s k ->
        if not (Column.null_at m s) then begin
          if k < !lo then lo := k;
          if k > !hi then hi := k
        end)
      a;
    let span = !hi - !lo in
    (* [span < 0]: no keys, or a range too wide for an int *)
    if span >= 0 && span < (2 * Array.length a) + 1024 then Direct (!lo, Array.make (span + 1) (-1))
    else Hashed (IntTbl.create ())

  let find t k =
    match t with
    | Direct (lo, slots) ->
        let i = k - lo in
        if i >= 0 && i < Array.length slots then slots.(i) else -1
    | Hashed h -> IntTbl.find h k

  (* [k] must be one of the keys the map was made for *)
  let exchange t k v =
    match t with
    | Direct (lo, slots) ->
        let old = slots.(k - lo) in
        slots.(k - lo) <- v;
        old
    | Hashed h -> IntTbl.exchange h k v
end

(* Fold one key column's per-row hash into [h].  [typed]: the two
   columns a key compares share one kind, so the kind's own hash is
   consistent; otherwise [Value.hash], which agrees with [Value.equal]
   across kinds (Int n and Float n hash alike).  NULL hashes to a
   constant. *)
let key_hash ~typed (c : Column.t) s =
  match c with
  | (Column.Ints (a, m) | Column.Dates (a, m)) when typed ->
      if Column.null_at m s then 17 else hash_int a.(s)
  | Column.Strs (a, m) when typed -> if Column.null_at m s then 17 else Hashtbl.hash a.(s)
  | _ -> Value.hash (Column.get c s)

let add_hashes ~typed (c : Column.t) (h : int array) =
  for s = 0 to Array.length h - 1 do
    h.(s) <- (h.(s) * 31) + key_hash ~typed c s
  done

let same_kind (a : Column.t) (b : Column.t) =
  match (a, b) with
  | Column.Ints _, Column.Ints _ | Column.Dates _, Column.Dates _ | Column.Strs _, Column.Strs _
    ->
      true
  | _ -> false

(* Do row [a] of the key columns [xs] and row [b] of [ys] hold
   pairwise-equal keys? *)
let keys_equal (xs : Column.t array) a (ys : Column.t array) b =
  let k = Array.length xs in
  let c = ref 0 in
  while !c < k && Column.equal_at xs.(!c) a ys.(!c) b do
    incr c
  done;
  !c = k

let has_null (cols : Column.t array) s =
  let k = Array.length cols in
  let c = ref 0 in
  while !c < k && not (Column.is_null cols.(!c) s) do
    incr c
  done;
  !c < k

let row_hashes (pairs : (bool * Column.t) list) (n : int) : int array =
  let h = Array.make n 7 in
  List.iter (fun (typed, c) -> add_hashes ~typed c h) pairs;
  h

(* Map every row slot to a dense group index (first-appearance order)
   under [Value.equal] on the key tuple (NULL groups with NULL).
   Returns [(gidx, ngroups, reps)], [reps.(g)] the first slot of group
   [g], from which callers gather the output key columns. *)
let group_indices (key_cols : Column.t list) (n : int) : int array * int * int array =
  let gidx = Array.make n 0 in
  let reps = Ints.create () in
  let new_group s =
    let g = reps.Ints.n in
    Ints.push reps s;
    g
  in
  (match key_cols with
  | [ (Column.Ints (a, m) | Column.Dates (a, m)) ] ->
      (* one int key: the key itself indexes the map *)
      let t = KeyMap.for_keys a m in
      let null_group = ref (-1) in
      for s = 0 to n - 1 do
        if s > 0 && a.(s) = a.(s - 1) && Column.null_at m s = Column.null_at m (s - 1) then
          (* a run of one key (replicated or clustered input) *)
          gidx.(s) <- gidx.(s - 1)
        else if Column.null_at m s then begin
          if !null_group < 0 then null_group := new_group s;
          gidx.(s) <- !null_group
        end
        else begin
          let k = a.(s) in
          let g = KeyMap.find t k in
          if g >= 0 then gidx.(s) <- g
          else begin
            let g = new_group s in
            ignore (KeyMap.exchange t k g);
            gidx.(s) <- g
          end
        end
      done
  | _ ->
      (* any other key tuple: per-row hashes, groups chained per hash
         and compared column-wise against each group's first row, so
         no per-row key list is ever allocated; a row equal to the one
         before it joins its group without hashing *)
      let cols = Array.of_list key_cols in
      let k = Array.length cols in
      let t = IntTbl.create () in
      let gnext = Ints.create () in
      for s = 0 to n - 1 do
        if s > 0 && keys_equal cols (s - 1) cols s then gidx.(s) <- gidx.(s - 1)
        else begin
          let h = ref 7 in
          for c = 0 to k - 1 do
            h := (!h * 31) + key_hash ~typed:true cols.(c) s
          done;
          let h = !h in
          let head = IntTbl.find t h in
          let g = ref head in
          while !g >= 0 && not (keys_equal cols reps.Ints.a.(!g) cols s) do
            g := gnext.Ints.a.(!g)
          done;
          if !g >= 0 then gidx.(s) <- !g
          else begin
            let g = new_group s in
            Ints.push gnext head;
            ignore (IntTbl.exchange t h g);
            gidx.(s) <- g
          end
        end
      done);
  (gidx, reps.Ints.n, Ints.to_array reps)

(* Equi-join matches over dense key columns: every (left slot, right
   slot) pair whose keys are all non-NULL and pairwise [Value.equal],
   left-major, each left row's matches in reverse right order (the row
   engine's build lists are newest-first).  Returns the number of right
   rows entered into the build table. *)
let hash_join_pairs (lkeys : Column.t list) (rkeys : Column.t list) ~nl ~nr (pls : Ints.t)
    (prs : Ints.t) : int =
  let built = ref 0 in
  let next = Array.make (max 1 nr) (-1) in
  (match (lkeys, rkeys) with
  | [ Column.Ints (la, lm) ], [ Column.Ints (ra, rm) ]
  | [ Column.Dates (la, lm) ], [ Column.Dates (ra, rm) ] ->
      (* one int key on both sides: chain right rows per key value *)
      let t = KeyMap.for_keys ra rm in
      for s = 0 to nr - 1 do
        if not (Column.null_at rm s) then begin
          incr built;
          next.(s) <- KeyMap.exchange t ra.(s) s
        end
      done;
      for s = 0 to nl - 1 do
        if not (Column.null_at lm s) then begin
          let r = ref (KeyMap.find t la.(s)) in
          while !r >= 0 do
            Ints.push pls s;
            Ints.push prs !r;
            r := next.(!r)
          done
        end
      done
  | _ ->
      let t = IntTbl.create () in
      let typed = List.map2 same_kind lkeys rkeys in
      let rh = row_hashes (List.combine typed rkeys) nr in
      let lh = row_hashes (List.combine typed lkeys) nl in
      let lk = Array.of_list lkeys and rk = Array.of_list rkeys in
      for s = 0 to nr - 1 do
        if not (has_null rk s) then begin
          incr built;
          next.(s) <- IntTbl.exchange t rh.(s) s
        end
      done;
      for s = 0 to nl - 1 do
        if not (has_null lk s) then begin
          let r = ref (IntTbl.find t lh.(s)) in
          while !r >= 0 do
            if keys_equal lk s rk !r then begin
              Ints.push pls s;
              Ints.push prs !r
            end;
            r := next.(!r)
          done
        end
      done);
  !built

(* ------------------------------------------------------------------ *)
(* Grouped aggregation: group-index arrays + typed kernels            *)
(* ------------------------------------------------------------------ *)

(* Aggregate input evaluators; each input column is evaluated once per
   mega-batch. *)
let agg_inputs (v : vctx) (aggs : agg list) :
    Batch.t -> (int, int) Hashtbl.t -> Column.t option list =
  let evals = List.map (fun (a : agg) -> Option.map (expr_eval v) (agg_input_expr a.fn)) aggs in
  fun b pos -> List.map (Option.map (fun f -> f b pos)) evals

(* One aggregate over all groups.  Every kernel reproduces the row
   accumulator's exact fold: same accumulation order (row order), same
   first-value seeding, and Avg's final division as [Value.arith]
   computes it, so results are bit-identical to the row engine.  A
   kind without a kernel (a boxed column, Sum over strings or dates)
   runs the row engine's accumulators. *)
let agg_grouped (fn : agg_fn) (input : Column.t option) (gidx : int array) (ng : int)
    (n : int) : Column.t =
  let counts_of (skip : int -> bool) =
    let counts = Array.make ng 0 in
    for s = 0 to n - 1 do
      if not (skip s) then counts.(gidx.(s)) <- counts.(gidx.(s)) + 1
    done;
    counts
  in
  let empty_groups counts = nulls_where ng Column.no_nulls (fun g -> counts.(g) = 0) in
  match input with
  | None -> Column.Ints (counts_of (fun _ -> false), Column.no_nulls)
  | Some col -> (
      let generic () =
        let accs = Array.init ng (fun _ -> Ex.fresh_acc ()) in
        for s = 0 to n - 1 do
          Ex.acc_add accs.(gidx.(s)) (Column.get col s)
        done;
        Column.of_values (Array.map (Ex.acc_result fn) accs)
      in
      let want_min = match fn with Min _ -> true | _ -> false in
      (* Min/Max over ints, dates or strings: a group's first value
         seeds it, a later one replaces it when it compares below (Min)
         or above (Max) *)
      let extreme (type e) (cmp : e -> e -> int) (a : e array) m (seed : e) =
        let best = Array.make ng seed and counts = Array.make ng 0 in
        for s = 0 to n - 1 do
          if not (Column.null_at m s) then begin
            let g = gidx.(s) in
            let c = if counts.(g) = 0 then 0 else cmp a.(s) best.(g) in
            if counts.(g) = 0 || (want_min && c < 0) || ((not want_min) && c > 0) then
              best.(g) <- a.(s);
            counts.(g) <- counts.(g) + 1
          end
        done;
        (best, empty_groups counts)
      in
      match (fn, col) with
      | (CountStar | Count _), _ -> Column.Ints (counts_of (Column.is_null col), Column.no_nulls)
      | (Sum _ | Avg _), Column.Floats (a, m) ->
          let sums = Array.make ng 0.0 and counts = Array.make ng 0 in
          for s = 0 to n - 1 do
            if not (Column.null_at m s) then begin
              let g = gidx.(s) in
              (* seed with the first value so -0.0 survives *)
              sums.(g) <- (if counts.(g) = 0 then a.(s) else sums.(g) +. a.(s));
              counts.(g) <- counts.(g) + 1
            end
          done;
          (match fn with
          | Avg _ ->
              for g = 0 to ng - 1 do
                if counts.(g) > 0 then sums.(g) <- sums.(g) /. float_of_int counts.(g)
              done
          | _ -> ());
          Column.Floats (sums, empty_groups counts)
      | (Sum _ | Avg _), Column.Ints (a, m) -> (
          let sums = Array.make ng 0 and counts = Array.make ng 0 in
          for s = 0 to n - 1 do
            if not (Column.null_at m s) then begin
              let g = gidx.(s) in
              sums.(g) <- sums.(g) + a.(s);
              counts.(g) <- counts.(g) + 1
            end
          done;
          match fn with
          | Avg _ ->
              let avgs = Array.make ng 0. in
              for g = 0 to ng - 1 do
                if counts.(g) > 0 then avgs.(g) <- float_of_int sums.(g) /. float_of_int counts.(g)
              done;
              Column.Floats (avgs, empty_groups counts)
          | _ -> Column.Ints (sums, empty_groups counts))
      | (Min _ | Max _), Column.Ints (a, m) ->
          let best, m = extreme Int.compare a m 0 in
          Column.Ints (best, m)
      | (Min _ | Max _), Column.Dates (a, m) ->
          let best, m = extreme Int.compare a m 0 in
          Column.Dates (best, m)
      | (Min _ | Max _), Column.Floats (a, m) ->
          let best = Array.make ng 0. and counts = Array.make ng 0 in
          for s = 0 to n - 1 do
            if not (Column.null_at m s) then begin
              let g = gidx.(s) in
              let c = if counts.(g) = 0 then 0 else Float.compare a.(s) best.(g) in
              if counts.(g) = 0 || (want_min && c < 0) || ((not want_min) && c > 0) then
                best.(g) <- a.(s);
              counts.(g) <- counts.(g) + 1
            end
          done;
          Column.Floats (best, empty_groups counts)
      | (Min _ | Max _), Column.Strs (a, m) ->
          let best, m = extreme String.compare a m "" in
          Column.Strs (best, m)
      | _ -> generic ())

(* ------------------------------------------------------------------ *)
(* Batched Apply: native filtered-scan inners                         *)
(* ------------------------------------------------------------------ *)

(* How a native inner finds its candidate rows. *)
type inner_access =
  | Index of Storage.Table.index  (** probe the scan column's hash index *)
  | Hash of int
      (** no index on the key column (its scan position): hash the
          bindings' keys and scan the column once per outer batch *)

(* An Apply inner [Project] [ScalarAgg] Select(p, Scan t) run on typed
   columns: one conjunct of [p] equates a scan column with an
   outer-only expression (the probe), the rest is the residual. *)
type native_inner = {
  ni_table : Storage.Table.t;
  ni_cols : Col.t list;  (** scan schema *)
  ni_access : inner_access;
  ni_probe : expr;  (** key expression over the parameters *)
  ni_residual : expr;  (** remaining conjuncts; may read parameters *)
  ni_aggs : agg list option;  (** ScalarAgg over the filtered scan, if any *)
  ni_projs : proj list option;  (** Project wrapper, if any *)
  ni_node : Metrics.node option;  (** the filtered scan's metrics node *)
}

(* The native shape, when [right] has it and reads no column beyond
   the Apply's correlation parameters (an inner whose free column is
   bound by an enclosing scope keeps the row engine).  The probe
   conjunct is the row engine's index-lookup pick ({!Op.index_eq}) when
   one exists, else the first equality on any scan column.  The filter
   (as {!Op.index_eq} requires), aggregate inputs and projections must
   be subquery-free: column-wise evaluation would drop the row engine's
   per-row laziness, and with it a Max1row error. *)
let detect_native (v : vctx) (params : Col.t list) (right : op) : native_inner option =
  let try_scan projs aggs sel pred table cols =
    let tb = Storage.Database.table v.ctx.Ex.db table in
    let access =
      match
        Op.index_eq ~cols pred ~indexed:(fun c ->
            Option.map (fun ix -> Index ix) (Storage.Table.find_index tb c.Col.name))
      with
      | Some _ as found -> found
      | None ->
          let pos = positions cols in
          Op.index_eq ~cols pred ~indexed:(fun c ->
              Option.map (fun p -> Hash p) (Hashtbl.find_opt pos c.Col.id))
    in
    match access with
    | None -> None
    | Some (access, probe, residual) ->
        let exprs =
          (match projs with None -> [] | Some ps -> List.map (fun (p : proj) -> p.expr) ps)
          @ (match aggs with
            | None -> []
            | Some aggs -> List.filter_map (fun (a : agg) -> agg_input_expr a.fn) aggs)
        in
        if List.exists Relalg.Expr.has_subquery exprs then None
        else
          Some
            { ni_table = tb;
              ni_cols = cols;
              ni_access = access;
              ni_probe = probe;
              ni_residual = residual;
              ni_aggs = aggs;
              ni_projs = projs;
              ni_node = metrics_node v sel;
            }
  in
  let filtered_scan projs aggs = function
    | Select (p, TableScan { table; cols }) as sel -> try_scan projs aggs sel p table cols
    | _ -> None
  in
  if not (Col.Set.subset (Op.free_cols right) (Col.Set.of_list params)) then None
  else
    match right with
    | Project (projs, ScalarAgg { aggs; input }) -> filtered_scan (Some projs) (Some aggs) input
    | ScalarAgg { aggs; input } -> filtered_scan None (Some aggs) input
    | Project (projs, input) -> filtered_scan (Some projs) None input
    | input -> filtered_scan None None input

(* Candidate rows of every binding of [bb] (one row per distinct
   binding, schema = the parameters): the table's typed columns and,
   for binding [g], the ascending row positions [positions.(starts.(g))
   .. positions.(starts.(g+1) - 1)] whose key equals the binding's
   probe key (NULL keys match nothing).  Each binding ticks one Apply
   iteration; an index probe also counts a fast-path hit on the
   filtered scan and its candidates as processed rows, like the row
   engine's probing Select, and the hash pass counts the table's rows
   once. *)
let native_candidates (v : vctx) (ni : native_inner) (bb : Batch.t) :
    Column.t array * int array * int array =
  let ctx = v.ctx in
  let ng = Batch.length bb in
  let keys = eval_cols bb (positions bb.Batch.schema) ni.ni_probe in
  match ni.ni_access with
  | Index ix ->
      let vals =
        Array.init ng (fun g ->
            Ex.tick_binding ctx;
            (match ni.ni_node with Some nd -> Metrics.add_fast_hit nd | None -> ());
            Column.get keys g)
      in
      let (_, _, rows_at) as found = Storage.Table.probe ix ni.ni_table vals in
      Ex.account_rows ctx (Array.length rows_at);
      found
  | Hash kpos ->
      for _ = 1 to ng do
        Ex.tick_binding ctx
      done;
      let cols = Storage.Table.columns ni.ni_table in
      let nrows = if Array.length cols = 0 then 0 else Column.length cols.(0) in
      Ex.account_rows ctx nrows;
      (* the table's key column probes the bindings' keys: pairs come
         row-major, so a stable bucketing by binding keeps each
         binding's rows in table order *)
      let prow = Ints.create () and pbind = Ints.create () in
      ignore (hash_join_pairs [ cols.(kpos) ] [ keys ] ~nl:nrows ~nr:ng prow pbind);
      let starts = Array.make (ng + 1) 0 in
      for p = 0 to pbind.Ints.n - 1 do
        let g = pbind.Ints.a.(p) in
        starts.(g + 1) <- starts.(g + 1) + 1
      done;
      for g = 0 to ng - 1 do
        starts.(g + 1) <- starts.(g + 1) + starts.(g)
      done;
      let fill = Array.sub starts 0 (max 1 ng) in
      let rows_at = Array.make pbind.Ints.n 0 in
      for p = 0 to pbind.Ints.n - 1 do
        let g = pbind.Ints.a.(p) in
        rows_at.(fill.(g)) <- prow.Ints.a.(p);
        fill.(g) <- fill.(g) + 1
      done;
      (cols, starts, rows_at)

(* Binding of every candidate, from the runs [starts] delimits. *)
let bindings_of (starts : int array) : int array =
  let ng = Array.length starts - 1 in
  let bind = Array.make starts.(ng) 0 in
  for g = 0 to ng - 1 do
    Array.fill bind starts.(g) (starts.(g + 1) - starts.(g)) g
  done;
  bind

(* Candidate batch: the scan columns gathered at the candidate
   positions [rows_at], then the parameters of each candidate's binding
   (binding [g] owns candidates [starts.(g) .. starts.(g+1) - 1]) — the
   environment the residual and the projections read.  Every column,
   and the candidates' binding map, is built only if read. *)
let candidate_batch (ni : native_inner) (bb : Batch.t) (cols : Column.t array)
    (rows_at : int array) (starts : int array) : Batch.t =
  let scan = Array.sub cols 0 (List.length ni.ni_cols) in
  let bind = lazy (bindings_of starts) in
  { Batch.schema = ni.ni_cols @ bb.Batch.schema;
    cols =
      Array.append
        (Array.map (fun c -> lazy (Column.gather c rows_at)) scan)
        (Array.map (fun c -> lazy (Column.gather (Lazy.force c) (Lazy.force bind))) bb.Batch.cols);
    sel = Batch.iota (Array.length rows_at)
  }

(* The candidates that pass the residual — their row positions and the
   runs each binding owns — with the table view the positions index.
   Conjuncts run one after another, each only on the candidates the
   ones before it kept and over columns gathered from the table at
   exactly those rows: [eval_flags]'s batch-level AND without gathering
   a column at rows an earlier conjunct dropped.  The filtered scan's
   metrics node records the call as one batch, candidates in and
   survivors out. *)
let native_filter (v : vctx) (ni : native_inner) (bb : Batch.t) :
    Column.t array * int array * int array =
  let t0 = Unix.gettimeofday () in
  let cols, starts, candidates = native_candidates v ni bb in
  let pos = positions (ni.ni_cols @ bb.Batch.schema) in
  let narrow (rows_at, starts) cj =
    if is_true_const cj || Array.length rows_at = 0 then (rows_at, starts)
    else
      let flags = eval_flags (candidate_batch ni bb cols rows_at starts) pos cj in
      let keep = true_slots flags in
      if Array.length keep = Array.length rows_at then (rows_at, starts)
      else begin
        let ng = Array.length starts - 1 in
        let kept = Array.make (ng + 1) 0 in
        for g = 0 to ng - 1 do
          let k = ref 0 in
          for j = starts.(g) to starts.(g + 1) - 1 do
            if flags.(j) then incr k
          done;
          kept.(g + 1) <- kept.(g) + !k
        done;
        (Array.map (fun j -> rows_at.(j)) keep, kept)
      end
  in
  let rows_at, starts =
    List.fold_left narrow (candidates, starts) (conjuncts ni.ni_residual)
  in
  (match ni.ni_node with
  | Some nd ->
      Metrics.add_rows_in nd (Array.length candidates);
      Metrics.record nd ~elapsed_s:(Unix.gettimeofday () -. t0) ~rows_out:(Array.length rows_at);
      Metrics.add_batch nd
  | None -> ());
  (cols, starts, rows_at)

(* Existence per binding, for Semi/Anti under a constant-true Apply
   predicate: projections never change emptiness and are skipped. *)
let native_exists (v : vctx) (ni : native_inner) (bb : Batch.t) : bool array =
  let _, starts, _ = native_filter v ni bb in
  match ni.ni_aggs with
  | Some _ -> Array.make (Batch.length bb) true (* one aggregate row per binding *)
  | None -> Array.init (Batch.length bb) (fun g -> starts.(g + 1) > starts.(g))

(* The inner rows of every binding as one dense batch under the inner's
   schema, binding-major, with [starts] delimiting each binding's run.
   A ScalarAgg inner aggregates each binding's run into its one row
   with the grouped kernels (the run in table order: the row engine's
   accumulation order).  Computed projections evaluate eagerly, like
   [compile_project]. *)
let native_rows (v : vctx) (ni : native_inner) (rschema : Col.t list) (bb : Batch.t) :
    Batch.t * int array =
  let cols, starts, rows_at = native_filter v ni bb in
  let surv = candidate_batch ni bb cols rows_at starts in
  let ng = Batch.length bb in
  (* the rows the projections read, and how many of them are the inner's *)
  let surv, width, starts =
    match ni.ni_aggs with
    | None -> (surv, List.length ni.ni_cols, starts)
    | Some aggs ->
        let spos = positions surv.Batch.schema in
        let gidx = bindings_of starts and nc = Array.length rows_at in
        let agg_cols =
          List.map
            (fun (a : agg) ->
              Lazy.from_val
                (agg_grouped a.fn
                   (Option.map (eval_cols surv spos) (agg_input_expr a.fn))
                   gidx ng nc))
            aggs
        in
        ( { Batch.schema = List.map (fun (a : agg) -> a.out) aggs @ bb.Batch.schema;
            cols = Array.append (Array.of_list agg_cols) bb.Batch.cols;
            sel = Batch.iota ng
          },
          List.length aggs,
          Batch.iota (ng + 1) )
  in
  let out =
    match ni.ni_projs with
    | None -> { surv with Batch.schema = rschema; cols = Array.sub surv.Batch.cols 0 width }
    | Some projs ->
        let pos = positions surv.Batch.schema in
        { Batch.schema = rschema;
          cols =
            Array.of_list
              (List.map
                 (fun (p : proj) ->
                   match p.expr with
                   | ColRef c -> (
                       match Hashtbl.find_opt pos c.Col.id with
                       | Some i -> surv.Batch.cols.(i)
                       | None -> Lazy.from_val (eval_cols surv pos p.expr))
                   | e -> Lazy.from_val (eval_cols surv pos e))
                 projs);
          sel = surv.Batch.sel
        }
  in
  (out, starts)

(* Pair each outer slot with its binding's inner rows — slot-major,
   each binding's rows in inner order, the row engine's Apply output
   order — and emit per Apply kind.  [ib] is dense; binding [g]'s rows
   are [starts.(g) .. starts.(g+1) - 1].  Output columns are gathers:
   the outer side's at the pairs' physical rows, the inner side's at
   the pairs' inner rows — or the inner columns as they are when no
   binding serves two outer slots, so pair [p] reads inner row [p]. *)
let assemble ~(kind : join_kind) ~(pred : (Batch.t -> bool array) option)
    (out_schema : Col.t list) (lb : Batch.t) (gidx : int array) (ib : Batch.t)
    (starts : int array) : Batch.t =
  let n = Batch.length lb in
  let lo s = starts.(gidx.(s)) and hi s = starts.(gidx.(s) + 1) in
  let npairs = ref 0 in
  for s = 0 to n - 1 do
    npairs := !npairs + hi s - lo s
  done;
  let in_order =
    Array.length starts = n + 1
    &&
    let rec go s = s >= n || (gidx.(s) = s && go (s + 1)) in
    go 0
  in
  let lphys = Array.make !npairs 0 in
  let rrows = if in_order then [||] else Array.make !npairs 0 in
  let p = ref 0 in
  for s = 0 to n - 1 do
    for j = lo s to hi s - 1 do
      lphys.(!p) <- lb.Batch.sel.(s);
      if not in_order then rrows.(!p) <- j;
      incr p
    done
  done;
  let rrow p = if in_order then p else rrows.(p) in
  (* right rows [None]: every inner row in order *)
  let paired (lp : int array) (rs : int array option) =
    { Batch.schema = out_schema;
      cols =
        Array.append
          (Array.map (fun c -> lazy (Column.gather (Lazy.force c) lp)) lb.Batch.cols)
          (match rs with
          | None -> ib.Batch.cols
          | Some rs ->
              Array.map (fun c -> lazy (Column.gather_padded (Lazy.force c) rs)) ib.Batch.cols);
      sel = Batch.iota (Array.length lp)
    }
  in
  let all = paired lphys (if in_order then None else Some rrows) in
  let flags = Option.map (fun p -> p all) pred in
  let kept p = match flags with None -> true | Some f -> f.(p) in
  (* per outer slot: does any of its pairs survive? *)
  let matched () =
    let m = Array.make n false and p = ref 0 in
    for s = 0 to n - 1 do
      for _ = lo s to hi s - 1 do
        if kept !p then m.(s) <- true;
        incr p
      done
    done;
    m
  in
  match kind with
  | Inner -> (
      match flags with
      | None -> all
      | Some f ->
          let keep = true_slots f in
          paired (Array.map (fun p -> lphys.(p)) keep) (Some (Array.map rrow keep)))
  | LeftOuter ->
      (* matched pairs in place; an unmatched outer slot emits one row
         padded with NULLs (right index -1) *)
      let m = matched () in
      let len = ref 0 in
      for p = 0 to !npairs - 1 do
        if kept p then incr len
      done;
      Array.iter (fun b -> if not b then incr len) m;
      let ls = Array.make !len 0 and rs = Array.make !len (-1) in
      let q = ref 0 and p = ref 0 in
      for s = 0 to n - 1 do
        for _ = lo s to hi s - 1 do
          if kept !p then begin
            ls.(!q) <- lb.Batch.sel.(s);
            rs.(!q) <- rrow !p;
            incr q
          end;
          incr p
        done;
        if not m.(s) then begin
          ls.(!q) <- lb.Batch.sel.(s);
          incr q
        end
      done;
      paired ls (Some rs)
  | Semi | Anti ->
      let want = kind = Semi in
      let m = matched () in
      Batch.take lb (slots_where n (fun s -> m.(s) = want))

(* Existence of a match per left row of a key-less Semi/Anti join with
   a subquery-free predicate: each left row tests the right side block
   by block and stops at the first block holding a match, so no pair
   set is ever built.  The right side's blocks are densified once. *)
let exists_per_left ~block (lb : Batch.t) (rb : Batch.t) (cpos : (int, int) Hashtbl.t)
    (schema : Col.t list) (pred : expr) : bool array =
  let nr = Batch.length rb in
  let blocks =
    List.init ((nr + block - 1) / block) (fun k ->
        let lo = k * block in
        Batch.take rb (Array.init (min block (nr - lo)) (fun j -> lo + j)))
  in
  Array.init (Batch.length lb) (fun s ->
      let phys = lb.Batch.sel.(s) in
      List.exists
        (fun (blk : Batch.t) ->
          let len = Batch.length blk in
          let lcols =
            Array.map
              (fun c -> lazy (Column.gather (Lazy.force c) (Array.make len phys)))
              lb.Batch.cols
          in
          let combined =
            { Batch.schema; cols = Array.append lcols blk.Batch.cols; sel = Batch.iota len }
          in
          Array.exists Fun.id (eval_flags combined cpos pred))
        blocks)

(* ------------------------------------------------------------------ *)
(* Operator compilation                                               *)
(* ------------------------------------------------------------------ *)

(* Drain a source into one dense batch (blocking operators). *)
let drain (schema : Col.t list) (src : source) : Batch.t =
  let rec go acc = match src () with None -> List.rev acc | Some b -> go (b :: acc) in
  Batch.concat schema (go [])

(* Emit a precomputed result chunk by chunk. *)
let emit (make : unit -> Batch.t list) : source =
  let state = ref None in
  fun () ->
    let remaining = match !state with Some bs -> bs | None -> make () in
    match remaining with
    | [] ->
        state := Some [];
        None
    | b :: rest ->
        state := Some rest;
        Some b

let key_gather (b : Batch.t) (pos : (int, int) Hashtbl.t) (keys : Col.t list) :
    Column.t list =
  List.map
    (fun (c : Col.t) ->
      match Hashtbl.find_opt pos c.Col.id with
      | Some i -> Batch.gather b i
      | None -> runtime_error "grouping column missing: %s" c.Col.name)
    keys

let rec compile (v : vctx) (o : op) : source =
  let node = metrics_node v o in
  let src =
    match o with
    | TableScan { table; cols } -> compile_scan v table cols
    | ConstTable { cols; rows } ->
        emit (fun () -> Batch.chunks ~size:v.batch_size (Batch.of_rows cols rows))
    | CseScan { id; cols; _ } ->
        emit (fun () ->
            let rows =
              match v.ctx.Ex.cse with
              | None -> runtime_error "CseScan without a CSE store: %s" id
              | Some fetch -> fetch id
            in
            Ex.account_rows v.ctx (List.length rows);
            Batch.chunks ~size:v.batch_size (Batch.of_rows cols rows))
    | Select (p, i) -> compile_select v node p i
    | Project (projs, i) -> compile_project v node projs i
    | Join { kind; pred; left; right } -> compile_join v node kind pred left right
    | GroupBy { keys; aggs; input } | LocalGroupBy { keys; aggs; input } ->
        compile_group_by v node keys aggs input
    | ScalarAgg { aggs; input } -> compile_scalar_agg v node aggs input
    | UnionAll (l, r) -> compile_union v node (Op.schema o) l r
    | Except (l, r) -> compile_except v node l r
    | Apply { kind; pred; left; right } -> compile_apply v node kind pred left right
    | SegmentApply { seg_cols; outer; inner } ->
        compile_segment_apply v node seg_cols outer inner
    | SegmentHole { cols; src } -> compile_segment_hole v cols src
    | Max1row i -> compile_max1row v node i
    | Rownum { out; input } -> compile_rownum v node out input
  in
  instrument v o node src

(* Scan: batches alias the table's typed columnar cache; only the
   selection vector is fresh per batch.  The row count is the cache's
   own, so an append racing the scan never indexes past it. *)
and compile_scan (v : vctx) (table : string) (cols : Col.t list) : source =
  let tb = Storage.Database.table v.ctx.Ex.db table in
  let view = lazy (Storage.Table.columns tb) in
  (* one shared lazy wrapper per execution, so chunked scan batches
     alias the same column array and re-concatenate without copying *)
  let tcols = lazy (Array.map Lazy.from_val (Lazy.force view)) in
  let pos = ref 0 in
  fun () ->
    let view = Lazy.force view in
    let n = if Array.length view = 0 then Storage.Table.row_count tb else Column.length view.(0) in
    if !pos >= n then None
    else begin
      let start = !pos in
      let stop = min n (start + v.batch_size) in
      pos := stop;
      Some
        { Batch.schema = cols;
          cols = Lazy.force tcols;
          sel = Array.init (stop - start) (fun i -> start + i)
        }
    end

(* Filter: evaluate the predicate column-wise, keep the TRUE slots by
   compacting the selection vector; columns are untouched. *)
and compile_select (v : vctx) node (p : expr) (i : op) : source =
  let child = consuming node (compile v i) in
  let pos = positions (Op.schema i) in
  let pred = pred_eval v p in
  fun () ->
    match child () with
    | None -> None
    | Some b ->
        let flags = pred b pos in
        let n = Batch.length b in
        let keep = Array.make n 0 in
        let k = ref 0 in
        for s = 0 to n - 1 do
          if flags.(s) then begin
            keep.(!k) <- b.Batch.sel.(s);
            incr k
          end
        done;
        Some { b with Batch.sel = Array.sub keep 0 !k }

and compile_project (v : vctx) node (projs : proj list) (i : op) : source =
  let child = consuming node (compile v i) in
  let pos = positions (Op.schema i) in
  let schema = List.map (fun (p : proj) -> p.out) projs in
  let pure_refs =
    List.for_all (fun (p : proj) -> match p.expr with ColRef _ -> true | _ -> false) projs
  in
  if pure_refs then
    (* rename-only projection: alias the input's physical columns under
       the output schema and keep its selection vector — zero copying *)
    fun () ->
      match child () with
      | None -> None
      | Some b ->
          let cols =
            Array.of_list
              (List.map
                 (fun (p : proj) ->
                   match p.expr with
                   | ColRef c -> (
                       match Hashtbl.find_opt pos c.Col.id with
                       | Some i -> b.Batch.cols.(i)
                       | None ->
                           runtime_error "unbound column in projection: %s#%d"
                             c.Col.name c.Col.id)
                   | _ ->
                       runtime_error
                         "vectorized projection reached a computed expression on \
                          the rename-only path")
                 projs)
          in
          Some { Batch.schema; cols; sel = b.Batch.sel }
  else
    let evals = List.map (fun (p : proj) -> expr_eval v p.expr) projs in
    fun () ->
      match child () with
      | None -> None
      | Some b ->
          (* eager: computed projections evaluate now, like the row
             engine, so runtime errors surface at the same point *)
          let cols = Array.of_list (List.map (fun f -> Lazy.from_val (f b pos)) evals) in
          Some { Batch.schema; cols; sel = Batch.iota (Batch.length b) }

(* Hash join.  Both inputs are drained into dense batches; keys are
   evaluated column-wise; matching (left, right) slot pairs are
   collected into int vectors, the residual predicate filters the
   gathered pair batch, and the output is emitted per join kind.  NULL
   keys never match, exactly as in the row engine.  Conjuncts over the
   right side alone filter it before pairing.  A key-less
   Semi/Anti join builds no pairs: under a TRUE predicate it asks once
   whether the right side is empty, under a subquery-free one each left
   row stops at its first match; any other key-less join charges its
   |L|·|R| pairs to the budget before building them. *)
and compile_join (v : vctx) node (kind : join_kind) (pred : expr) (left : op) (right : op)
    : source =
  let lsrc = consuming node (compile v left) in
  let rsrc = consuming node (compile v right) in
  let lschema = Op.schema left and rschema = Op.schema right in
  let rset = Col.Set.of_list rschema in
  let equi, residual = Ex.split_equi_conjuncts pred (Col.Set.of_list lschema) rset in
  (* a subquery-free conjunct over the right side alone filters the
     right input before any pair is formed — no pair survives it under
     any join kind *)
  let right_only, residual =
    List.partition
      (fun c ->
        (not (Relalg.Expr.has_subquery c)) && Col.Set.subset (Relalg.Expr.cols c) rset)
      residual
  in
  let right_filter =
    if right_only = [] then None else Some (pred_eval v (conj_list right_only))
  in
  let keys = List.map (fun (ae, be) -> (expr_eval v ae, expr_eval v be)) equi in
  let residual = conj_list residual in
  let residual_pred = pred_eval v residual in
  let stops_early =
    (match kind with Semi | Anti -> true | Inner | LeftOuter -> false)
    && keys = []
    && not (Relalg.Expr.has_subquery residual)
  in
  emit (fun () ->
      let lb = drain lschema lsrc and rb = drain rschema rsrc in
      let lpos = positions lschema and rpos = positions rschema in
      let rb =
        match right_filter with None -> rb | Some f -> Batch.take rb (true_slots (f rb rpos))
      in
      let nr = Batch.length rb and nl = Batch.length lb in
      let cschema = lschema @ rschema in
      let result =
        if stops_early then begin
          let want = kind = Semi in
          let matched =
            if is_true_const residual then Array.make nl (nr > 0)
            else exists_per_left ~block:v.batch_size lb rb (positions cschema) cschema residual
          in
          Batch.take lb (slots_where nl (fun s -> matched.(s) = want))
        end
        else begin
          let pls = Ints.create () and prs = Ints.create () in
          (match keys with
          | [] ->
              (* no equi-conjunct (cross or pure theta join): every (l, r)
                 pair, with the whole predicate as residual — the row
                 engine's nested loop, batch-at-a-time *)
              Ex.account_rows v.ctx (nl * nr);
              for s = 0 to nl - 1 do
                for t = 0 to nr - 1 do
                  Ints.push pls s;
                  Ints.push prs t
                done
              done
          | _ ->
              let lkeys = List.map (fun (lkey_of, _) -> lkey_of lb lpos) keys in
              let rkeys = List.map (fun (_, rkey_of) -> rkey_of rb rpos) keys in
              let built = hash_join_pairs lkeys rkeys ~nl ~nr pls prs in
              match node with Some nd -> Metrics.add_hash_build nd built | None -> ());
          let pls = Ints.to_array pls and prs = Ints.to_array prs in
          let combined_of pls prs =
            let lpart = Batch.take lb pls and rpart = Batch.take rb prs in
            { Batch.schema = cschema;
              cols = Array.append lpart.Batch.cols rpart.Batch.cols;
              sel = Batch.iota (Array.length pls)
            }
          in
          (* residual predicate over the surviving pairs *)
          let pls, prs =
            if is_true_const residual then (pls, prs)
            else
              let keep = true_slots (residual_pred (combined_of pls prs) (positions cschema)) in
              (Array.map (fun s -> pls.(s)) keep, Array.map (fun s -> prs.(s)) keep)
          in
          let matched () =
            let m = Array.make nl false in
            Array.iter (fun s -> m.(s) <- true) pls;
            m
          in
          match kind with
          | Inner -> combined_of pls prs
          | Semi | Anti ->
              let want = kind = Semi in
              let m = matched () in
              Batch.take lb (slots_where nl (fun s -> m.(s) = want))
          | LeftOuter ->
              let m = matched () in
              let unmatched = slots_where nl (fun s -> not m.(s)) in
              let lpart = Batch.take lb unmatched in
              let nulls =
                Array.map
                  (fun (_ : Col.t) -> lazy (Column.nulls (Array.length unmatched)))
                  (Array.of_list rschema)
              in
              let padded =
                { Batch.schema = cschema;
                  cols = Array.append lpart.Batch.cols nulls;
                  sel = Batch.iota (Array.length unmatched)
                }
              in
              Batch.concat cschema [ combined_of pls prs; padded ]
        end
      in
      Batch.chunks ~size:v.batch_size result)

and compile_group_by (v : vctx) node (keys : Col.t list) (aggs : agg list) (input : op) :
    source =
  let child = consuming node (compile v input) in
  let ischema = Op.schema input in
  let inputs_of = agg_inputs v aggs in
  emit (fun () ->
      let mb = drain ischema child in
      let pos = positions ischema in
      let n = Batch.length mb in
      let key_cols = key_gather mb pos keys in
      let gidx, ng, reps = group_indices key_cols n in
      (match node with Some nd -> Metrics.add_hash_build nd ng | None -> ());
      let inputs = inputs_of mb pos in
      let key_out = List.map (fun kc -> Column.gather kc reps) key_cols in
      let agg_out =
        List.map2
          (fun (a : agg) input -> agg_grouped a.fn input gidx ng n)
          aggs inputs
      in
      let schema = keys @ List.map (fun (a : agg) -> a.out) aggs in
      Batch.chunks ~size:v.batch_size
        { Batch.schema;
          cols = Array.of_list (List.map Lazy.from_val (key_out @ agg_out));
          sel = Batch.iota ng
        })

and compile_scalar_agg (v : vctx) node (aggs : agg list) (input : op) : source =
  let child = consuming node (compile v input) in
  let ischema = Op.schema input in
  let inputs_of = agg_inputs v aggs in
  emit (fun () ->
      let mb = drain ischema child in
      let pos = positions ischema in
      let n = Batch.length mb in
      let schema = List.map (fun (a : agg) -> a.out) aggs in
      let row =
        if n = 0 then Array.of_list (List.map (fun (a : agg) -> agg_on_empty a.fn) aggs)
        else begin
          (* one group spanning every row: reuse the grouped kernels *)
          let gidx = Array.make n 0 in
          let inputs = inputs_of mb pos in
          Array.of_list
            (List.map2
               (fun (a : agg) input -> Column.get (agg_grouped a.fn input gidx 1 n) 0)
               aggs inputs)
        end
      in
      [ Batch.of_rows schema [ row ] ])

(* UNION ALL streams: all left batches, then all right batches,
   relabelled to the union's output schema. *)
and compile_union (v : vctx) node (schema : Col.t list) (l : op) (r : op) : source =
  let ls = consuming node (compile v l) in
  let rs = consuming node (compile v r) in
  let on_right = ref false in
  let rec pull () =
    if !on_right then
      match rs () with None -> None | Some b -> Some { b with Batch.schema }
    else
      match ls () with
      | Some b -> Some { b with Batch.schema }
      | None ->
          on_right := true;
          pull ()
  in
  pull

(* Bag difference: drain the right side into occurrence counts, then
   stream left batches, dropping one occurrence per counted row. *)
and compile_except (v : vctx) node (l : op) (r : op) : source =
  let ls = consuming node (compile v l) in
  let rs = consuming node (compile v r) in
  let counts = lazy (
    let counts = Ex.VTbl.create 64 in
    let rec go () =
      match rs () with
      | None -> ()
      | Some b ->
          for s = 0 to Batch.length b - 1 do
            let k = Batch.row_list b s in
            Ex.VTbl.replace counts k (1 + try Ex.VTbl.find counts k with Not_found -> 0)
          done;
          go ()
    in
    go ();
    counts)
  in
  fun () ->
    let counts = Lazy.force counts in
    match ls () with
    | None -> None
    | Some b ->
        let n = Batch.length b in
        let keep = Array.make n 0 in
        let k = ref 0 in
        for s = 0 to n - 1 do
          let key = Batch.row_list b s in
          match Ex.VTbl.find_opt counts key with
          | Some c when c > 0 -> Ex.VTbl.replace counts key (c - 1)
          | _ ->
              keep.(!k) <- b.Batch.sel.(s);
              incr k
        done;
        Some { b with Batch.sel = Array.sub keep 0 !k }

(* Batched Apply.  Per outer batch: deduplicate the correlation
   parameter tuples (NULL-safe, same value equality as grouping),
   evaluate the inner once per *distinct* binding — natively on typed
   columns when the inner is a filtered scan ([native_inner]), else
   through the row engine's parameterized entry point ([Ex.run_inner])
   — then pair the inner rows back with the outer slots ([assemble]). *)
and compile_apply (v : vctx) node (kind : join_kind) (pred : expr) (left : op)
    (right : op) : source =
  let child = consuming node (compile v left) in
  let lschema = Op.schema left and rschema = Op.schema right in
  let out_schema = lschema @ rschema in
  let free = Op.free_cols right in
  (* correlation parameters: outer columns the inner tree references *)
  let params =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (c : Col.t) ->
        Col.Set.mem c free
        && not (Hashtbl.mem seen c.Col.id)
        && (Hashtbl.add seen c.Col.id ();
            true))
      lschema
  in
  let lpos = positions lschema in
  let param_ids = Array.of_list (List.map (fun (c : Col.t) -> c.Col.id) params) in
  let nparams = Array.length param_ids in
  (* the inner's access path is worked out on the first outer batch: an
     Apply whose outer is empty pays nothing for it *)
  let native = lazy (if nparams = 0 then None else detect_native v params right) in
  let pred_flags =
    if is_true_const pred then None
    else
      let pred_of = pred_eval v pred and cpos = positions out_schema in
      Some (fun b -> pred_of b cpos)
  in
  let ctx = v.ctx in
  (* Semi/Anti under a constant-true predicate only need existence per
     binding — no pair construction *)
  let existence_only =
    match kind with Semi | Anti -> pred_flags = None | Inner | LeftOuter -> false
  in
  let param_pos =
    Array.of_list
      (List.map
         (fun (c : Col.t) ->
           match Hashtbl.find_opt lpos c.Col.id with
           | Some i -> i
           | None -> runtime_error "correlation parameter missing: %s" c.Col.name)
         params)
  in
  let process (lb : Batch.t) : Batch.t list =
    let n = Batch.length lb in
    let pcols = Array.map (fun i -> Batch.gather lb i) param_pos in
    let gidx, ng, reps = group_indices (Array.to_list pcols) n in
    (match node with
    | Some nd -> Metrics.add_apply_batch nd ~bindings:ng ~dedup_hits:(n - ng)
    | None -> ());
    ctx.Ex.apply_batches <- ctx.Ex.apply_batches + 1;
    ctx.Ex.apply_bindings <- ctx.Ex.apply_bindings + ng;
    ctx.Ex.apply_dedup_hits <- ctx.Ex.apply_dedup_hits + (n - ng);
    (* the distinct bindings: one row each, from the group's first slot *)
    let bcols = Array.map (fun c -> Column.gather c reps) pcols in
    let bb =
      { Batch.schema = params; cols = Array.map Lazy.from_val bcols; sel = Batch.iota ng }
    in
    (* one reusable binding environment for the per-binding row-engine
       calls, over the bindings' values boxed once each (the row engine
       looks a parameter up once per inner row it evaluates) *)
    let cursor = ref 0 in
    let boxed_params =
      lazy (Array.map (fun c -> Array.init ng (fun g -> Some (Column.get c g))) bcols)
    in
    let cursor_env : Ex.lookup =
     fun id ->
      let rec go k =
        if k >= nparams then None
        else if param_ids.(k) = id then (Lazy.force boxed_params).(k).(!cursor)
        else go (k + 1)
      in
      go 0
    in
    let result =
      if existence_only then begin
        let nonempty =
          match Lazy.force native with
          | Some ni -> native_exists v ni bb
          | None ->
              Array.init ng (fun g ->
                  cursor := g;
                  Ex.run_inner ctx cursor_env right <> [])
        in
        let want = kind = Semi in
        Batch.take lb (slots_where n (fun s -> nonempty.(gidx.(s)) = want))
      end
      else begin
        let ib, starts =
          match Lazy.force native with
          | Some ni -> native_rows v ni rschema bb
          | None ->
              let rows =
                Array.init ng (fun g ->
                    cursor := g;
                    Ex.run_inner ctx cursor_env right)
              in
              let starts = Array.make (ng + 1) 0 in
              Array.iteri (fun g rs -> starts.(g + 1) <- starts.(g) + List.length rs) rows;
              (Batch.of_rows rschema (List.concat (Array.to_list rows)), starts)
        in
        assemble ~kind ~pred:pred_flags out_schema lb gidx ib starts
      end
    in
    Batch.chunks ~size:v.batch_size result
  in
  let pending = ref [] in
  let rec pull () =
    match !pending with
    | b :: rest ->
        pending := rest;
        Some b
    | [] -> (
        match child () with
        | None -> None
        | Some lb ->
            if Batch.length lb = 0 then pull ()
            else begin
              pending := process lb;
              pull ()
            end)
  in
  pull

(* Max1row: drain the child; a second row raises the row engine's
   error, otherwise the (at most one) row passes through. *)
and compile_max1row (v : vctx) node (i : op) : source =
  let child = consuming node (compile v i) in
  let schema = Op.schema i in
  emit (fun () ->
      let b = drain schema child in
      if Batch.length b > 1 then Ex.max1row_violation ();
      Batch.chunks ~size:v.batch_size b)

(* Rownum: stream the child, appending an Int column numbered 1..n
   across batch boundaries in emission order. *)
and compile_rownum (v : vctx) node (out : Col.t) (i : op) : source =
  let child = consuming node (compile v i) in
  let ischema = Op.schema i in
  let arity = List.length ischema in
  let schema = ischema @ [ out ] in
  let next = ref 1 in
  fun () ->
    match child () with
    | None -> None
    | Some b ->
        let n = Batch.length b and base = !next in
        next := base + n;
        (* densify lazily, so the new column lines up with the others *)
        let d = Batch.take b (Batch.iota n) in
        let nums = Lazy.from_val (Column.Ints (Array.init n (fun s -> base + s), Column.no_nulls)) in
        let cols = Array.append (Array.sub d.Batch.cols 0 arity) [| nums |] in
        Some { d with Batch.schema; cols }

(* SegmentApply: drain the outer, partition by the segment columns
   (first-seen order, like the row engine), run the inner once per
   segment with the segment bound, and pair each inner row with the
   segment's proto row — segment key columns carry the defining values,
   other outer columns are NULL.  The segment is a typed batch for the
   inner's SegmentHoles; its rows are boxed for [ctx.seg] only when
   the inner may hand a hole to the row engine (an Apply inner or a
   subquery expression). *)
and compile_segment_apply (v : vctx) node (seg_cols : Col.t list) (outer : op)
    (inner : op) : source =
  let osrc = consuming node (compile v outer) in
  let oschema = Op.schema outer and ischema = Op.schema inner in
  let out_schema = oschema @ ischema in
  let oarity = List.length oschema in
  let row_engine_may_read =
    Op.exists_op
      (fun o ->
        (match o with Apply _ -> true | _ -> false)
        || List.exists Relalg.Expr.has_subquery (Op.local_exprs o))
      inner
  in
  emit (fun () ->
      let ob = drain oschema osrc in
      let opos = positions oschema in
      let seg_pos =
        Array.of_list
          (List.map
             (fun (c : Col.t) ->
               match Hashtbl.find_opt opos c.Col.id with
               | Some i -> i
               | None -> runtime_error "segment column missing: %s" c.Col.name)
             seg_cols)
      in
      let n = Batch.length ob in
      let key_cols = Array.map (Batch.gather ob) seg_pos in
      let gidx, ng, reps = group_indices (Array.to_list key_cols) n in
      (match node with
      | Some nd -> Metrics.add_apply_batch nd ~bindings:ng ~dedup_hits:(n - ng)
      | None -> ());
      v.ctx.Ex.apply_batches <- v.ctx.Ex.apply_batches + 1;
      v.ctx.Ex.apply_bindings <- v.ctx.Ex.apply_bindings + ng;
      v.ctx.Ex.apply_dedup_hits <- v.ctx.Ex.apply_dedup_hits + (n - ng);
      (* member slots per segment, in row order *)
      let members = Array.make (max 1 ng) [] in
      for s = n - 1 downto 0 do
        members.(gidx.(s)) <- s :: members.(gidx.(s))
      done;
      let out = ref [] in
      for g = 0 to ng - 1 do
        let saved = v.ctx.Ex.seg and vsaved = v.seg in
        v.seg <- Some (oschema, Batch.take ob (Array.of_list members.(g)));
        if row_engine_may_read then
          v.ctx.Ex.seg <- Some (oschema, List.map (Batch.row ob) members.(g));
        let ib =
          Fun.protect
            ~finally:(fun () ->
              v.ctx.Ex.seg <- saved;
              v.seg <- vsaved)
            (fun () -> drain ischema (compile v inner))
        in
        let m = Batch.length ib in
        if m > 0 then begin
          let proto = Array.make oarity Value.Null in
          Array.iteri (fun k p -> proto.(p) <- Column.get key_cols.(k) reps.(g)) seg_pos;
          let lcols = Array.init oarity (fun c -> lazy (Column.const m proto.(c))) in
          let ibd = Batch.take ib (Batch.iota m) in
          out :=
            { Batch.schema = out_schema;
              cols = Array.append lcols ibd.Batch.cols;
              sel = Batch.iota m
            }
            :: !out
        end
      done;
      List.concat_map (Batch.chunks ~size:v.batch_size) (List.rev !out))

(* SegmentHole: the leaf inside a SegmentApply inner tree that reads
   the current segment's columns.  The segment is consulted at pull
   time, so each per-segment compilation of the inner sees its own
   segment. *)
and compile_segment_hole (v : vctx) (cols : Col.t list) (src : Col.t list) : source =
  emit (fun () ->
      match v.seg with
      | None -> runtime_error "SegmentHole outside SegmentApply"
      | Some (layout, sb) ->
          let pos = positions layout in
          let seg_cols =
            List.map
              (fun (c : Col.t) ->
                match Hashtbl.find_opt pos c.Col.id with
                | Some i -> sb.Batch.cols.(i)
                | None -> runtime_error "segment source column missing: %s" c.Col.name)
              src
          in
          Batch.chunks ~size:v.batch_size
            { Batch.schema = cols; cols = Array.of_list seg_cols; sel = sb.Batch.sel })

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let default_batch_size = 1024

let run ?(batch_size = default_batch_size) (ctx : Ex.ctx) (o : op) : Ex.row list =
  let v = { ctx; batch_size = max 1 batch_size; seg = None } in
  let src = compile v o in
  let rec go acc =
    match src () with None -> List.concat (List.rev acc) | Some b -> go (Batch.to_rows b :: acc)
  in
  go []
