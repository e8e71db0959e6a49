(* Batch-at-a-time columnar executor.

   Operators are pull sources ([unit -> Batch.t option]) compiled from
   the same logical trees the row interpreter runs.  Scalar expressions
   evaluate column-wise over dense slot-indexed arrays with the row
   engine's exact semantics (3VL comparisons, Kleene AND/OR, NULL-strict
   arithmetic) minus short-circuiting, which is observationally
   equivalent on type-correct plans.

   Apply and SegmentApply execute natively as *batched nested
   iteration* (Guravannavar): collect an outer batch, deduplicate the
   correlation-parameter tuples (NULL-safe value hashing), evaluate
   the inner plan once per distinct binding through the row engine's
   parameterized entry point — or, when the inner is a non-indexed
   filterable scan, rewrite at exec time into one hash-probe pass over
   the table against the batched bindings — then scatter the inner
   results back through the selection vector with the bag semantics of
   each Apply variant (cross/outer/semi/anti, SegmentApply's
   per-segment grouping).

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
module Ex = Exec.Executor
module Metrics = Exec.Metrics
open Relalg.Algebra

type source = unit -> Batch.t option

type vctx = { ctx : Ex.ctx; batch_size : int }

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

(* Evaluate [e] over every live row of [b]; the result is a dense
   slot-indexed array aligned with the selection vector. *)
let rec eval_cols (b : Batch.t) (pos : (int, int) Hashtbl.t) (e : expr) : Value.t array =
  let n = Batch.length b in
  match e with
  | ColRef c -> (
      match Hashtbl.find_opt pos c.Col.id with
      | Some i -> Batch.gather b i
      | None -> runtime_error "unbound column in vectorized eval: %s#%d" c.Col.name c.Col.id)
  | Const v -> Array.make n v
  | Arith (op, x, y) ->
      let vx = eval_cols b pos x and vy = eval_cols b pos y in
      let o = arith_op op in
      Array.init n (fun i -> Value.arith o vx.(i) vy.(i))
  | Cmp (op, x, y) ->
      let vx = eval_cols b pos x and vy = eval_cols b pos y in
      Array.init n (fun i ->
          match Value.cmp_sql vx.(i) vy.(i) with
          | None -> Value.Null
          | Some c -> Value.Bool (cmp_holds op c))
  | And (x, y) ->
      let vx = eval_cols b pos x and vy = eval_cols b pos y in
      Array.init n (fun i -> kleene_and vx.(i) vy.(i))
  | Or (x, y) ->
      let vx = eval_cols b pos x and vy = eval_cols b pos y in
      Array.init n (fun i -> kleene_or vx.(i) vy.(i))
  | Not x ->
      let vx = eval_cols b pos x in
      Array.map
        (function
          | Value.Bool bv -> Value.Bool (not bv)
          | Value.Null -> Value.Null
          | v -> runtime_error "NOT applied to non-boolean %s" (Value.to_string v))
        vx
  | IsNull x ->
      let vx = eval_cols b pos x in
      Array.map (fun v -> Value.Bool (Value.is_null v)) vx
  | Like (x, pattern) ->
      let vx = eval_cols b pos x in
      Array.map
        (function
          | Value.Null -> Value.Null
          | Value.Str s -> Value.Bool (Exec.Like.matches ~pattern s)
          | v -> runtime_error "LIKE applied to non-string %s" (Value.to_string v))
        vx
  | Case (branches, els) ->
      let vbranches =
        List.map (fun (c, v) -> (eval_cols b pos c, eval_cols b pos v)) branches
      in
      let velse = Option.map (eval_cols b pos) els in
      Array.init n (fun i ->
          let rec go = function
            | [] -> ( match velse with Some v -> v.(i) | None -> Value.Null)
            | (c, v) :: rest -> (
                match c.(i) with Value.Bool true -> v.(i) | _ -> go rest)
          in
          go vbranches)
  | Subquery _ | Exists _ | InSub _ | QuantCmp _ ->
      (* [expr_eval] routes these row by row *)
      runtime_error "column-wise eval reached a subquery expression"

(* Predicate evaluation straight to keep flags, skipping the boxed
   [Value.Bool] intermediates: a filter keeps exactly the TRUE rows, so
   UNKNOWN collapses to "drop" — and under that reading strict boolean
   AND/OR over flags coincides with Kleene AND/OR on type-correct
   predicates.  Operators without that property (NOT, CASE, bare
   boolean columns) fall back to the 3VL column evaluator. *)
let rec eval_flags (b : Batch.t) (pos : (int, int) Hashtbl.t) (e : expr) : bool array =
  let n = Batch.length b in
  match e with
  | Const (Value.Bool v) -> Array.make n v
  | Const Value.Null -> Array.make n false
  | Cmp (op, x, y) ->
      let vx = eval_cols b pos x and vy = eval_cols b pos y in
      Array.init n (fun i ->
          match Value.cmp_sql vx.(i) vy.(i) with
          | None -> false
          | Some c -> cmp_holds op c)
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
      Array.map Value.is_null vx
  | Like (x, pattern) ->
      let vx = eval_cols b pos x in
      Array.map
        (function
          | Value.Null -> false
          | Value.Str s -> Exec.Like.matches ~pattern s
          | v -> runtime_error "LIKE applied to non-string %s" (Value.to_string v))
        vx
  | _ ->
      let vx = eval_cols b pos e in
      Array.map (function Value.Bool true -> true | _ -> false) vx

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
          Option.map (fun c -> (Lazy.force b.Batch.cols.(c)).(i)) (Hashtbl.find_opt pos id)))

let expr_eval (v : vctx) (e : expr) : Batch.t -> (int, int) Hashtbl.t -> Value.t array =
  if Relalg.Expr.has_subquery e then fun b pos -> per_row b pos (fun env -> Ex.eval v.ctx env e)
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
    Value.t array list =
  List.map
    (fun (c : Col.t) ->
      match Hashtbl.find_opt pos c.Col.id with
      | Some i -> Batch.gather b i
      | None -> runtime_error "grouping column missing: %s" c.Col.name)
    keys

(* Aggregate input evaluators; each input column is evaluated once per
   mega-batch. *)
let agg_inputs (v : vctx) (aggs : agg list) :
    Batch.t -> (int, int) Hashtbl.t -> Value.t array option list =
  let evals = List.map (fun (a : agg) -> Option.map (expr_eval v) (agg_input_expr a.fn)) aggs in
  fun b pos -> List.map (Option.map (fun f -> f b pos)) evals

(* Hash table keyed on a single value — the dominant single-column
   grouping/join-key case skips the per-row key-list allocation of the
   row engine's [VTbl]. *)
module VTbl1 = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Int view of a key column, the columnar engine's main edge over the
   row interpreter: when every live value is [Int] the keys drop into a
   flat [int array] and hashing needs no boxed values at all.
   [min_int] is the table sentinel, so columns containing it (or any
   non-int value) fall back to the generic value-keyed path; NULLs are
   admitted only when the caller gives the sentinel a NULL-consistent
   meaning — "no key" for join keys (NULL never matches), "NULL class"
   for multi-column grouping keys (NULL groups with NULL, matching
   [Value.equal]). *)
let int_sentinel = min_int

let int_key_view ~nulls_ok (col : Value.t array) : int array option =
  let n = Array.length col in
  let out = Array.make n 0 in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    (match col.(!i) with
    | Value.Int k when k <> int_sentinel -> out.(!i) <- k
    | Value.Null when nulls_ok -> out.(!i) <- int_sentinel
    | _ -> ok := false);
    incr i
  done;
  if !ok then Some out else None

(* Open-addressing int -> int map (linear probing, power-of-two
   capacity, [min_int] = empty).  Sized at twice the maximum insert
   count, so probes always terminate. *)
module IntTbl = struct
  type t = { keys : int array; vals : int array; mask : int }

  let create (n : int) : t =
    let cap = ref 64 in
    while !cap < 2 * (n + 1) do
      cap := !cap * 2
    done;
    { keys = Array.make !cap min_int; vals = Array.make !cap 0; mask = !cap - 1 }

  (* index of [k]'s slot: either holds [k] or is empty *)
  let slot (t : t) (k : int) : int =
    let h = k * 0x9E3779B1 land max_int in
    let i = ref (h land t.mask) in
    while t.keys.(!i) <> min_int && t.keys.(!i) <> k do
      i := (!i + 1) land t.mask
    done;
    !i
end

(* ------------------------------------------------------------------ *)
(* Grouped aggregation: group-index arrays + typed kernels            *)
(* ------------------------------------------------------------------ *)

(* Map every row slot to a dense group index (first-appearance order).
   Returns [(gidx, ngroups, out_key_cols)] where [out_key_cols] holds
   one column of length [ngroups] per grouping key. *)
let group_indices (key_cols : Value.t array list) (n : int) :
    int array * int * Value.t array list =
  let gidx = Array.make n 0 in
  match key_cols with
  | [ kc ] ->
      let keys_out = ref (Array.make 64 Value.Null) in
      let ng = ref 0 in
      let push_key k =
        if !ng >= Array.length !keys_out then begin
          let a = Array.make (2 * !ng) Value.Null in
          Array.blit !keys_out 0 a 0 !ng;
          keys_out := a
        end;
        !keys_out.(!ng) <- k;
        incr ng
      in
      (match int_key_view ~nulls_ok:false kc with
      | Some ik ->
          (* pure-int keys: flat-array hashing *)
          let t = IntTbl.create n in
          for s = 0 to n - 1 do
            let i = IntTbl.slot t ik.(s) in
            if t.IntTbl.keys.(i) = min_int then begin
              t.IntTbl.keys.(i) <- ik.(s);
              t.IntTbl.vals.(i) <- !ng;
              push_key kc.(s)
            end;
            gidx.(s) <- t.IntTbl.vals.(i)
          done
      | None ->
          (* single-column key: hash the value directly, no key lists *)
          let groups = VTbl1.create 256 in
          for s = 0 to n - 1 do
            let g =
              match VTbl1.find_opt groups kc.(s) with
              | Some g -> g
              | None ->
                  let g = !ng in
                  VTbl1.add groups kc.(s) g;
                  push_key kc.(s);
                  g
            in
            gidx.(s) <- g
          done);
      (gidx, !ng, [ Array.sub !keys_out 0 !ng ])
  | key_cols ->
      (* multi-column keys: open addressing over representative slots —
         rows compare column-wise against each group's first row, so no
         per-row key list is ever allocated (the row engine's [VTbl]
         path allocates one per input row, which dominated wide-key
         grouping) *)
      let cols = Array.of_list key_cols in
      let k = Array.length cols in
      let cap = ref 64 in
      while !cap < 2 * (n + 1) do
        cap := !cap * 2
      done;
      let table = Array.make !cap (-1) in
      let mask = !cap - 1 in
      let reps = ref (Array.make 64 0) in
      let ng = ref 0 in
      (* per-column int views (NULL -> sentinel: NULL groups with NULL,
         exactly [Value.equal]'s answer) let both hashing and equality
         run on flat ints; hashes accumulate column-major into one
         per-row array, so the boxed [Value.hash] only runs on columns
         that are genuinely non-int *)
      let views = Array.map (int_key_view ~nulls_ok:true) cols in
      let hrow = Array.make n 7 in
      for c = 0 to k - 1 do
        match views.(c) with
        | Some iv ->
            for s = 0 to n - 1 do
              hrow.(s) <- (hrow.(s) * 31) + (iv.(s) * 0x9E3779B1 land max_int)
            done
        | None ->
            let col = cols.(c) in
            for s = 0 to n - 1 do
              hrow.(s) <- (hrow.(s) * 31) + Value.hash col.(s)
            done
      done;
      let equal_rows a b =
        let rec go c =
          c >= k
          || ((match views.(c) with
             | Some iv -> iv.(a) = iv.(b)
             | None -> Value.equal cols.(c).(a) cols.(c).(b))
             && go (c + 1))
        in
        go 0
      in
      for s = 0 to n - 1 do
        let i = ref (hrow.(s) land max_int land mask) in
        let g = ref (-1) in
        while !g < 0 do
          match table.(!i) with
          | -1 ->
              if !ng >= Array.length !reps then begin
                let a = Array.make (2 * !ng) 0 in
                Array.blit !reps 0 a 0 !ng;
                reps := a
              end;
              !reps.(!ng) <- s;
              table.(!i) <- !ng;
              g := !ng;
              incr ng
          | g0 when equal_rows !reps.(g0) s -> g := g0
          | _ -> i := (!i + 1) land mask
        done;
        gidx.(s) <- !g
      done;
      let reps = Array.sub !reps 0 !ng in
      let out = List.map (fun kc -> Array.map (fun s -> kc.(s)) reps) key_cols in
      (gidx, !ng, out)

(* Kernel dispatch: a numeric column whose live values are all Float
   (or all Int) aggregates over unboxed accumulators; anything mixed or
   non-numeric falls back to the row engine's accumulators. *)
type col_class = AllFloat | AllInt | Mixed

let classify_col (col : Value.t array) : col_class =
  let n = Array.length col in
  let rec go i f iv =
    if i >= n then if f && iv then Mixed else if iv then AllInt else AllFloat
    else
      match col.(i) with
      | Value.Float _ -> if iv then Mixed else go (i + 1) true iv
      | Value.Int _ -> if f then Mixed else go (i + 1) f true
      | Value.Null -> go (i + 1) f iv
      | _ -> Mixed
  in
  go 0 false false

(* One aggregate over all groups.  Every kernel reproduces the row
   accumulator's exact fold: same accumulation order (row order), same
   first-value seeding, and final Avg division through [Value.arith],
   so results are bit-identical to the row engine. *)
let agg_grouped (fn : agg_fn) (input : Value.t array option) (gidx : int array)
    (ng : int) (n : int) : Value.t array =
  match input with
  | None ->
      (* count-star: rows per group *)
      let counts = Array.make ng 0 in
      for s = 0 to n - 1 do
        counts.(gidx.(s)) <- counts.(gidx.(s)) + 1
      done;
      Array.map (fun c -> Value.Int c) counts
  | Some col -> (
      let generic () =
        let accs = Array.init ng (fun _ -> Ex.fresh_acc ()) in
        for s = 0 to n - 1 do
          Ex.acc_add accs.(gidx.(s)) col.(s)
        done;
        Array.map (Ex.acc_result fn) accs
      in
      match fn with
      | CountStar | Count _ ->
          let counts = Array.make ng 0 in
          for s = 0 to n - 1 do
            if not (Value.is_null col.(s)) then
              counts.(gidx.(s)) <- counts.(gidx.(s)) + 1
          done;
          Array.map (fun c -> Value.Int c) counts
      | Sum _ | Avg _ -> (
          match classify_col col with
          | AllFloat ->
              let sums = Array.make ng 0.0 and counts = Array.make ng 0 in
              for s = 0 to n - 1 do
                match col.(s) with
                | Value.Float f ->
                    let g = gidx.(s) in
                    (* seed with the first value so -0.0 survives *)
                    sums.(g) <- (if counts.(g) = 0 then f else sums.(g) +. f);
                    counts.(g) <- counts.(g) + 1
                | _ -> ()
              done;
              Array.init ng (fun g ->
                  if counts.(g) = 0 then Value.Null
                  else
                    match fn with
                    | Sum _ -> Value.Float sums.(g)
                    | _ -> Value.arith `Div (Value.Float sums.(g)) (Value.Int counts.(g)))
          | AllInt ->
              let sums = Array.make ng 0 and counts = Array.make ng 0 in
              for s = 0 to n - 1 do
                match col.(s) with
                | Value.Int k ->
                    let g = gidx.(s) in
                    sums.(g) <- sums.(g) + k;
                    counts.(g) <- counts.(g) + 1
                | _ -> ()
              done;
              Array.init ng (fun g ->
                  if counts.(g) = 0 then Value.Null
                  else
                    match fn with
                    | Sum _ -> Value.Int sums.(g)
                    | _ -> Value.arith `Div (Value.Int sums.(g)) (Value.Int counts.(g)))
          | Mixed -> generic ())
      | Min _ | Max _ -> (
          let want_min = match fn with Min _ -> true | _ -> false in
          match classify_col col with
          | AllFloat ->
              let best = Array.make ng 0.0 and seen = Array.make ng false in
              for s = 0 to n - 1 do
                match col.(s) with
                | Value.Float f ->
                    let g = gidx.(s) in
                    if not seen.(g) then begin
                      best.(g) <- f;
                      seen.(g) <- true
                    end
                    else begin
                      let c = Stdlib.compare f best.(g) in
                      if (want_min && c < 0) || ((not want_min) && c > 0) then
                        best.(g) <- f
                    end
                | _ -> ()
              done;
              Array.init ng (fun g ->
                  if seen.(g) then Value.Float best.(g) else Value.Null)
          | AllInt ->
              let best = Array.make ng 0 and seen = Array.make ng false in
              for s = 0 to n - 1 do
                match col.(s) with
                | Value.Int k ->
                    let g = gidx.(s) in
                    if not seen.(g) then begin
                      best.(g) <- k;
                      seen.(g) <- true
                    end
                    else if (want_min && k < best.(g)) || ((not want_min) && k > best.(g))
                    then best.(g) <- k
                | _ -> ()
              done;
              Array.init ng (fun g ->
                  if seen.(g) then Value.Int best.(g) else Value.Null)
          | Mixed -> generic ()))

(* ------------------------------------------------------------------ *)
(* Batched Apply: batched nested iteration over distinct bindings     *)
(* ------------------------------------------------------------------ *)

(* Exec-time hash-join rewrite: the inner is a filtered scan (possibly
   under a projection) with an equality conjunct between a scan column
   and an outer-only expression, and the column has NO index — an
   indexed key already gets O(1) probes per binding through the row
   engine's fast path, so the rewrite targets exactly the case where
   the row engine re-scans the table once per outer row.  One
   hash-probe pass over the table per outer batch serves every
   distinct binding at once. *)
type apply_rewrite = {
  rw_table : string;
  rw_cols : Col.t list;  (** scan schema *)
  rw_key : int;  (** scan-side key column position *)
  rw_probe : expr;  (** outer-only key expression *)
  rw_residual : expr;  (** remaining scan-filter conjuncts *)
  rw_projs : proj list option;  (** Project wrapper, if any *)
}

let detect_apply_rewrite (v : vctx) (right : op) : apply_rewrite option =
  let try_scan projs pred table cols =
    let tb = Storage.Database.table v.ctx.Ex.db table in
    let scan_set = Col.Set.of_list cols in
    let spos = positions cols in
    let conj = conjuncts pred in
    let indexed (c : Col.t) = Storage.Table.find_index tb c.Col.name <> None in
    List.find_map
      (fun cj ->
        let candidate (c : Col.t) e =
          if
            List.exists (Col.equal c) cols
            && Col.Set.is_empty (Col.Set.inter (Relalg.Expr.cols e) scan_set)
            && not (indexed c)
          then
            Option.map
              (fun key ->
                { rw_table = table;
                  rw_cols = cols;
                  rw_key = key;
                  rw_probe = e;
                  rw_residual = conj_list (List.filter (fun x -> x != cj) conj);
                  rw_projs = projs;
                })
              (Hashtbl.find_opt spos c.Col.id)
          else None
        in
        match cj with
        | Cmp (Eq, ColRef c, e) -> candidate c e
        | Cmp (Eq, e, ColRef c) -> candidate c e
        | _ -> None)
      conj
  in
  match right with
  | Select (p, TableScan { table; cols }) -> try_scan None p table cols
  | Project (projs, Select (p, TableScan { table; cols })) ->
      try_scan (Some projs) p table cols
  | _ -> None

(* Evaluate the rewrite for [ng] distinct bindings: hash the binding
   keys, scan the table once, bucket matching rows per binding in table
   order (the row engine's output order for a filtered scan).  Budget
   accounting matches one row-mode Apply iteration per binding, so
   cooperative cancellation fires exactly as in [Ex.run_inner].
   [Value.equal]/[Value.hash] agree with [cmp_sql] on non-NULL values
   (Int/Float coercion included), so hash matching is exact. *)
let run_rewrite (v : vctx) (rw : apply_rewrite) (ng : int) (env_of : int -> Ex.lookup) :
    Ex.row array array =
  let ctx = v.ctx in
  let tb = Storage.Database.table ctx.Ex.db rw.rw_table in
  let spos = positions rw.rw_cols in
  let envs = Array.init ng env_of in
  let build = VTbl1.create (max 16 (2 * ng)) in
  for g = 0 to ng - 1 do
    ctx.Ex.apply_invocations <- ctx.Ex.apply_invocations + 1;
    ctx.Ex.rows_processed <- ctx.Ex.rows_processed + 1;
    Ex.check_budget ctx;
    let k = Ex.eval ctx envs.(g) rw.rw_probe in
    if not (Value.is_null k) then
      VTbl1.replace build k (g :: (try VTbl1.find build k with Not_found -> []))
  done;
  let rows, nrows = Storage.Table.rows_view tb in
  Ex.account_rows ctx nrows;
  let residual_true = is_true_const rw.rw_residual in
  let out = Array.make (max 1 ng) [] in
  for i = 0 to nrows - 1 do
    let r = rows.(i) in
    let key = r.(rw.rw_key) in
    if not (Value.is_null key) then
      match VTbl1.find_opt build key with
      | None -> ()
      | Some gs ->
          List.iter
            (fun g ->
              let lenv id =
                match Hashtbl.find_opt spos id with
                | Some ix -> Some r.(ix)
                | None -> envs.(g) id
              in
              if residual_true || Ex.eval_pred ctx lenv rw.rw_residual then
                out.(g) <- r :: out.(g))
            gs
  done;
  Array.init ng (fun g ->
      let matched = List.rev out.(g) in
      match rw.rw_projs with
      | None -> Array.of_list matched
      | Some projs ->
          Array.of_list
            (List.map
               (fun (r : Ex.row) ->
                 let lenv id =
                   match Hashtbl.find_opt spos id with
                   | Some ix -> Some r.(ix)
                   | None -> envs.(g) id
                 in
                 Array.of_list
                   (List.map (fun (p : proj) -> Ex.eval ctx lenv p.expr) projs))
               matched))

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

(* Scan: batches alias the table's columnar cache; only the selection
   vector is fresh per batch. *)
and compile_scan (v : vctx) (table : string) (cols : Col.t list) : source =
  let tb = Storage.Database.table v.ctx.Ex.db table in
  (* one shared lazy wrapper per execution, so chunked scan batches
     alias the same column array and re-concatenate without copying *)
  let tcols = Array.map Lazy.from_val (Storage.Table.columns tb) in
  let n = Storage.Table.row_count tb in
  let pos = ref 0 in
  fun () ->
    if !pos >= n then None
    else begin
      let start = !pos in
      let stop = min n (start + v.batch_size) in
      pos := stop;
      Some
        { Batch.schema = cols;
          cols = tcols;
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
   keys never match, exactly as in the row engine. *)
and compile_join (v : vctx) node (kind : join_kind) (pred : expr) (left : op) (right : op)
    : source =
  let lsrc = consuming node (compile v left) in
  let rsrc = consuming node (compile v right) in
  let lschema = Op.schema left and rschema = Op.schema right in
  let equi, residual =
    Ex.split_equi_conjuncts pred (Col.Set.of_list lschema) (Col.Set.of_list rschema)
  in
  let keys = List.map (fun (ae, be) -> (expr_eval v ae, expr_eval v be)) equi in
  let residual_pred = pred_eval v (conj_list residual) in
  emit (fun () ->
      let lb = drain lschema lsrc and rb = drain rschema rsrc in
      let lpos = positions lschema and rpos = positions rschema in
      let nr = Batch.length rb and nl = Batch.length lb in
      let built = ref 0 in
      let pls = Ints.create () and prs = Ints.create () in
      (match keys with
      | [] ->
          (* no equi-conjunct (cross or pure theta join): every (l, r)
             pair, with the whole predicate as residual — the row
             engine's nested loop, batch-at-a-time *)
          for s = 0 to nl - 1 do
            for t = 0 to nr - 1 do
              Ints.push pls s;
              Ints.push prs t
            done
          done
      | [ (lkey_of, rkey_of) ] -> (
          let rkey = rkey_of rb rpos in
          let lkey = lkey_of lb lpos in
          match
            (int_key_view ~nulls_ok:true rkey, int_key_view ~nulls_ok:true lkey)
          with
          | Some rk, Some lk ->
              (* both key columns are pure ints: flat-array hash join
                 with build-side duplicate chains in [next] *)
              let t = IntTbl.create nr in
              let next = Array.make (max 1 nr) (-1) in
              for s = 0 to nr - 1 do
                let k = rk.(s) in
                if k <> int_sentinel then begin
                  incr built;
                  let i = IntTbl.slot t k in
                  if t.IntTbl.keys.(i) = min_int then begin
                    t.IntTbl.keys.(i) <- k;
                    t.IntTbl.vals.(i) <- s
                  end
                  else begin
                    next.(s) <- t.IntTbl.vals.(i);
                    t.IntTbl.vals.(i) <- s
                  end
                end
              done;
              for s = 0 to nl - 1 do
                let k = lk.(s) in
                if k <> int_sentinel then begin
                  let i = IntTbl.slot t k in
                  if t.IntTbl.keys.(i) = k then begin
                    let rs = ref t.IntTbl.vals.(i) in
                    while !rs >= 0 do
                      Ints.push pls s;
                      Ints.push prs !rs;
                      rs := next.(!rs)
                    done
                  end
                end
              done
          | _ ->
              (* single-column key: hash the value directly, no key lists *)
              let build = VTbl1.create (max 16 (2 * nr)) in
              for s = 0 to nr - 1 do
                let k = rkey.(s) in
                if not (Value.is_null k) then begin
                  incr built;
                  VTbl1.replace build k
                    (s :: (try VTbl1.find build k with Not_found -> []))
                end
              done;
              for s = 0 to nl - 1 do
                let k = lkey.(s) in
                if not (Value.is_null k) then
                  match VTbl1.find_opt build k with
                  | None -> ()
                  | Some cands ->
                      List.iter (fun rs -> Ints.push pls s; Ints.push prs rs) cands
              done)
      | _ ->
          (* build side: right *)
          let rkeys = List.map (fun (_, rkey_of) -> rkey_of rb rpos) keys in
          let build = Ex.VTbl.create (max 16 (2 * nr)) in
          for s = 0 to nr - 1 do
            let key = List.map (fun kc -> kc.(s)) rkeys in
            if not (List.exists Value.is_null key) then begin
              incr built;
              Ex.VTbl.replace build key
                (s :: (try Ex.VTbl.find build key with Not_found -> []))
            end
          done;
          (* probe side: left *)
          let lkeys = List.map (fun (lkey_of, _) -> lkey_of lb lpos) keys in
          for s = 0 to nl - 1 do
            let key = List.map (fun kc -> kc.(s)) lkeys in
            if not (List.exists Value.is_null key) then
              match Ex.VTbl.find_opt build key with
              | None -> ()
              | Some cands ->
                  List.iter (fun rs -> Ints.push pls s; Ints.push prs rs) cands
          done);
      (match node with Some nd -> Metrics.add_hash_build nd !built | None -> ());
      let pls = Ints.to_array pls and prs = Ints.to_array prs in
      let combined_of pls prs =
        let lpart = Batch.take lb pls and rpart = Batch.take rb prs in
        { Batch.schema = lschema @ rschema;
          cols = Array.append lpart.Batch.cols rpart.Batch.cols;
          sel = Batch.iota (Array.length pls)
        }
      in
      (* residual predicate over the surviving pairs *)
      let pls, prs =
        match residual with
        | [] -> (pls, prs)
        | _ ->
            let combined = combined_of pls prs in
            let cpos = positions (lschema @ rschema) in
            let flags = residual_pred combined cpos in
            let keep = Ints.create () in
            Array.iteri (fun s f -> if f then Ints.push keep s) flags;
            let keep = Ints.to_array keep in
            ( Array.map (fun s -> pls.(s)) keep,
              Array.map (fun s -> prs.(s)) keep )
      in
      let result =
        match kind with
        | Inner -> combined_of pls prs
        | Semi | Anti ->
            let matched = Array.make nl false in
            Array.iter (fun s -> matched.(s) <- true) pls;
            let want = kind = Semi in
            let keep = Ints.create () in
            for s = 0 to nl - 1 do
              if matched.(s) = want then Ints.push keep s
            done;
            Batch.take lb (Ints.to_array keep)
        | LeftOuter ->
            let matched = Array.make nl false in
            Array.iter (fun s -> matched.(s) <- true) pls;
            let unmatched = Ints.create () in
            for s = 0 to nl - 1 do
              if not matched.(s) then Ints.push unmatched s
            done;
            let unmatched = Ints.to_array unmatched in
            let inner = combined_of pls prs in
            let lpart = Batch.take lb unmatched in
            let nulls =
              Array.map
                (fun (_ : Col.t) ->
                  lazy (Array.make (Array.length unmatched) Value.Null))
                (Array.of_list rschema)
            in
            let padded =
              { Batch.schema = lschema @ rschema;
                cols = Array.append lpart.Batch.cols nulls;
                sel = Batch.iota (Array.length unmatched)
              }
            in
            Batch.concat (lschema @ rschema) [ inner; padded ]
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
      let gidx, ng, key_out = group_indices (key_gather mb pos keys) n in
      (match node with Some nd -> Metrics.add_hash_build nd ng | None -> ());
      let inputs = inputs_of mb pos in
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
               (fun (a : agg) input -> (agg_grouped a.fn input gidx 1 n).(0))
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
   evaluate the inner plan once per *distinct* binding — via the
   exec-time hash-join rewrite when the inner is a non-indexed filtered
   scan, else through the row engine's parameterized entry point (which
   itself memoizes the index-probe fast path) — then scatter the inner
   rows back against the outer selection vector.  Pairs are emitted
   slot-major (outer order) with inner rows in inner order, matching
   the row engine's Apply output order exactly. *)
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
  let rewrite = if nparams = 0 then None else detect_apply_rewrite v right in
  let true_pred = is_true_const pred in
  let pred_of = pred_eval v pred in
  let cpos = lazy (positions out_schema) in
  let ctx = v.ctx in
  (* hoist the probe-path cache lookup out of the per-binding loop —
     the row engine's [exec_apply] does the same for its per-row loop *)
  let probe = Ex.probe_path ctx right in
  let run_binding : (Ex.lookup -> Ex.row list) =
    match probe with
    | Some f ->
        fun env ->
          ctx.Ex.apply_invocations <- ctx.Ex.apply_invocations + 1;
          ctx.Ex.rows_processed <- ctx.Ex.rows_processed + 1;
          Ex.check_budget ctx;
          (match node with Some nd -> Metrics.add_fast_hit nd | None -> ());
          f env
    | None -> fun env -> fst (Ex.run_inner ctx env right)
  in
  (* Semi/Anti under a constant-true predicate only need existence per
     binding — no pair construction, no row materialization; with an
     index on the whole inner predicate, not even a row list *)
  let existence_only =
    match kind with Semi | Anti -> true_pred | _ -> false
  in
  let exists_probe =
    if existence_only then Ex.probe_exists_path ctx right else None
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
    let gidx, ng, _ = group_indices (Array.to_list pcols) n in
    (match node with
    | Some nd -> Metrics.add_apply_batch nd ~bindings:ng ~dedup_hits:(n - ng)
    | None -> ());
    ctx.Ex.apply_batches <- ctx.Ex.apply_batches + 1;
    ctx.Ex.apply_bindings <- ctx.Ex.apply_bindings + ng;
    ctx.Ex.apply_dedup_hits <- ctx.Ex.apply_dedup_hits + (n - ng);
    (* representative outer slot per binding *)
    let reps = Array.make (max 1 ng) 0 in
    for s = n - 1 downto 0 do
      reps.(gidx.(s)) <- s
    done;
    let env_of g =
      let s = reps.(g) in
      fun id ->
        let rec go k =
          if k >= nparams then None
          else if param_ids.(k) = id then Some pcols.(k).(s)
          else go (k + 1)
        in
        go 0
    in
    (* one reusable binding environment for the eager per-binding calls
       (a closure per binding only matters at this scale because the
       whole query is tens of microseconds); [run_rewrite] keeps
       [env_of] — it retains one env per binding *)
    let cursor = ref 0 in
    let cursor_env : Ex.lookup =
      if nparams = 1 then (
        let id0 = param_ids.(0) and col0 = pcols.(0) in
        fun id -> if id = id0 then Some col0.(reps.(!cursor)) else None)
      else
        fun id ->
          let s = reps.(!cursor) in
          let rec go k =
            if k >= nparams then None
            else if param_ids.(k) = id then Some pcols.(k).(s)
            else go (k + 1)
          in
          go 0
    in
    let result =
      match rewrite with
      | None when existence_only ->
          (* existence only: no pair construction, no predicate pass,
             and the inner row lists are never materialized as arrays *)
          let want = kind = Semi in
          let nonempty =
            match exists_probe with
            | Some f ->
                Array.init ng (fun g ->
                    cursor := g;
                    ctx.Ex.apply_invocations <- ctx.Ex.apply_invocations + 1;
                    ctx.Ex.rows_processed <- ctx.Ex.rows_processed + 1;
                    Ex.check_budget ctx;
                    (match node with
                    | Some nd -> Metrics.add_fast_hit nd
                    | None -> ());
                    f cursor_env)
            | None ->
                Array.init ng (fun g ->
                    cursor := g;
                    match run_binding cursor_env with
                    | [] -> false
                    | _ :: _ -> true)
          in
          let keep = Ints.create () in
          for s = 0 to n - 1 do
            if nonempty.(gidx.(s)) = want then Ints.push keep s
          done;
          Batch.take lb (Ints.to_array keep)
      | _ ->
          let group_rows =
            match rewrite with
            | Some rw -> run_rewrite v rw ng env_of
            | None ->
                Array.init ng (fun g ->
                    cursor := g;
                    Array.of_list (run_binding cursor_env))
          in
          (match kind with
          | (Semi | Anti) when true_pred ->
              (* existence only off the rewrite's per-group arrays *)
              let want = kind = Semi in
              let keep = Ints.create () in
              for s = 0 to n - 1 do
                if Array.length group_rows.(gidx.(s)) > 0 = want then
                  Ints.push keep s
              done;
              Batch.take lb (Ints.to_array keep)
          | Inner when true_pred ->
              (* every (outer slot, inner row) pair survives: build the
                 output columns in one pass straight off the group row
                 arrays — outer values replicate run-length per slot, no
                 pair-index/row/option intermediates.  This is the hot
                 shape (correlated scan feeding an aggregate). *)
              let counts = Array.make (max 1 n) 0 in
              let npairs = ref 0 in
              for s = 0 to n - 1 do
                let m = Array.length group_rows.(gidx.(s)) in
                counts.(s) <- m;
                npairs := !npairs + m
              done;
              let npairs = !npairs in
              let lcols =
                Array.map
                  (fun col ->
                    lazy
                      (let src = Lazy.force col in
                       let out = Array.make npairs Value.Null in
                       let p = ref 0 in
                       for s = 0 to n - 1 do
                         let v = src.(lb.Batch.sel.(s)) in
                         for _ = 1 to counts.(s) do
                           out.(!p) <- v;
                           incr p
                         done
                       done;
                       out))
                  lb.Batch.cols
              in
              let rcols =
                Array.init (List.length rschema) (fun c ->
                    lazy
                      (let out = Array.make npairs Value.Null in
                       let p = ref 0 in
                       for s = 0 to n - 1 do
                         let rows = group_rows.(gidx.(s)) in
                         for j = 0 to Array.length rows - 1 do
                           out.(!p) <- rows.(j).(c);
                           incr p
                         done
                       done;
                       out))
              in
              { Batch.schema = out_schema;
                cols = Array.append lcols rcols;
                sel = Batch.iota npairs
              }
          | _ ->
          (* scatter: one (outer slot, inner row) pair list, slot-major *)
          let starts = Array.make (n + 1) 0 in
          for s = 0 to n - 1 do
            starts.(s + 1) <- starts.(s) + Array.length group_rows.(gidx.(s))
          done;
          let npairs = starts.(n) in
          let pair_slots = Array.make npairs 0 in
          let pair_rows = Array.make (max 1 npairs) [||] in
          for s = 0 to n - 1 do
            let rows = group_rows.(gidx.(s)) in
            let base = starts.(s) in
            Array.iteri
              (fun j r ->
                pair_slots.(base + j) <- s;
                pair_rows.(base + j) <- r)
              rows
          done;
          let flags =
            if true_pred then [||] (* unused: every pair is kept *)
            else begin
              let lpart = Batch.take lb pair_slots in
              let rpart =
                Batch.scatter rschema (Array.init npairs (fun p -> Some pair_rows.(p)))
              in
              let combined =
                { Batch.schema = out_schema;
                  cols = Array.append lpart.Batch.cols rpart.Batch.cols;
                  sel = Batch.iota npairs
                }
              in
              pred_of combined (Lazy.force cpos)
            end
          in
          let kept p = true_pred || flags.(p) in
          let paired slots rows =
            let lpart = Batch.take lb slots and rpart = Batch.scatter rschema rows in
            { Batch.schema = out_schema;
              cols = Array.append lpart.Batch.cols rpart.Batch.cols;
              sel = Batch.iota (Array.length slots)
            }
          in
          (match kind with
          | Inner ->
              let keep = Ints.create () in
              Array.iteri (fun p f -> if f then Ints.push keep p) flags;
              let keep = Ints.to_array keep in
              paired
                (Array.map (fun p -> pair_slots.(p)) keep)
                (Array.map (fun p -> Some pair_rows.(p)) keep)
          | LeftOuter ->
              (* matched pairs in place; an unmatched outer slot emits one
                 NULL-padded row ([Batch.scatter] expands [None]) *)
              let slots = Ints.create () and rows = ref [] in
              for s = 0 to n - 1 do
                let matched = ref false in
                for p = starts.(s) to starts.(s + 1) - 1 do
                  if kept p then begin
                    matched := true;
                    Ints.push slots s;
                    rows := Some pair_rows.(p) :: !rows
                  end
                done;
                if not !matched then begin
                  Ints.push slots s;
                  rows := None :: !rows
                end
              done;
              paired (Ints.to_array slots) (Array.of_list (List.rev !rows))
          | Semi | Anti ->
              let want = kind = Semi in
              let keep = Ints.create () in
              for s = 0 to n - 1 do
                let matched = ref false in
                for p = starts.(s) to starts.(s + 1) - 1 do
                  if kept p then matched := true
                done;
                if !matched = want then Ints.push keep s
              done;
              Batch.take lb (Ints.to_array keep)))
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
        let nums = lazy (Array.init n (fun s -> Value.Int (base + s))) in
        let cols = Array.append (Array.sub d.Batch.cols 0 arity) [| nums |] in
        Some { d with Batch.schema; cols }

(* SegmentApply: drain the outer, partition by the segment columns
   (first-seen order, like the row engine), run the inner once per
   segment with [ctx.seg] bound, and pair each inner row with the
   segment's proto row — segment key columns carry the defining values,
   other outer columns are NULL. *)
and compile_segment_apply (v : vctx) node (seg_cols : Col.t list) (outer : op)
    (inner : op) : source =
  let osrc = consuming node (compile v outer) in
  let oschema = Op.schema outer and ischema = Op.schema inner in
  let out_schema = oschema @ ischema in
  let oarity = List.length oschema in
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
      let gidx, ng, _ = group_indices (Array.to_list key_cols) n in
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
        let slots = members.(g) in
        let seg_rows = List.map (Batch.row ob) slots in
        let rep = List.hd slots in
        let saved = v.ctx.Ex.seg in
        v.ctx.Ex.seg <- Some (oschema, seg_rows);
        let ib =
          Fun.protect
            ~finally:(fun () -> v.ctx.Ex.seg <- saved)
            (fun () -> drain ischema (compile v inner))
        in
        let m = Batch.length ib in
        if m > 0 then begin
          let proto = Array.make oarity Value.Null in
          Array.iteri (fun k p -> proto.(p) <- key_cols.(k).(rep)) seg_pos;
          let lcols = Array.init oarity (fun c -> lazy (Array.make m proto.(c))) in
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
   the current segment.  [ctx.seg] is consulted at pull time, so each
   per-segment compilation of the inner sees its own segment. *)
and compile_segment_hole (v : vctx) (cols : Col.t list) (src : Col.t list) : source =
  emit (fun () ->
      match v.ctx.Ex.seg with
      | None -> runtime_error "SegmentHole outside SegmentApply"
      | Some (layout, rows) ->
          let pos = positions layout in
          let idx =
            List.map
              (fun (c : Col.t) ->
                match Hashtbl.find_opt pos c.Col.id with
                | Some i -> i
                | None -> runtime_error "segment source column missing: %s" c.Col.name)
              src
          in
          let projected =
            List.map
              (fun (r : Ex.row) -> Array.of_list (List.map (fun i -> r.(i)) idx))
              rows
          in
          Batch.chunks ~size:v.batch_size (Batch.of_rows cols projected))

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let default_batch_size = 1024

let run ?(batch_size = default_batch_size) (ctx : Ex.ctx) (o : op) : Ex.row list =
  let v = { ctx; batch_size = max 1 batch_size } in
  let src = compile v o in
  let rec go acc =
    match src () with None -> List.concat (List.rev acc) | Some b -> go (Batch.to_rows b :: acc)
  in
  go []
