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

   Apply and SegmentApply run as *batched nested iteration*
   (Guravannavar): per outer batch, the distinct correlation-parameter
   tuples are the bindings, and the inner plan runs once for all of
   them, set-oriented, by the paper's identities applied at run time
   ([compile] under a [scope]); an Apply's own predicate joins its
   inner first.  A subtree that reads no parameter runs
   once and every binding shares its rows; the lowest operator that
   reads one joins its input with the bindings (an index probe for all
   their keys, or one hash pass); above it every row carries its
   binding id, which grouping, joins, Except, segments, ScalarAgg,
   Max1row and Rownum key or count on.  Each binding's rows keep the
   row engine's order.  A subquery inside an expression is an Apply
   over the rows that reach it, evaluated as lazily as the row engine
   evaluates CASE, AND and OR.

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
let instrument (len : 'a -> int) (v : vctx) (o : op) (node : Metrics.node option)
    (pull : unit -> 'a option) : unit -> 'a option =
  let fault_kind = Ex.op_fault_kind o in
  fun () ->
    (match v.ctx.Ex.faults with None -> () | Some f -> Exec.Faults.tick f fault_kind);
    Ex.check_budget v.ctx;
    match node with
    | None ->
        let r = pull () in
        (match r with Some b -> Ex.account_rows v.ctx (len b) | None -> ());
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
            Metrics.record nd ~elapsed_s:(Unix.gettimeofday () -. t0) ~rows_out:(len b);
            Metrics.add_batch nd;
            Ex.account_rows v.ctx (len b)
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

(* Binding of every candidate, from the runs [starts] delimits. *)
let bindings_of (starts : int array) : int array =
  let ng = Array.length starts - 1 in
  let bind = Array.make starts.(ng) 0 in
  for g = 0 to ng - 1 do
    Array.fill bind starts.(g) (starts.(g + 1) - starts.(g)) g
  done;
  bind

(* Pair each outer slot with its binding's inner rows — slot-major,
   each binding's rows in inner order, the row engine's Apply output
   order — and, when [outer], a slot whose binding has none with one
   row of NULLs.  [ib] is dense; binding [g]'s rows are
   [starts.(g) .. starts.(g+1) - 1].  Output columns are gathers: the
   outer side's at the pairs' physical rows, the inner side's at the
   pairs' inner rows — or the inner columns as they are when each slot
   has its own binding, in order, and none is padded, so pair [p] reads
   inner row [p]. *)
let assemble ~(outer : bool) (out_schema : Col.t list) (lb : Batch.t) (gidx : int array)
    (ib : Batch.t) (starts : int array) : Batch.t =
  let n = Batch.length lb in
  let lo s = starts.(gidx.(s)) and hi s = starts.(gidx.(s) + 1) in
  let width s = if outer then max 1 (hi s - lo s) else hi s - lo s in
  let npairs = ref 0 in
  for s = 0 to n - 1 do
    npairs := !npairs + width s
  done;
  let in_order =
    Array.length starts = n + 1
    && !npairs = starts.(n)
    &&
    let rec go s = s >= n || (gidx.(s) = s && go (s + 1)) in
    go 0
  in
  let lphys = Array.make !npairs 0 in
  let rrows = if in_order then [||] else Array.make !npairs (-1) in
  let p = ref 0 in
  for s = 0 to n - 1 do
    for j = lo s to lo s + width s - 1 do
      lphys.(!p) <- lb.Batch.sel.(s);
      if (not in_order) && j < hi s then rrows.(!p) <- j;
      incr p
    done
  done;
  { Batch.schema = out_schema;
    cols =
      Array.append
        (Array.map (fun c -> lazy (Column.gather (Lazy.force c) lphys)) lb.Batch.cols)
        (if in_order then ib.Batch.cols
         else Array.map (fun c -> lazy (Column.gather_padded (Lazy.force c) rrows)) ib.Batch.cols);
    sel = Batch.iota !npairs
  }

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
(* Bindings                                                           *)
(* ------------------------------------------------------------------ *)

(* A SegmentApply outer's rows (dense, laid out as [hlayout]), each
   with its segment: the binding whose SegmentHoles read it. *)
type hole = { hlayout : Col.t list; hrows : Batch.t; hbid : int array }

(* The bindings a compiled plan runs for, all at once: [nb] of them,
   numbered 0 .. nb-1, with their parameter values (one dense row per
   binding) and, inside a SegmentApply inner, the segment rows.  A plan
   outside any Apply runs for one binding with no parameters. *)
type env = { nb : int; params : Batch.t; hole : hole option }

(* What a bound plan reads, known at compile time: the parameters
   ([env.params]'s schema) and the columns of the enclosing
   SegmentApply's outer, which its SegmentHoles mirror. *)
type scope = { pcols : Col.t list; holes : Col.Set.t }

(* A bound plan tags every row of every batch with its binding, in a
   last column under this id (no plan column has a negative id). *)
let bid_col = { Col.id = -1; name = "binding"; ty = Value.TInt }

let no_bindings = { nb = 1; params = { Batch.schema = []; cols = [||]; sel = [| 0 |] }; hole = None }

(* Does a subtree with free columns [free] read a binding? *)
let reads (sc : scope option) (free : Col.Set.t) =
  match sc with
  | None -> false
  | Some sc ->
      (not (Col.Set.disjoint free sc.holes)) || List.exists (fun c -> Col.Set.mem c free) sc.pcols

(* A plan's batches: its schema, tagged with the binding when bound. *)
let tagged sc schema = match sc with None -> schema | Some _ -> schema @ [ bid_col ]

(* What an expression over a plan's rows reads: the tagged schema and
   the parameters ([with_params]). *)
let layout sc schema = match sc with None -> schema | Some sc -> schema @ (bid_col :: sc.pcols)

(* The binding of every live row of a tagged batch. *)
let ints = function
  | Column.Ints (a, _) -> a
  | c when Column.length c = 0 -> [||]
  | _ -> runtime_error "binding column is not an int column"

let bids (b : Batch.t) : int array = ints (Batch.gather b (List.length b.Batch.schema - 1))

let binding_ids sc (b : Batch.t) : int array =
  match sc with None -> Array.make (Batch.length b) 0 | Some _ -> bids b

(* A tagged batch laid out as [layout]: every parameter appended,
   gathered through each physical row's binding — only if read. *)
let with_params sc (env : env) (b : Batch.t) : Batch.t =
  match sc with
  | None -> b
  | Some _ ->
      let arity = List.length b.Batch.schema in
      let bid = lazy (ints (Lazy.force b.Batch.cols.(arity - 1))) in
      { b with
        Batch.schema = b.Batch.schema @ env.params.Batch.schema;
        cols =
          Array.append (Array.sub b.Batch.cols 0 arity)
            (Array.map (fun c -> lazy (Column.gather (Lazy.force c) (Lazy.force bid))) env.params.Batch.cols)
      }

(* The scope of a plan nested under rows laid out as [lay] (an Apply
   inner, a subquery): its parameters are the columns of [lay] it
   reads.  When it reads the enclosing SegmentHole, its bindings keep
   the enclosing binding apart ([bind] ~hole), so each takes that
   binding's segment. *)
let nested sc (lay : Col.t list) (free : Col.Set.t) : Col.t list * bool * scope option =
  let seen = Hashtbl.create 8 in
  let pcols =
    List.filter
      (fun (c : Col.t) ->
        Col.Set.mem c free
        && (not (Hashtbl.mem seen c.Col.id))
        && (Hashtbl.add seen c.Col.id ();
            true))
      lay
  in
  let holes =
    match sc with Some s when not (Col.Set.disjoint free s.holes) -> s.holes | _ -> Col.Set.empty
  in
  (pcols, not (Col.Set.is_empty holes), Some { pcols; holes })

(* One dense row per binding: the parameters [keys] (columns [kcols])
   at each binding's first row [reps]. *)
let params_at (keys : Col.t list) (kcols : Column.t list) (reps : int array) : Batch.t =
  { Batch.schema = keys;
    cols = Array.of_list (List.map (fun c -> Lazy.from_val (Column.gather c reps)) kcols);
    sel = Batch.iota (Array.length reps)
  }

(* The bindings of a nested plan over the rows of [b] (positions
   [pos]): the distinct tuples of its parameters [keys] (NULL-safe,
   the equality of grouping), numbered in order of first appearance,
   and the binding of every row. *)
let bind (env : env) (b : Batch.t) pos (keys : Col.t list) ~(hole : bool) : int array * env =
  let col (c : Col.t) = Batch.gather b (Hashtbl.find pos c.Col.id) in
  let kcols = List.map col keys in
  let parent = if hole then [ col bid_col ] else [] in
  let gidx, ng, reps = group_indices (kcols @ parent) (Batch.length b) in
  let hole =
    match (parent, env.hole) with
    | [ parent ], Some h ->
        (* each binding's segment rows: the enclosing binding's *)
        let rows = Ints.create () and owner = Ints.create () in
        ignore
          (hash_join_pairs
             [ Column.Ints (h.hbid, Column.no_nulls) ]
             [ Column.gather parent reps ]
             ~nl:(Array.length h.hbid) ~nr:ng rows owner);
        Some { h with hrows = Batch.take h.hrows (Ints.to_array rows); hbid = Ints.to_array owner }
    | _ -> None
  in
  (gidx, { nb = ng; params = params_at keys kcols reps; hole })

(* One batched-Apply outer batch of [n] rows with [ng] bindings. *)
let count_bindings (v : vctx) node n ng =
  (match node with Some nd -> Metrics.add_apply_batch nd ~bindings:ng ~dedup_hits:(n - ng) | None -> ());
  v.ctx.Ex.apply_batches <- v.ctx.Ex.apply_batches + 1;
  v.ctx.Ex.apply_bindings <- v.ctx.Ex.apply_bindings + ng;
  v.ctx.Ex.apply_dedup_hits <- v.ctx.Ex.apply_dedup_hits + (n - ng)

(* A batch layout with its column positions, built once per operator. *)
type laid = { cols : Col.t list; pos : (int, int) Hashtbl.t }

let laid cols = { cols; pos = positions cols }

(* The columns [want] of batches laid out as [lay]. *)
let pick (lay : Col.t list) (want : Col.t list) : Batch.t -> Batch.t =
  let pos = positions lay in
  let idx = Array.of_list (List.map (fun (c : Col.t) -> Hashtbl.find pos c.Col.id) want) in
  fun b -> { Batch.schema = want; cols = Array.map (fun i -> b.Batch.cols.(i)) idx; sel = b.Batch.sel }

(* ------------------------------------------------------------------ *)
(* Operator compilation                                               *)
(* ------------------------------------------------------------------ *)

let batches (src : source) : Batch.t list =
  let rec go acc = match src () with None -> List.rev acc | Some b -> go (b :: acc) in
  go []

(* Drain a source into one dense batch (blocking operators). *)
let drain (schema : Col.t list) (src : source) : Batch.t = Batch.concat schema (batches src)

(* Every binding's rows of a bound plan: [starts] delimiting binding
   [g]'s rows, and (built only if read) one dense batch under [schema],
   binding-major with each binding's rows in stream order (the row
   engine's).  An existence test reads only [starts]. *)
let collect (schema : Col.t list) (nb : int) (src : source) : Batch.t Lazy.t * int array =
  let bs = batches src and arity = List.length schema in
  let starts = Array.make (nb + 1) 0 and sorted = ref true and last = ref 0 in
  List.iter
    (fun b ->
      let bid = bids b in
      for s = 0 to Array.length bid - 1 do
        let g = bid.(s) in
        starts.(g + 1) <- starts.(g + 1) + 1;
        if g < !last then sorted := false;
        last := g
      done)
    bs;
  for g = 0 to nb - 1 do
    starts.(g + 1) <- starts.(g + 1) + starts.(g)
  done;
  let dense =
    lazy
      (let b = Batch.concat (schema @ [ bid_col ]) bs in
       let d =
         if !sorted && Batch.is_iota b.Batch.sel then b
         else
           (* a stable counting sort on the binding *)
           let fill = Array.sub starts 0 (max 1 nb) and perm = Array.make (Batch.length b) 0 in
           Array.iteri
             (fun s g ->
               perm.(fill.(g)) <- s;
               fill.(g) <- fill.(g) + 1)
             (bids b);
           Batch.take b perm
       in
       { d with Batch.schema; cols = Array.sub d.Batch.cols 0 arity })
  in
  (dense, starts)

(* A subtree that reads no binding, for every binding: its one result
   ([share]: dense), repeated binding-major. *)
let lift (v : vctx) (env : env) (shared : Batch.t Lazy.t) : source =
  let g = ref 0 and pending = ref [] in
  let rec pull () =
    match !pending with
    | b :: rest ->
        pending := rest;
        Ex.account_rows v.ctx (Batch.length b);
        Some b
    | [] when !g < env.nb ->
        let fb = Lazy.force shared in
        let bid = Column.Ints (Array.make (Batch.length fb) !g, Column.no_nulls) in
        g := if Batch.length fb = 0 then env.nb else !g + 1;
        pending :=
          Batch.chunks ~size:v.batch_size
            { fb with
              Batch.schema = fb.Batch.schema @ [ bid_col ];
              cols = Array.append fb.Batch.cols [| Lazy.from_val bid |]
            };
        pull ()
    | [] -> None
  in
  pull

(* Emit a precomputed result chunk by chunk. *)
let emit (make : unit -> 'a list) : unit -> 'a option =
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

(* A filter's input rows paired with the bindings ([bindings_join]):
   [n] pairs, a batch of them built only if read, and, binding-major,
   each binding's run of them when the join knows it. *)
type joined = { n : int; pairs : Batch.t Lazy.t; runs : int array option }

(* [compile v sc o] is [o]'s plan, instantiated per set of bindings:
   an ordinary plan without a scope, and inside an Apply inner
   binding-aware as the header describes. *)
let rec compile (v : vctx) (sc : scope option) (o : op) : env -> source =
  if Option.is_some sc && not (reads sc (Op.free_cols o)) then
    let shared = share v o in
    fun env -> lift v env shared
  else
    let node = metrics_node v o in
    let src =
      match o with
      | TableScan { table; cols } -> fun _ -> compile_scan v table cols
      | ConstTable { cols; rows } ->
          fun _ -> emit (fun () -> Batch.chunks ~size:v.batch_size (Batch.of_rows cols rows))
      | CseScan { id; cols; _ } ->
          fun _ ->
            emit (fun () ->
                let rows =
                  match v.ctx.Ex.cse with
                  | None -> runtime_error "CseScan without a CSE store: %s" id
                  | Some fetch -> fetch id
                in
                Ex.account_rows v.ctx (List.length rows);
                Batch.chunks ~size:v.batch_size (Batch.of_rows cols rows))
      | Select (p, i) -> compile_select v sc node p i
      | Project (projs, i) -> compile_project v sc node projs i
      | Join { kind; pred; left; right } -> compile_join v sc node kind pred left right
      | GroupBy { keys; aggs; input } | LocalGroupBy { keys; aggs; input } ->
          compile_group_by v sc node keys aggs input
      | ScalarAgg { aggs; input } -> compile_scalar_agg v sc node aggs input
      | UnionAll (l, r) -> compile_union v sc node (Op.schema o) l r
      | Except (l, r) -> compile_except v sc node l r
      | Apply { kind; pred; left; right } -> compile_apply v sc node kind pred left right
      | SegmentApply { seg_cols; outer; inner } ->
          compile_segment_apply v sc node seg_cols outer inner
      | SegmentHole { cols; src } -> compile_segment_hole v cols src
      | Max1row i -> compile_max1row v sc node i
      | Rownum { out; input } -> compile_rownum v sc node out input
    in
    fun env -> instrument Batch.length v o node (src env)

(* A subtree's rows as one dense batch, computed once on first use. *)
and share (v : vctx) (o : op) : Batch.t Lazy.t =
  lazy
    (let b = drain (Op.schema o) (compile v None o no_bindings) in
     if Batch.is_iota b.Batch.sel then b else Batch.take b (Batch.iota (Batch.length b)))

(* Every binding's rows of a bound plan [o] where [p] holds
   ([collect]).  A filter that joins its input with the bindings hands
   its runs over itself, and builds its rows only if they are read: an
   existence test reads none. *)
and collected (v : vctx) sc (p : expr) (o : op) : env -> Batch.t Lazy.t * int array =
  let schema = Op.schema o in
  let join =
    match (sc, o) with
    | Some s, Select (q, i) when is_true_const p && reads sc (Op.free_cols o) ->
        bindings_join v s (metrics_node v o) q i
    | _ -> None
  in
  match join with
  | None ->
      let plan = if is_true_const p then compile v sc o else compile_select v sc None p o in
      fun env -> collect schema env.nb (plan env)
  | Some join -> (
      let node = metrics_node v o in
      fun env ->
        let pull = instrument (fun j -> j.n) v o node (emit (fun () -> [ join env ])) in
        let j = Option.get (pull ()) in
        ignore (pull ());
        match j.runs with
        | Some runs ->
            ( lazy
                (let b = Lazy.force j.pairs in
                 { b with Batch.schema; cols = Array.sub b.Batch.cols 0 (List.length schema) }),
              runs )
        | None -> collect schema env.nb (emit (fun () -> [ Lazy.force j.pairs ])))

(* [e] over batches laid out as [lay], column-wise.  A subquery runs as
   an Apply over the rows that reach it: AND, OR and CASE evaluate an
   operand only on the rows the row engine evaluates it for.  A
   subquery-free expression is never split ([eval_flags]'s batch-level
   AND skips the right conjunct where the left one is NULL). *)
and expr_eval (v : vctx) sc (l : laid) (e : expr) : env -> Batch.t -> Column.t =
  let sub = expr_eval v sc l in
  let at (f : env -> Batch.t -> Column.t) env b (slots : int array) (out : Value.t array) =
    let c = f env (Batch.take b slots) in
    Array.iteri (fun j s -> out.(s) <- Column.get c j) slots
  in
  match e with
  | _ when not (Relalg.Expr.has_subquery e) -> fun _ b -> eval_cols b l.pos e
  | Subquery q | Exists q | InSub (_, q) | QuantCmp (_, _, _, q) -> compile_subquery v sc l e q
  | And (x, y) | Or (x, y) ->
      let fx = sub x and fy = sub y in
      let decided, combine =
        match e with And _ -> (Value.Bool false, kleene_and) | _ -> (Value.Bool true, kleene_or)
      in
      fun env b ->
        let cx = fx env b in
        let vx = Array.init (Batch.length b) (Column.get cx) in
        let out = Array.copy vx in
        let rest = slots_where (Array.length vx) (fun s -> vx.(s) <> decided) in
        at fy env b rest out;
        Array.iter (fun s -> out.(s) <- combine vx.(s) out.(s)) rest;
        Column.of_values out
  | Case (branches, els) ->
      let arms = List.map (fun (c, x) -> (sub c, sub x)) branches and fe = Option.map sub els in
      fun env b ->
        let out = Array.make (Batch.length b) Value.Null in
        let rest =
          List.fold_left
            (fun rest (fc, fx) ->
              let hit = truthy (fc env (Batch.take b rest)) in
              let where want =
                Array.map (Array.get rest) (slots_where (Array.length rest) (fun j -> hit.(j) = want))
              in
              at fx env b (where true) out;
              where false)
            (Batch.iota (Batch.length b))
            arms
        in
        Option.iter (fun f -> at f env b rest out) fe;
        Column.of_values out
  | _ ->
      (* a strict operator: its operands on every row, then its kernel
         over the operand columns *)
      let tmp k = { Col.id = -2 - k; name = "operand"; ty = Value.TInt } in
      let a = ColRef (tmp 0) and b = ColRef (tmp 1) in
      let kids, e' =
        match e with
        | Arith (op, x, y) -> ([ x; y ], Arith (op, a, b))
        | Cmp (op, x, y) -> ([ x; y ], Cmp (op, a, b))
        | Not x -> ([ x ], Not a)
        | IsNull x -> ([ x ], IsNull a)
        | Like (x, p) -> ([ x ], Like (a, p))
        | _ -> ([], e)
      in
      let tmps = List.mapi (fun k _ -> tmp k) kids in
      let fs = List.map sub kids and tpos = positions tmps in
      fun env b ->
        let cols = Array.of_list (List.map (fun f -> Lazy.from_val (f env b)) fs) in
        eval_cols { Batch.schema = tmps; cols; sel = Batch.iota (Batch.length b) } tpos e'

(* A subquery node: the subquery's rows for the bindings of the rows
   that reach it, combined per row as the row engine's [eval] does. *)
and compile_subquery v sc (l : laid) (e : expr) (q : op) : env -> Batch.t -> Column.t =
  let keys, hole, qsc = nested sc l.cols (Op.free_cols q) in
  let plan = lazy (collected v qsc true_ q) in
  let lhs =
    match e with InSub (a, _) | QuantCmp (_, _, a, _) -> Some (expr_eval v sc l a) | _ -> None
  in
  let op, decisive = match e with QuantCmp (op, quant, _, _) -> (op, quant = Any) | _ -> (Eq, true) in
  fun env b ->
    let n = Batch.length b in
    if n = 0 then Column.nulls 0
    else begin
      let va = Option.map (fun f -> f env b) lhs in
      let gidx, qenv = bind env b l.pos keys ~hole in
      let rows, starts = Lazy.force plan qenv in
      let first = lazy (Batch.gather (Lazy.force rows) 0) in
      Column.init n (fun s ->
          let lo = starts.(gidx.(s)) and hi = starts.(gidx.(s) + 1) in
          match (e, va) with
          | Exists _, _ -> Value.Bool (hi > lo)
          | _, None ->
              if hi = lo then Value.Null
              else if hi - lo > 1 then runtime_error "scalar subquery returned more than one row"
              else Column.get (Lazy.force first) lo
          | _, Some va ->
              (* ANY: TRUE if one comparison holds; ALL: FALSE if one
                 fails; else NULL if one was UNKNOWN *)
              let a = Column.get va s and hit = ref false and unknown = ref false in
              for j = lo to hi - 1 do
                match Value.cmp_sql a (Column.get (Lazy.force first) j) with
                | None -> unknown := true
                | Some c -> if cmp_holds op c = decisive then hit := true
              done;
              if !hit then Value.Bool decisive
              else if !unknown then Value.Null
              else Value.Bool (not decisive))
    end

and pred_eval v sc (l : laid) (p : expr) : env -> Batch.t -> bool array =
  if Relalg.Expr.has_subquery p then
    let f = expr_eval v sc l p in
    fun env b -> truthy (f env b)
  else fun _ b -> eval_flags b l.pos p

(* Aggregate input evaluators; each input column is evaluated once per
   mega-batch. *)
and agg_inputs v sc (l : laid) (aggs : agg list) : env -> Batch.t -> Column.t option list =
  let evals = List.map (fun (a : agg) -> Option.map (expr_eval v sc l) (agg_input_expr a.fn)) aggs in
  fun env b -> List.map (Option.map (fun f -> f env b)) evals

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
   compacting the selection vector; columns are untouched.  A filter
   that reads a parameter over a subtree that reads none starts from
   that subtree's pairs with the bindings ([bindings_join]). *)
and compile_select (v : vctx) sc node (p : expr) (i : op) : env -> source =
  let child, p =
    match Option.bind sc (fun s -> bindings_join v s node p i) with
    | Some join -> ((fun env -> emit (fun () -> [ Lazy.force (join env).pairs ])), true_)
    | None ->
        let c = compile v sc i in
        ((fun env -> consuming node (c env)), p)
  in
  let pred = pred_eval v sc (laid (layout sc (Op.schema i))) p in
  fun env ->
    let child = child env in
    if is_true_const p then child
    else fun () ->
      match child () with
      | None -> None
      | Some b ->
          let flags = pred env (with_params sc env b) in
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

(* The lowest operator that reads a parameter, over a subtree [i] that
   reads none: its equalities with the parameters pair each row of [i]
   with its bindings, in [i]'s order — by the scan column's index (the
   row engine's pick, {!Op.index_eq}; one table view; an index probe
   counted per binding) or one hash pass over [i]'s shared rows.  Each
   other conjunct then keeps the pairs it holds on, over columns
   gathered at exactly those pairs; probed pairs keep their binding
   runs.  [None] without an equality, or when [i] reads a parameter or
   [p] holds a subquery. *)
and bindings_join (v : vctx) (sc : scope) node (p : expr) (i : op) : (env -> joined) option =
  let ischema = Op.schema i in
  let ppos = positions sc.pcols and lpos = positions (layout (Some sc) ischema) in
  let pairs (cols : Batch.col array) (rows : int array) (bid : int array Lazy.t) =
    { Batch.schema = ischema @ [ bid_col ];
      cols =
        Array.append
          (Array.map
             (fun c -> lazy (Column.gather (Lazy.force c) rows))
             (Array.sub cols 0 (List.length ischema)))
          [| lazy (Column.Ints (Lazy.force bid, Column.no_nulls)) |];
      sel = Batch.iota (Array.length rows)
    }
  in
  let narrow env cols (rows, runs, bid) cj =
    if is_true_const cj || Array.length rows = 0 then (rows, runs, bid)
    else
      let keep = true_slots (eval_flags (with_params (Some sc) env (pairs cols rows bid)) lpos cj) in
      (* a run now ends after the kept pairs that precede its old end *)
      let runs =
        Option.map
          (fun s ->
            let j = ref 0 in
            Array.map
              (fun stop ->
                while !j < Array.length keep && keep.(!j) < stop do incr j done;
                !j)
              s)
          runs
      in
      ( Array.map (Array.get rows) keep,
        runs,
        match runs with
        | Some k -> lazy (bindings_of k)
        | None -> lazy (Array.map (Array.get (Lazy.force bid)) keep) )
  in
  let filtered find residual env =
    let cols, candidates, runs, bid = find env in
    Ex.account_rows v.ctx (Array.length candidates);
    (match node with Some nd -> Metrics.add_rows_in nd (Array.length candidates) | None -> ());
    let rows, runs, bid = List.fold_left (narrow env cols) (candidates, runs, bid) (conjuncts residual) in
    { n = Array.length rows; pairs = lazy (pairs cols rows bid); runs }
  in
  let index =
    match i with
    | TableScan { table; cols } ->
        let tb = Storage.Database.table v.ctx.Ex.db table in
        Option.map
          (fun found -> (tb, found))
          (Op.index_eq ~cols p ~indexed:(fun c -> Storage.Table.find_index tb c.Col.name))
    | _ -> None
  in
  match index with
  | _ when reads (Some sc) (Op.free_cols i) || Relalg.Expr.has_subquery p -> None
  | Some (tb, (ix, key, residual)) ->
      let probe env =
        let keys = eval_cols env.params ppos key in
        let vals =
          Array.init env.nb (fun g ->
              (match node with Some nd -> Metrics.add_fast_hit nd | None -> ());
              Column.get keys g)
        in
        let cols, starts, rows = Storage.Table.probe ix tb vals in
        (Array.map Lazy.from_val cols, rows, Some starts, lazy (bindings_of starts))
      in
      Some (filtered probe residual)
  | None -> (
      match Ex.split_equi_conjuncts p (Col.Set.of_list ischema) (Col.Set.of_list sc.pcols) with
      | [], _ -> None
      | equi, residual ->
          let shared = share v i and ipos = positions ischema in
          let hash env =
            let fb = Lazy.force shared in
            let keys side pos b = List.map (fun kk -> eval_cols b pos (side kk)) equi in
            let rows = Ints.create () and bid = Ints.create () in
            ignore
              (hash_join_pairs (keys fst ipos fb) (keys snd ppos env.params)
                 ~nl:(Batch.length fb) ~nr:env.nb rows bid);
            (fb.Batch.cols, Ints.to_array rows, None, Lazy.from_val (Ints.to_array bid))
          in
          Some (filtered hash (conj_list residual)))

and compile_project (v : vctx) sc node (projs : proj list) (i : op) : env -> source =
  let child = compile v sc i in
  let l = laid (layout sc (Op.schema i)) in
  let schema = tagged sc (List.map (fun (p : proj) -> p.out) projs) in
  let exprs =
    List.map (fun (p : proj) -> p.expr) projs @ match sc with None -> [] | Some _ -> [ ColRef bid_col ]
  in
  let evals = List.map (expr_eval v sc l) exprs in
  let renames =
    List.filter_map (function ColRef c -> Hashtbl.find_opt l.pos c.Col.id | _ -> None) exprs
  in
  fun env ->
    let child = consuming node (child env) in
    fun () ->
      match child () with
      | None -> None
      | Some b ->
          let b = with_params sc env b in
          if List.length renames = List.length exprs then
            (* rename-only: alias the input's physical columns and keep
               its selection vector — zero copying *)
            Some
              { Batch.schema;
                cols = Array.of_list (List.map (Array.get b.Batch.cols) renames);
                sel = b.Batch.sel
              }
          else
            (* eager: computed projections evaluate now, like the row
               engine, so runtime errors surface at the same point *)
            let cols = Array.of_list (List.map (fun f -> Lazy.from_val (f env b)) evals) in
            Some { Batch.schema; cols; sel = Batch.iota (Batch.length b) }

(* Hash join over drained inputs: key pairs (NULL keys never match),
   the residual over the pairs, the output per kind in the row
   engine's order.  Conjuncts over the right side alone filter it
   first.  A key-less Semi/Anti join builds no pairs (a TRUE predicate
   asks once whether the right side is empty, another stops each left
   row at its first match); any other key-less join charges its |L|·|R|
   pairs to the budget first.  Bound, the binding is one more key, and
   a side that reads no binding is shared unless it must be seen per
   binding (the preserved side of an outer, semi or anti join). *)
and compile_join (v : vctx) sc node (kind : join_kind) (pred : expr) (left : op)
    (right : op) : env -> source =
  let lschema = Op.schema left and rschema = Op.schema right in
  let rbound = reads sc (Op.free_cols right) in
  let lbound = Option.is_some sc && (reads sc (Op.free_cols left) || not (rbound && kind = Inner)) in
  let side bound o =
    if bound || Option.is_none sc then
      let plan = compile v sc o in
      fun env -> with_params sc env (drain (tagged sc (Op.schema o)) (consuming node (plan env)))
    else
      let shared = share v o in
      fun _ -> Lazy.force shared
  in
  let lside = side lbound left and rside = side rbound right in
  let llay = if lbound then layout sc lschema else lschema in
  let rlay = if rbound then layout sc rschema else rschema in
  let cschema = llay @ rlay in
  let ll = laid llay and rl = laid rlay and cl = laid cschema in
  let rset = Col.Set.of_list rschema in
  let equi, residual = Ex.split_equi_conjuncts pred (Col.Set.of_list lschema) rset in
  let equi = if lbound && rbound then (ColRef bid_col, ColRef bid_col) :: equi else equi in
  (* a subquery-free conjunct over the right side alone filters the
     right input before any pair is formed — no pair survives it under
     any join kind *)
  let right_only, residual =
    List.partition
      (fun c -> (not (Relalg.Expr.has_subquery c)) && Col.Set.subset (Relalg.Expr.cols c) rset)
      residual
  in
  let right_filter =
    if right_only = [] then None else Some (pred_eval v sc rl (conj_list right_only))
  in
  let keys = List.map (fun (ae, be) -> (expr_eval v sc ll ae, expr_eval v sc rl be)) equi in
  let residual = conj_list residual in
  let residual_pred = pred_eval v sc cl residual in
  let stops_early =
    (match kind with Semi | Anti -> true | Inner | LeftOuter -> false)
    && keys = []
    && not (Relalg.Expr.has_subquery residual)
  in
  let out =
    match (sc, kind) with
    | None, _ -> Fun.id
    | Some _, (Semi | Anti) -> pick llay (tagged sc lschema)
    | Some _, (Inner | LeftOuter) -> pick cschema (tagged sc (lschema @ rschema))
  in
  fun env ->
    emit (fun () ->
        let lb = lside env in
        let rb = rside env in
        let rb =
          match right_filter with
          | None -> rb
          | Some f -> Batch.take rb (true_slots (f env rb))
        in
        let nr = Batch.length rb and nl = Batch.length lb in
        let result =
          if stops_early then begin
            let want = kind = Semi in
            let matched =
              if is_true_const residual then Array.make nl (nr > 0)
              else exists_per_left ~block:v.batch_size lb rb cl.pos cschema residual
            in
            Batch.take lb (slots_where nl (fun s -> matched.(s) = want))
          end
          else begin
            let pls = Ints.create () and prs = Ints.create () in
            (match keys with
            | [] ->
                (* no equi-conjunct (cross or pure theta join): every
                   (l, r) pair, with the whole predicate as residual —
                   the row engine's nested loop, batch-at-a-time *)
                Ex.account_rows v.ctx (nl * nr);
                for s = 0 to nl - 1 do
                  for t = 0 to nr - 1 do
                    Ints.push pls s;
                    Ints.push prs t
                  done
                done
            | _ ->
                let lkeys = List.map (fun (lkey_of, _) -> lkey_of env lb) keys in
                let rkeys = List.map (fun (_, rkey_of) -> rkey_of env rb) keys in
                let built = hash_join_pairs lkeys rkeys ~nl ~nr pls prs in
                match node with Some nd -> Metrics.add_hash_build nd built | None -> ());
            let pls = Ints.to_array pls and prs = Ints.to_array prs in
            (* left slot [pls.(p)] beside right slot [prs.(p)], or NULLs
               where [prs.(p) < 0] *)
            let combined_of pls prs =
              (* each side's physical rows, only once one of its columns is read *)
              let phys (b : Batch.t) ss =
                lazy (Array.map (fun s -> if s < 0 then -1 else b.Batch.sel.(s)) ss)
              in
              let lp = phys lb pls and rp = phys rb prs in
              { Batch.schema = cschema;
                cols =
                  Array.append
                    (Array.map (fun c -> lazy (Column.gather (Lazy.force c) (Lazy.force lp))) lb.Batch.cols)
                    (Array.map
                       (fun c -> lazy (Column.gather_padded (Lazy.force c) (Lazy.force rp)))
                       rb.Batch.cols);
                sel = Batch.iota (Array.length pls)
              }
            in
            (* residual predicate over the surviving pairs *)
            let pls, prs =
              if is_true_const residual then (pls, prs)
              else
                let keep = true_slots (residual_pred env (combined_of pls prs)) in
                (Array.map (fun s -> pls.(s)) keep, Array.map (fun s -> prs.(s)) keep)
            in
            let np = Array.length pls in
            match kind with
            | Inner -> combined_of pls prs
            | Semi | Anti ->
                let want = kind = Semi in
                let m = Array.make nl false in
                Array.iter (fun s -> m.(s) <- true) pls;
                Batch.take lb (slots_where nl (fun s -> m.(s) = want))
            | LeftOuter ->
                (* pairs are left-major: each left row's matches in
                   place, an unmatched one padded with NULLs *)
                let ls = Ints.create () and rs = Ints.create () and p = ref 0 in
                for s = 0 to nl - 1 do
                  if !p < np && pls.(!p) = s then
                    while !p < np && pls.(!p) = s do
                      Ints.push ls s;
                      Ints.push rs prs.(!p);
                      incr p
                    done
                  else begin
                    Ints.push ls s;
                    Ints.push rs (-1)
                  end
                done;
                combined_of (Ints.to_array ls) (Ints.to_array rs)
          end
        in
        Batch.chunks ~size:v.batch_size (out result))

and compile_group_by v sc node (keys : Col.t list) (aggs : agg list) (input : op) =
  let nk = List.length keys in
  compile_agg v sc node (keys @ List.map (fun (a : agg) -> a.out) aggs) aggs input
    (fun _ _ pos mb ->
      (* bound: the binding is the last key, and goes last *)
      let key_cols = key_gather mb pos (tagged sc keys) in
      let gidx, ng, reps = group_indices key_cols (Batch.length mb) in
      (match node with Some nd -> Metrics.add_hash_build nd ng | None -> ());
      let out = List.map (fun kc -> Lazy.from_val (Column.gather kc reps)) key_cols in
      (gidx, ng, List.filteri (fun k _ -> k < nk) out, List.filteri (fun k _ -> k >= nk) out))

(* One row per binding, over its rows; an empty binding's row is the
   aggregates over no rows — the count compensation of §3.2 (Kim's
   COUNT bug), done at run time. *)
and compile_scalar_agg v sc node (aggs : agg list) (input : op) =
  compile_agg v sc node (List.map (fun (a : agg) -> a.out) aggs) aggs input (fun env tb _ _ ->
      let bid = Lazy.from_val (Column.Ints (Batch.iota env.nb, Column.no_nulls)) in
      (binding_ids sc tb, env.nb, [], match sc with None -> [] | Some _ -> [ bid ]))

(* Aggregation over the drained input: [group] numbers each row's
   group and gives the output columns before and after the
   aggregates. *)
and compile_agg (v : vctx) sc node (schema : Col.t list) (aggs : agg list) (input : op) group :
    env -> source =
  let child = compile v sc input in
  let ischema = Op.schema input in
  let l = laid (layout sc ischema) in
  let inputs_of = agg_inputs v sc l aggs in
  fun env ->
    let child = consuming node (child env) in
    emit (fun () ->
        let tb = drain (tagged sc ischema) child in
        let mb = with_params sc env tb in
        let gidx, ng, before, after = group env tb l.pos mb in
        let out =
          List.map2
            (fun (a : agg) input -> Lazy.from_val (agg_grouped a.fn input gidx ng (Batch.length mb)))
            aggs (inputs_of env mb)
        in
        Batch.chunks ~size:v.batch_size
          { Batch.schema = tagged sc schema;
            cols = Array.of_list (before @ out @ after);
            sel = Batch.iota ng
          })

(* UNION ALL streams: all left batches, then all right batches,
   relabelled to the union's output schema. *)
and compile_union (v : vctx) sc node (schema : Col.t list) (l : op) (r : op) : env -> source =
  let ls = compile v sc l and rs = compile v sc r in
  let schema = tagged sc schema in
  fun env ->
    let ls = consuming node (ls env) and rs = consuming node (rs env) in
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
   stream left batches, dropping one occurrence per counted row (bound,
   the binding is part of the row). *)
and compile_except (v : vctx) sc node (l : op) (r : op) : env -> source =
  let ls = compile v sc l and rs = compile v sc r in
  fun env ->
    let ls = consuming node (ls env) and rs = consuming node (rs env) in
    let counts =
      lazy
        (let counts = Ex.VTbl.create 64 in
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

(* Batched Apply.  The predicate joins the inner first: Apply_p(R, E)
   is Apply(R, σ_p E) under every kind, so each binding's inner rows
   are its matches.  Per outer batch: deduplicate the correlation
   parameter tuples (NULL-safe, same value equality as grouping), run
   the inner once for all the distinct bindings, set-oriented
   ([compile] under the inner's scope), then keep or drop each outer
   slot by its binding's emptiness (Semi/Anti) or pair the inner rows
   back with the outer slots ([assemble]).  Nested in a bound plan, its
   bindings take the enclosing parameters the inner reads as well. *)
and compile_apply (v : vctx) sc node (kind : join_kind) (pred : expr) (left : op) (right : op)
    : env -> source =
  let lschema = Op.schema left and rschema = Op.schema right in
  let llay = layout sc lschema in
  let keys, hole, isc = nested sc llay (Op.free_cols (Select (pred, right))) in
  let lsrc = compile v sc left in
  let lpos = positions llay in
  (* the inner compiles on the first outer batch: an Apply whose outer
     is empty pays nothing for it *)
  let inner = lazy (collected v isc pred right) in
  let out =
    match (sc, kind) with
    | None, _ -> Fun.id
    | Some _, (Semi | Anti) -> pick llay (tagged sc lschema)
    | Some _, (Inner | LeftOuter) -> pick (llay @ rschema) (tagged sc (lschema @ rschema))
  in
  fun env ->
    let child = consuming node (lsrc env) in
    let process (lb : Batch.t) : Batch.t list =
      let lb = with_params sc env lb in
      let n = Batch.length lb in
      let gidx, ienv = bind env lb lpos keys ~hole in
      let ng = ienv.nb in
      count_bindings v node n ng;
      for _ = 1 to ng do
        Ex.tick_binding v.ctx
      done;
      let ib, starts = Lazy.force inner ienv in
      let result =
        match kind with
        | Semi | Anti ->
            let want = kind = Semi in
            Batch.take lb
              (slots_where n (fun s -> starts.(gidx.(s) + 1) > starts.(gidx.(s)) = want))
        | Inner | LeftOuter ->
            assemble ~outer:(kind = LeftOuter) (llay @ rschema) lb gidx (Lazy.force ib) starts
      in
      Batch.chunks ~size:v.batch_size (out result)
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

(* Max1row: drain the child; a second row of one binding raises the
   row engine's error, otherwise the rows pass through. *)
and compile_max1row (v : vctx) sc node (i : op) : env -> source =
  let child = compile v sc i in
  let schema = tagged sc (Op.schema i) in
  fun env ->
    let child = consuming node (child env) in
    emit (fun () ->
        let b = drain schema child in
        let seen = Array.make env.nb false in
        Array.iter
          (fun g ->
            if seen.(g) then Ex.max1row_violation ();
            seen.(g) <- true)
          (binding_ids sc b);
        Batch.chunks ~size:v.batch_size b)

(* Rownum: stream the child, appending an Int column numbered 1..n per
   binding across batch boundaries in emission order. *)
and compile_rownum (v : vctx) sc node (out : Col.t) (i : op) : env -> source =
  let child = compile v sc i in
  let ischema = Op.schema i in
  let arity = List.length ischema in
  let schema = tagged sc (ischema @ [ out ]) in
  fun env ->
    let child = consuming node (child env) in
    let next = Array.make env.nb 1 in
    fun () ->
      match child () with
      | None -> None
      | Some b ->
          (* densify lazily, so the new column lines up with the others *)
          let d = Batch.take b (Batch.iota (Batch.length b)) in
          let nums =
            Array.map
              (fun g ->
                next.(g) <- next.(g) + 1;
                next.(g) - 1)
              (binding_ids sc d)
          in
          let cols = Array.sub d.Batch.cols 0 arity in
          let bid = Array.sub d.Batch.cols arity (List.length schema - arity - 1) in
          Some
            { d with
              Batch.schema;
              cols = Array.concat [ cols; [| Lazy.from_val (Column.Ints (nums, Column.no_nulls)) |]; bid ]
            }

(* SegmentApply: drain the outer, partition it by the segment columns
   (first-seen order, like the row engine) and run the inner once for
   all segments, each segment a binding whose SegmentHoles read its
   rows; each inner row is paired with its segment's proto row —
   segment key columns carry the defining values, other outer columns
   are NULL.  Bound, each binding segments apart. *)
and compile_segment_apply (v : vctx) sc node (seg_cols : Col.t list) (outer : op) (inner : op) :
    env -> source =
  let oschema = Op.schema outer and ischema = Op.schema inner in
  let osrc = compile v sc outer in
  let olay = layout sc oschema in
  let opos = positions olay in
  (* the outer's columns reach the inner through its SegmentHoles *)
  let ifree = Op.free_cols inner in
  let keys = match sc with None -> [] | Some s -> List.filter (fun c -> Col.Set.mem c ifree) s.pcols in
  let iplan = lazy (collected v (Some { pcols = keys; holes = Col.Set.of_list oschema }) true_ inner) in
  let segs = tagged sc seg_cols in
  fun env ->
    let osrc = consuming node (osrc env) in
    emit (fun () ->
        let ob = drain (tagged sc oschema) osrc in
        let n = Batch.length ob in
        let ob = with_params sc env (Batch.take ob (Batch.iota n)) in
        let key_cols = key_gather ob opos segs in
        let gidx, ng, reps = group_indices key_cols n in
        count_bindings v node n ng;
        if ng = 0 then []
        else begin
          let params = params_at keys (key_gather ob opos keys) reps in
          let ienv = { nb = ng; params; hole = Some { hlayout = olay; hrows = ob; hbid = gidx } } in
          let ib, starts = Lazy.force iplan ienv in
          let ib = Lazy.force ib in
          let m = Batch.length ib in
          (* the outer slot whose segment each inner row belongs to *)
          let at = Array.map (fun g -> reps.(g)) (bindings_of starts) in
          let seg_col (c : Col.t) =
            match Hashtbl.find_opt (positions segs) c.Col.id with
            | Some k -> lazy (Column.gather (List.nth key_cols k) at)
            | None -> lazy (Column.nulls m)
          in
          let bid = match sc with None -> [] | Some _ -> [ seg_col bid_col ] in
          Batch.chunks ~size:v.batch_size
            { Batch.schema = tagged sc (oschema @ ischema);
              cols = Array.of_list (List.map seg_col oschema @ Array.to_list ib.Batch.cols @ bid);
              sel = Batch.iota m
            }
        end)

(* SegmentHole: the leaf inside a SegmentApply inner tree that reads
   the segments' rows, each tagged with its segment. *)
and compile_segment_hole (v : vctx) (cols : Col.t list) (src : Col.t list) : env -> source =
 fun env ->
  emit (fun () ->
      match env.hole with
      | None -> runtime_error "SegmentHole outside SegmentApply"
      | Some h ->
          let pos = positions h.hlayout in
          let seg_cols =
            List.map
              (fun (c : Col.t) ->
                match Hashtbl.find_opt pos c.Col.id with
                | Some i -> h.hrows.Batch.cols.(i)
                | None -> runtime_error "segment source column missing: %s" c.Col.name)
              src
          in
          Batch.chunks ~size:v.batch_size
            { Batch.schema = cols @ [ bid_col ];
              cols = Array.of_list (seg_cols @ [ Lazy.from_val (Column.Ints (h.hbid, Column.no_nulls)) ]);
              sel = h.hrows.Batch.sel
            })

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let default_batch_size = 1024

let run ?(batch_size = default_batch_size) (ctx : Ex.ctx) (o : op) : Ex.row list =
  let v = { ctx; batch_size = max 1 batch_size } in
  let src = compile v None o no_bindings in
  let rec go acc =
    match src () with None -> List.concat (List.rev acc) | Some b -> go (Batch.to_rows b :: acc)
  in
  go []
