(* Per-operator runtime metrics (EXPLAIN ANALYZE).

   A metrics tree mirrors the plan tree: one node per operator, plus
   one node per subquery embedded in a scalar expression (the bound
   tree's mutual recursion).  The executor looks nodes up by the
   *physical* identity of the plan node — the plan is immutable during
   execution, so pointer equality is exact and the lookup never
   confuses two structurally identical subtrees.

   Counters are cumulative across invocations (an Apply re-runs its
   inner tree per outer row): invocations, rows in/out, inclusive wall
   time, index probes made instead of scans, and hash-table build sizes
   for hash joins and hash aggregation.  When no metrics tree is
   installed in the executor context the whole layer costs one [match]
   per operator evaluation. *)

open Relalg
open Relalg.Algebra

(* Hashing by physical identity: [Hashtbl.hash] is depth-limited (so
   cheap on deep plans) and stable for a given pointer; collisions
   between structurally similar subtrees are resolved by [==]. *)
module PhysTbl = Hashtbl.Make (struct
  type t = op

  let equal = ( == )
  let hash (o : op) = Hashtbl.hash o
end)

type node = {
  label : string Lazy.t;
      (** operator rendering, [Pp.label] — lazy because rendering every
          node eagerly made [create] the dominant fixed cost of
          metrics-enabled execution on sub-millisecond queries *)
  mutable invocations : int;  (** times the operator was evaluated *)
  mutable rows_in : int;  (** cumulative input rows consumed *)
  mutable rows_out : int;  (** cumulative output rows produced *)
  mutable elapsed_s : float;  (** cumulative wall time, inclusive of children *)
  mutable fast_path_hits : int;
      (** index probes made instead of a scan, counted on the Select
          over the scan: one per evaluation in the row engine, one per
          distinct binding of a batched Apply's probing inner *)
  mutable hash_build_rows : int;  (** hash-join build rows / aggregation groups *)
  mutable batches : int;  (** vectorized batches produced (vector mode) *)
  mutable apply_batches : int;  (** outer batches processed by batched Apply *)
  mutable apply_bindings : int;  (** distinct correlation-parameter sets evaluated *)
  mutable apply_dedup_hits : int;
      (** outer rows served by an already-evaluated binding (batched
          Apply dedup; row mode evaluates the inner once per row) *)
  children : node list;
}

type t = { root : node; index : node PhysTbl.t }

(* Subquery trees embedded in a scalar expression (binder output):
   they execute through [run] too, so they get metrics nodes. *)
let rec expr_subqueries (e : expr) : op list =
  match e with
  | ColRef _ | Const _ -> []
  | Arith (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      expr_subqueries a @ expr_subqueries b
  | Not a | IsNull a | Like (a, _) -> expr_subqueries a
  | Case (branches, els) ->
      List.concat_map (fun (c, v) -> expr_subqueries c @ expr_subqueries v) branches
      @ (match els with Some e -> expr_subqueries e | None -> [])
  | Subquery q | Exists q -> [ q ]
  | InSub (a, q) -> expr_subqueries a @ [ q ]
  | QuantCmp (_, _, a, q) -> expr_subqueries a @ [ q ]

let create (plan : op) : t =
  let index = PhysTbl.create 64 in
  let rec build ?(sub = false) (o : op) : node =
    let subs = List.concat_map expr_subqueries (Op.local_exprs o) in
    let node =
      { label = lazy ((if sub then "(sub) " else "") ^ Pp.label o);
        invocations = 0;
        rows_in = 0;
        rows_out = 0;
        elapsed_s = 0.;
        fast_path_hits = 0;
        hash_build_rows = 0;
        batches = 0;
        apply_batches = 0;
        apply_bindings = 0;
        apply_dedup_hits = 0;
        children =
          List.map (fun c -> build c) (Op.children o)
          @ List.map (build ~sub:true) subs;
      }
    in
    PhysTbl.replace index o node;
    node
  in
  { root = build plan; index }

let root (m : t) : node = m.root
let find (m : t) (o : op) : node option = PhysTbl.find_opt m.index o

let record (n : node) ~(elapsed_s : float) ~(rows_out : int) : unit =
  n.invocations <- n.invocations + 1;
  n.elapsed_s <- n.elapsed_s +. elapsed_s;
  n.rows_out <- n.rows_out + rows_out

let add_rows_in (n : node) (k : int) = n.rows_in <- n.rows_in + k
let add_fast_hit (n : node) = n.fast_path_hits <- n.fast_path_hits + 1
let add_hash_build (n : node) (k : int) = n.hash_build_rows <- n.hash_build_rows + k
let add_batch (n : node) = n.batches <- n.batches + 1

let add_apply_batch (n : node) ~(bindings : int) ~(dedup_hits : int) =
  n.apply_batches <- n.apply_batches + 1;
  n.apply_bindings <- n.apply_bindings + bindings;
  n.apply_dedup_hits <- n.apply_dedup_hits + dedup_hits

(* Tree-wide totals, for bench artifacts that need one number per run. *)
let rec total (f : node -> int) (n : node) : int =
  f n + List.fold_left (fun acc c -> acc + total f c) 0 n.children

(* Output rows per input row, when the node consumed anything; the
   vector-mode rendering reports it as the operator's selectivity. *)
let selectivity (n : node) : float option =
  if n.rows_in <= 0 then None else Some (float_of_int n.rows_out /. float_of_int n.rows_in)

(* --- rendering ------------------------------------------------------- *)

(* [times:false] drops wall-clock figures: golden tests need output
   that is stable run to run. *)
let render ?(times = true) (root : node) : string =
  let buf = Buffer.create 1024 in
  let rec go indent (n : node) =
    Buffer.add_string buf indent;
    Buffer.add_string buf (Lazy.force n.label);
    if n.invocations = 0 then Buffer.add_string buf "  [not executed]"
    else begin
      Buffer.add_string buf
        (Printf.sprintf "  (inv=%d in=%d out=%d" n.invocations n.rows_in n.rows_out);
      if times then Buffer.add_string buf (Printf.sprintf " time=%.3fs" n.elapsed_s);
      if n.fast_path_hits > 0 then
        Buffer.add_string buf (Printf.sprintf " fast-path=%d" n.fast_path_hits);
      if n.hash_build_rows > 0 then
        Buffer.add_string buf (Printf.sprintf " hash-build=%d" n.hash_build_rows);
      if n.batches > 0 then begin
        Buffer.add_string buf (Printf.sprintf " batches=%d" n.batches);
        match selectivity n with
        | Some s -> Buffer.add_string buf (Printf.sprintf " sel=%.2f" s)
        | None -> ()
      end;
      if n.apply_batches > 0 then
        Buffer.add_string buf
          (Printf.sprintf " apply-batches=%d bindings=%d dedup-hits=%d" n.apply_batches
             n.apply_bindings n.apply_dedup_hits);
      Buffer.add_string buf ")"
    end;
    Buffer.add_char buf '\n';
    List.iter (go (indent ^ "  ")) n.children
  in
  go "" root;
  Buffer.contents buf

(* --- JSON ------------------------------------------------------------ *)

let rec to_json (n : node) : string =
  Printf.sprintf
    "{\"op\":%s,\"invocations\":%d,\"rows_in\":%d,\"rows_out\":%d,\"elapsed_s\":%.6f,\"fast_path_hits\":%d,\"hash_build_rows\":%d,\"batches\":%d,\"apply_batches\":%d,\"apply_bindings\":%d,\"apply_dedup_hits\":%d%s,\"children\":[%s]}"
    (Json.string (Lazy.force n.label)) n.invocations n.rows_in n.rows_out n.elapsed_s
    n.fast_path_hits n.hash_build_rows n.batches n.apply_batches n.apply_bindings
    n.apply_dedup_hits
    (match selectivity n with
    | Some s when n.batches > 0 -> Printf.sprintf ",\"selectivity\":%.4f" s
    | _ -> "")
    (String.concat "," (List.map to_json n.children))
