(* Common-subexpression store: materialized shared subplans.

   A batch (Engine.query_many) detects subplans that occur several
   times — across statements, within one statement, or across batches
   via entries already interned here — and materializes the beneficial
   ones once.  Occurrences are then replaced by [CseScan] leaves whose
   id names an entry.

   Identity is the structural fingerprint [Relalg.Fingerprint] — the
   one the plan search deduplicates on: column ids are numbered by
   first occurrence, so two subtrees that differ only in fresh column
   identities (every base-table occurrence gets fresh ids) fingerprint
   equal, and their schemas correspond positionally — which is exactly
   the contract [CseScan] needs.

   The store is two tables.  Interned plans are never dropped, so an
   id embedded in a plan never dangles.  Their rows live in a
   [Plan_cache] keyed by id, which brings the byte budget, the LRU,
   generation-vector invalidation, single-flight materialization and
   the counters: an evicted or stale entry is simply re-materialized by
   the next [fetch].  Generations are captured BEFORE executing the
   subplan, so a mutation that lands mid-materialization invalidates
   the next read rather than being lost. *)

open Relalg
open Relalg.Algebra

let id_of_fingerprint (fp : string) : string =
  "cse_" ^ String.sub (Digest.to_hex (Digest.string fp)) 0 16

(* --- candidate enumeration ----------------------------------------- *)

(* Closed, materializable subtrees: no free columns (not correlated
   into their context), no SegmentHole (reads the enclosing segment),
   no CseScan (entry plans must stay store-independent), at least one
   base-table scan (a constant computation is not worth a slot), and
   not a bare leaf.  ALL closed subtrees qualify, not only maximal
   ones: the shared part of two plans is often an inner aggregate under
   differing projections. *)
let candidates (o : op) : (string * op) list =
  let acc = ref [] in
  let rec walk o =
    (match o with
    | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ -> ()
    | _ ->
        if
          Col.Set.is_empty (Op.free_cols o)
          && (not
                (Op.exists_op
                   (function SegmentHole _ | CseScan _ -> true | _ -> false)
                   o))
          && Op.exists_op (function TableScan _ -> true | _ -> false) o
        then acc := (Fingerprint.of_op o, o) :: !acc);
    List.iter walk (Op.children o)
  in
  walk o;
  List.rev !acc

(* --- the store ----------------------------------------------------- *)

type entry = { plan : op;  (** CseScan-free by construction *) tables : string list }

type t = {
  mu : Mutex.t;  (** guards [plans]; never held while a subplan runs *)
  plans : (string, entry) Hashtbl.t;
  rows : Value.t array list Plan_cache.t;
}

let create ?(max_bytes = 64 * 1024 * 1024) () : t =
  { mu = Mutex.create (); plans = Hashtbl.create 16; rows = Plan_cache.create ~max_bytes () }

let interned (t : t) : int = Mutex.protect t.mu (fun () -> Hashtbl.length t.plans)

(* Is a fingerprint already interned (counts as an extra occurrence in
   the batch benefit heuristic)?  And does it currently hold rows
   (materialization already paid)? *)
let status (t : t) (fp : string) : [ `Absent | `Known | `Materialized ] =
  let id = id_of_fingerprint fp in
  if not (Mutex.protect t.mu (fun () -> Hashtbl.mem t.plans id)) then `Absent
  else if Plan_cache.mem t.rows id then `Materialized
  else `Known

let intern (t : t) (plan : op) : string =
  let id = id_of_fingerprint (Fingerprint.of_op plan) in
  Mutex.protect t.mu (fun () ->
      if not (Hashtbl.mem t.plans id) then
        Hashtbl.add t.plans id { plan; tables = Op.tables plan });
  id

let row_bytes (rows : Value.t array list) : int =
  List.fold_left
    (fun acc r ->
      Array.fold_left
        (fun acc v ->
          acc + match v with Value.Str s -> 16 + String.length s | _ -> 16)
        (acc + 16) r)
    0 rows

exception Unknown_id of string

(* Read an entry's rows, materializing them with [exec] when absent or
   stale.  Entry plans contain no CseScan, so [exec] cannot re-enter
   the store. *)
let fetch (t : t) ~(exec : op -> Value.t array list) ~(current_gen : string -> int)
    (id : string) : Value.t array list =
  let e =
    match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.plans id) with
    | Some e -> e
    | None -> raise (Unknown_id id)
  in
  match
    Plan_cache.find_or_compute t.rows ~key:id ~current_gen ~compute:(fun () ->
        let gens = List.map (fun table -> (table, current_gen table)) e.tables in
        let rows = exec e.plan in
        (rows, gens, row_bytes rows))
  with
  | `Hit rows | `Miss rows | `Stale rows -> rows
