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

   Invalidation is generation-based and checked on every read: [fetch]
   compares the generation vector captured just before the last
   materialization against the live counters and re-materializes on any
   movement.  Generations are captured BEFORE executing the subplan, so
   a mutation that lands mid-materialization invalidates the next read
   rather than being lost.  Eviction under the byte budget drops an
   entry's rows only; the metadata stays, so an id embedded in a plan
   never dangles — the next fetch simply re-materializes. *)

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

let tables_of (o : op) : string list =
  let acc = ref [] in
  let rec walk o =
    (match o with
    | TableScan { table; _ } -> if not (List.mem table !acc) then acc := table :: !acc
    | _ -> ());
    List.iter walk (Op.children o)
  in
  walk o;
  List.rev !acc

(* --- the store ----------------------------------------------------- *)

type entry = {
  id : string;
  plan : op;  (** CseScan-free by construction *)
  schema : Col.t list;
  tables : string list;
  cost : float;  (** optimizer cost of recomputing [plan] *)
  rows_hint : int;
  mutable rows : Value.t array list option;  (** None: not materialized / evicted *)
  mutable gens : (string * int) list;
  mutable bytes : int;
  mutable tick : int;
}

type stats = {
  hits : int;
  materializations : int;
  invalidations : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type t = {
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  max_bytes : int;
  mutable bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable materializations : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create ?(max_bytes = 64 * 1024 * 1024) () : t =
  { mu = Mutex.create ();
    tbl = Hashtbl.create 16;
    max_bytes;
    bytes = 0;
    clock = 0;
    hits = 0;
    materializations = 0;
    invalidations = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stats (t : t) : stats =
  locked t (fun () ->
      { hits = t.hits;
        materializations = t.materializations;
        invalidations = t.invalidations;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        bytes = t.bytes;
      })

(* Is a fingerprint already interned (counts as an extra occurrence in
   the batch benefit heuristic)?  And does it currently hold rows
   (materialization already paid)? *)
let status (t : t) (fp : string) : [ `Absent | `Known | `Materialized ] =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (id_of_fingerprint fp) with
      | None -> `Absent
      | Some e -> if e.rows = None then `Known else `Materialized)

let intern (t : t) ~(plan : op) ~(cost : float) ~(rows_hint : int) : string =
  let id = id_of_fingerprint (Fingerprint.of_op plan) in
  locked t (fun () ->
      if not (Hashtbl.mem t.tbl id) then
        Hashtbl.add t.tbl id
          { id;
            plan;
            schema = Op.schema plan;
            tables = tables_of plan;
            cost;
            rows_hint;
            rows = None;
            gens = [];
            bytes = 0;
            tick = 0;
          };
      id)

let row_bytes (rows : Value.t array list) : int =
  List.fold_left
    (fun acc r ->
      Array.fold_left
        (fun acc v ->
          acc + match v with Value.Str s -> 16 + String.length s | _ -> 16)
        (acc + 16) r)
    0 rows

(* Drop materialized rows (metadata stays) until the budget holds,
   least-recently-used first, never touching [keep]. *)
let enforce_budget t ~(keep : string) =
  let lru () =
    Hashtbl.fold
      (fun _ (e : entry) acc ->
        if e.id = keep || e.rows = None then acc
        else
          match acc with
          | Some best when best.tick <= e.tick -> acc
          | _ -> Some e)
      t.tbl None
  in
  let rec go () =
    if t.bytes > t.max_bytes then
      match lru () with
      | Some e ->
          e.rows <- None;
          t.bytes <- t.bytes - e.bytes;
          e.bytes <- 0;
          t.evictions <- t.evictions + 1;
          go ()
      | None -> ()
  in
  go ()

exception Unknown_id of string

(* Read an entry's rows, re-materializing when absent or stale.  The
   generation vector is captured BEFORE running the subplan and the
   whole operation holds the store lock: entry plans contain no
   CseScan, so [exec] cannot re-enter. *)
let fetch (t : t) ~(exec : op -> Value.t array list) ~(current_gen : string -> int)
    (id : string) : Value.t array list =
  locked t (fun () ->
      let e =
        match Hashtbl.find_opt t.tbl id with
        | Some e -> e
        | None -> raise (Unknown_id id)
      in
      let live = List.for_all (fun (table, g) -> current_gen table = g) e.gens in
      match e.rows with
      | Some rows when live ->
          t.hits <- t.hits + 1;
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          rows
      | had ->
          if had <> None then t.invalidations <- t.invalidations + 1;
          let gens = List.map (fun table -> (table, current_gen table)) e.tables in
          let rows = exec e.plan in
          t.bytes <- t.bytes - e.bytes;
          e.rows <- Some rows;
          e.gens <- gens;
          e.bytes <- row_bytes rows;
          t.bytes <- t.bytes + e.bytes;
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          t.materializations <- t.materializations + 1;
          enforce_budget t ~keep:id;
          rows)

(* Test hook: the entry's live row count, when materialized. *)
let materialized_rows (t : t) (id : string) : int option =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | Some { rows = Some rs; _ } -> Some (List.length rs)
      | _ -> None)
