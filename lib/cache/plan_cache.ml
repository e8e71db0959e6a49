(* Keyed plan cache: LRU + byte budget, generation-vector
   invalidation, single-flight computation.

   Polymorphic in the stored value — the engine stores plan templates,
   the tests store whatever makes the scenario observable.  Every
   entry carries the generation of each table its plan reads, captured
   by [compute]; a lookup whose generations have moved discards the
   entry and recomputes ([`Stale]).  Concurrent misses on one key are
   deduplicated: the first caller computes while the rest wait on the
   in-flight slot and receive the computed value directly.

   Locking: the cache mutex is released around [compute] (which may
   optimize for milliseconds) and may be held across [current_gen]
   (which only reads a table's generation counter). *)

type 'a entry = {
  value : 'a;
  gens : (string * int) list;  (** table -> generation when computed *)
  bytes : int;
  mutable tick : int;  (** LRU clock at last use *)
}

type 'a flight = { mutable outcome : ('a, exn) result option }

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** entries discarded because a generation moved *)
  evictions : int;  (** entries discarded by the byte budget *)
  single_flight_waits : int;  (** lookups served by a concurrent compute *)
  entries : int;
  bytes : int;
}

type 'a t = {
  mu : Mutex.t;
  cond : Condition.t;
  tbl : (string, 'a entry) Hashtbl.t;
  inflight : (string, 'a flight) Hashtbl.t;
  max_bytes : int;
  mutable bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable waits : int;
}

let create ?(max_bytes = 8 * 1024 * 1024) () : 'a t =
  { mu = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    max_bytes;
    bytes = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
    waits = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stats (t : 'a t) : stats =
  locked t (fun () ->
      { hits = t.hits;
        misses = t.misses;
        invalidations = t.invalidations;
        evictions = t.evictions;
        single_flight_waits = t.waits;
        entries = Hashtbl.length t.tbl;
        bytes = t.bytes;
      })

let drop t key (e : 'a entry) =
  Hashtbl.remove t.tbl key;
  t.bytes <- t.bytes - e.bytes

(* Evict least-recently-used entries (never [keep]) until the budget
   holds; if [keep] alone still overflows, it goes too — an oversized
   plan is returned to its caller but not retained. *)
let enforce_budget t ~(keep : string) =
  let lru () =
    Hashtbl.fold
      (fun k (e : 'a entry) acc ->
        if k = keep then acc
        else
          match acc with
          | Some (_, best) when best.tick <= e.tick -> acc
          | _ -> Some (k, e))
      t.tbl None
  in
  let rec go () =
    if t.bytes > t.max_bytes then
      match lru () with
      | Some (k, e) ->
          drop t k e;
          t.evictions <- t.evictions + 1;
          go ()
      | None -> (
          match Hashtbl.find_opt t.tbl keep with
          | Some e ->
              drop t keep e;
              t.evictions <- t.evictions + 1
          | None -> ())
  in
  go ()

let gens_current current_gen (e : 'a entry) =
  List.for_all (fun (table, g) -> current_gen table = g) e.gens

(* Runs [compute] with the lock released, publishes the outcome to any
   waiters, and installs the entry.  [stale] only flavours the return
   tag. *)
let compute_inflight (t : 'a t) ~key ~stale
    ~(compute : unit -> 'a * (string * int) list * int) =
  let fl = { outcome = None } in
  Hashtbl.replace t.inflight key fl;
  if stale then t.invalidations <- t.invalidations + 1
  else t.misses <- t.misses + 1;
  Mutex.unlock t.mu;
  let outcome = try Ok (compute ()) with e -> Error e in
  Mutex.lock t.mu;
  Hashtbl.remove t.inflight key;
  (match outcome with
  | Ok (v, gens, bytes) ->
      fl.outcome <- Some (Ok v);
      (match Hashtbl.find_opt t.tbl key with
      | Some old -> drop t key old  (* a racing insert; last writer wins *)
      | None -> ());
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl key { value = v; gens; bytes; tick = t.clock };
      t.bytes <- t.bytes + bytes;
      enforce_budget t ~keep:key
  | Error e -> fl.outcome <- Some (Error e));
  Condition.broadcast t.cond;
  Mutex.unlock t.mu;
  match outcome with
  | Ok (v, _, _) -> if stale then `Stale v else `Miss v
  | Error e -> raise e

let find_or_compute (t : 'a t) ~(key : string) ~(current_gen : string -> int)
    ~(compute : unit -> 'a * (string * int) list * int) :
    [ `Hit of 'a | `Miss of 'a | `Stale of 'a ] =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.tbl key with
  | Some e when gens_current current_gen e ->
      t.hits <- t.hits + 1;
      t.clock <- t.clock + 1;
      e.tick <- t.clock;
      let v = e.value in
      Mutex.unlock t.mu;
      `Hit v
  | Some e ->
      drop t key e;
      compute_inflight t ~key ~stale:true ~compute
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some fl -> (
          t.waits <- t.waits + 1;
          while fl.outcome = None do
            Condition.wait t.cond t.mu
          done;
          match fl.outcome with
          | Some (Ok v) ->
              t.hits <- t.hits + 1;
              Mutex.unlock t.mu;
              `Hit v
          | Some (Error e) ->
              Mutex.unlock t.mu;
              raise e
          | None -> Relalg.Invariant.broken "Plan_cache: an in-flight entry woke its waiters without an outcome")
      | None -> compute_inflight t ~key ~stale:false ~compute)

(* Test hook: does the cache currently hold a live entry for [key]? *)
let mem (t : 'a t) (key : string) : bool = locked t (fun () -> Hashtbl.mem t.tbl key)
