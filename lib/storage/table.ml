(* In-memory row store.

   A table is a growable array of rows (value arrays, positionally
   matching the catalog column order) plus optional hash indexes.
   Indexes map a key value (single column) to the list of row
   positions — enough for the index-lookup-join execution alternative
   the paper's Section 4 calls "the simplest and most common"
   correlated execution.

   The backing [rows] array over-allocates (capacity doubling), so a
   stream of [append]s — the WAL-replay workload of recovery — is
   amortized O(1) per row instead of the O(n) full copy [Array.append]
   used to pay.  [nrows] is the logical size; everything past it is
   garbage and must never be read.  Readers outside this module go
   through {!rows_view}, which hands out a consistent (array, count)
   pair.

   Concurrency contract: appends may race queries (the service
   journals appends while sessions read), so every mutation, every
   derived-state refresh — the generation-tagged typed columnar cache,
   the index list, the distinct counts computed for the stats cache —
   and every read of more than one field goes through the per-table
   [lock]: {!rows_view} hands out a consistent (array, count) pair, an
   index read holds the lock while it reads positions and rows, and
   {!probe} returns index positions together with the typed columns
   of the same generation.  Without it, two domains racing the first
   [columns] call after a mutation could tear the cache, a mutation
   racing a refresh could pin a stale extraction under a new
   generation, and a probe could read a position past the columns it
   gathers from. *)

module Value = Relalg.Value

(* Index keys compare as [Value.equal], so a probe finds exactly the
   rows an equality filter keeps ([Float 1.0] finds [Int 1]). *)
module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Row positions of one key in a flat array, ascending: an append only
   ever adds the largest position. *)
type postings = { mutable pos : int array; mutable len : int }

type index = {
  idx_col : int;  (** column position *)
  idx_map : postings VTbl.t;
}

let add_posting (map : postings VTbl.t) (v : Value.t) (i : int) =
  match VTbl.find_opt map v with
  | None -> VTbl.replace map v { pos = Array.make 4 i; len = 1 }
  | Some p ->
      if p.len = Array.length p.pos then begin
        let grown = Array.make (2 * p.len) 0 in
        Array.blit p.pos 0 grown 0 p.len;
        p.pos <- grown
      end;
      p.pos.(p.len) <- i;
      p.len <- p.len + 1

type t = {
  def : Catalog.table;
  mutable rows : Value.t array array;
      (** backing store; physical length is the capacity, logical size
          is [nrows] — use {!rows_view} outside this module *)
  mutable nrows : int;
  mutable indexes : index list;
  col_pos : (string, int) Hashtbl.t;
  mutable generation : int;
  mutable col_cache : (int * Column.t array) option;
      (** typed column-major extraction tagged with the generation it
          was built against; rebuilt lazily by {!columns} *)
  lock : Mutex.t;
      (** guards mutations, derived-state (col_cache, indexes,
          distinct-count) refreshes and multi-field reads against
          concurrent sessions and appends *)
}

let create (def : Catalog.table) : t =
  let col_pos = Hashtbl.create 8 in
  List.iteri (fun i (c : Catalog.column) -> Hashtbl.replace col_pos c.col_name i) def.columns;
  { def;
    rows = [||];
    nrows = 0;
    indexes = [];
    col_pos;
    generation = 0;
    col_cache = None;
    lock = Mutex.create ();
  }

let name t = t.def.name
let row_count t = t.nrows

(* Consistent (backing array, logical size) pair for lock-free scans.
   Read under the lock so a racing capacity-doubling append can never
   hand out a count that exceeds the array we return. *)
let rows_view t : Value.t array array * int =
  Mutex.protect t.lock (fun () -> (t.rows, t.nrows))

let to_rows t : Value.t array list =
  let rows, n = rows_view t in
  List.init n (fun i -> rows.(i))

let column_position t cname = Hashtbl.find_opt t.col_pos cname

(* Every row mutation bumps the generation so derived state — the
   columnar cache here, the NDV cache in Optimizer.Stats — can detect
   staleness instead of serving values for rows that no longer exist.
   Callers hold [lock]. *)
let touch t =
  t.generation <- t.generation + 1;
  t.col_cache <- None

let generation t = t.generation

let load t (rows : Value.t array list) =
  Mutex.protect t.lock (fun () ->
      t.rows <- Array.of_list rows;
      t.nrows <- Array.length t.rows;
      t.indexes <- [];
      touch t)

(* Restore persisted state wholesale (snapshot recovery): rows and the
   saved mutation generation, exactly as they were at snapshot time.
   Indexes are dropped — recovery rebuilds the declared set. *)
let restore t ~(generation : int) (rows : Value.t array array) =
  Mutex.protect t.lock (fun () ->
      t.rows <- rows;
      t.nrows <- Array.length rows;
      t.indexes <- [];
      t.generation <- generation;
      t.col_cache <- None)

let append t row =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.rows in
      if t.nrows = cap then begin
        let grown = Array.make (max 8 (2 * cap)) [||] in
        Array.blit t.rows 0 grown 0 t.nrows;
        t.rows <- grown
      end;
      t.rows.(t.nrows) <- row;
      t.nrows <- t.nrows + 1;
      (* Maintain existing indexes incrementally: an index that missed
         appended rows would make index_lookup silently drop them from
         every index-backed Apply (the stale-index bug). *)
      List.iter (fun ix -> add_posting ix.idx_map row.(ix.idx_col) (t.nrows - 1)) t.indexes;
      touch t)

(* Typed column-major view of the table, for the vectorized engine:
   one {!Column.t} per catalog column, every one [row_count] long at
   the generation it was built for.  Built on first use, invalidated
   by row mutation via the generation counter.  Callers hold [lock],
   which makes the check-then-rebuild atomic so concurrent scans share
   one rebuild. *)
let columns_locked t : Column.t array =
  match t.col_cache with
  | Some (gen, cols) when gen = t.generation -> cols
  | _ ->
      let n = t.nrows and rows = t.rows in
      let ncols = List.length t.def.columns in
      let cols = Array.init ncols (fun c -> Column.init n (fun i -> rows.(i).(c))) in
      t.col_cache <- Some (t.generation, cols);
      cols

let columns t : Column.t array = Mutex.protect t.lock (fun () -> columns_locked t)

(* Build one hash index on a single column. *)
let build_index t cname =
  match column_position t cname with
  | None -> invalid_arg ("build_index: no column " ^ cname)
  | Some pos ->
      Mutex.protect t.lock (fun () ->
          let map = VTbl.create (max 16 t.nrows) in
          for i = 0 to t.nrows - 1 do
            add_posting map t.rows.(i).(pos) i
          done;
          t.indexes <- { idx_col = pos; idx_map = map } :: t.indexes)

let find_index t cname =
  match column_position t cname with
  | None -> None
  | Some pos -> List.find_opt (fun ix -> ix.idx_col = pos) t.indexes

(* Index reads hold the lock: an append racing a probe rehashes the
   index map and may grow the row array under it. *)
let index_lookup (ix : index) (t : t) (v : Value.t) : Value.t array list =
  Mutex.protect t.lock (fun () ->
      match VTbl.find_opt ix.idx_map v with
      | None -> []
      | Some p -> List.init p.len (fun k -> t.rows.(p.pos.(k))))

(* Batched probe for the vectorized index-lookup Apply: candidate
   positions per key (ascending, the order [index_lookup] returns rows
   in) and the typed columns they index, read under one lock
   acquisition so both come from the same generation. *)
let probe (ix : index) (t : t) (keys : Value.t array) : Column.t array * int array * int array =
  Mutex.protect t.lock (fun () ->
      let cols = columns_locked t in
      let nk = Array.length keys in
      let starts = Array.make (nk + 1) 0 in
      let found =
        Array.map
          (fun k -> if Value.is_null k then None else VTbl.find_opt ix.idx_map k)
          keys
      in
      Array.iteri
        (fun g p -> starts.(g + 1) <- (starts.(g) + match p with Some p -> p.len | None -> 0))
        found;
      let positions = Array.make starts.(nk) 0 in
      Array.iteri
        (fun g p -> Option.iter (fun p -> Array.blit p.pos 0 positions starts.(g) p.len) p)
        found;
      (cols, starts, positions))

(* Distinct-count estimate for a column (exact, computed on demand;
   cached by Stats).  Lock-guarded: it walks the rows and must not
   observe a half-applied mutation. *)
let distinct_count t cname =
  match column_position t cname with
  | None -> 0
  | Some pos ->
      Mutex.protect t.lock (fun () ->
          let seen = Hashtbl.create 1024 in
          for i = 0 to t.nrows - 1 do
            Hashtbl.replace seen t.rows.(i).(pos) ()
          done;
          Hashtbl.length seen)
