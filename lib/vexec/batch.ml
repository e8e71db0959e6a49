(* Columnar batches.

   A batch is a set of full physical columns plus a selection vector of
   live physical row indices.  Filters compact only the selection
   vector; the column arrays are shared unchanged (for a table scan
   they alias the table's columnar cache directly).  Row order within a
   batch is the selection-vector order, so streaming operators preserve
   the row interpreter's ordering and the two engines are
   bag-comparable without sorting surprises.

   Columns are lazy: materializing operators (hash join pair gathers,
   sub-batch takes) describe every output column but pay for one only
   when a consumer actually reads it.  Renaming projections alias
   columns without forcing them, so a wide join under a narrow
   projection gathers just the columns the query touches — column
   pruning without a rewrite pass. *)

module Value = Relalg.Value
module Col = Relalg.Col

type col = Value.t array Lazy.t

type t = {
  schema : Col.t list;
  cols : col array;
      (** column-major; [cols.(c)] forces to a full physical column *)
  sel : int array;  (** physical indices of live rows, in output order *)
}

let length b = Array.length b.sel
let iota n = Array.init n (fun i -> i)

let is_iota sel =
  let n = Array.length sel in
  let rec go i = i >= n || (sel.(i) = i && go (i + 1)) in
  go 0

(* Row-major -> batch (dense). *)
let of_rows (schema : Col.t list) (rows : Value.t array list) : t =
  let n = List.length rows in
  let arity = List.length schema in
  let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
  List.iteri
    (fun i r ->
      for c = 0 to arity - 1 do
        cols.(c).(i) <- r.(c)
      done)
    rows;
  { schema; cols = Array.map Lazy.from_val cols; sel = iota n }

(* One logical row (slot index into the selection vector). *)
let row b slot : Value.t array =
  let i = b.sel.(slot) in
  Array.map (fun col -> (Lazy.force col).(i)) b.cols

let row_list b slot : Value.t list =
  let i = b.sel.(slot) in
  Array.fold_right (fun col acc -> (Lazy.force col).(i) :: acc) b.cols []

let to_rows b : Value.t array list =
  let cols = Array.map Lazy.force b.cols in
  List.init (length b) (fun s ->
      let i = b.sel.(s) in
      Array.map (fun col -> col.(i)) cols)

(* Column [c] gathered into a dense slot-indexed array. *)
let gather b c : Value.t array =
  let col = Lazy.force b.cols.(c) in
  Array.map (fun i -> col.(i)) b.sel

(* Row-major scatter: columns over an array of source rows, extracted
   lazily per column; [None] entries expand to all-NULL rows (the
   padding side of outer Apply).  This is how batched Apply scatters
   inner-plan results back against the outer selection vector. *)
let scatter (schema : Col.t list) (rows : Value.t array option array) : t =
  let n = Array.length rows in
  let cols =
    Array.init (List.length schema) (fun c ->
        lazy
          (Array.map
             (function Some (r : Value.t array) -> r.(c) | None -> Value.Null)
             rows))
  in
  { schema; cols; sel = iota n }

(* Sub-batch of the given slots (slot indices, not physical); columns
   gather lazily, only if read. *)
let take b (slots : int array) : t =
  { schema = b.schema;
    cols =
      Array.map
        (fun col ->
          lazy
            (let c = Lazy.force col in
             Array.map (fun s -> c.(b.sel.(s))) slots))
        b.cols;
    sel = iota (Array.length slots)
  }

(* Concatenate into one batch under [schema] (all inputs must share its
   arity).  A single already-dense input is reused as is, and chunks
   that alias the same physical columns (a chunked table scan, or
   filters over one) are re-joined by concatenating only their
   selection vectors — no column copying.  The general case copies
   lazily, per column read. *)
let concat (schema : Col.t list) (bs : t list) : t =
  let arity = List.length schema in
  let total = List.fold_left (fun n b -> n + length b) 0 bs in
  let shared_cols =
    match bs with
    | [] -> None
    | b0 :: rest ->
        if List.for_all (fun b -> b.cols == b0.cols) rest then Some b0.cols else None
  in
  match (bs, shared_cols) with
  | [ b ], _ when is_iota b.sel && Array.length b.cols = arity -> { b with schema }
  | _, Some cols ->
      (* physical columns may be a superset of the schema (a scan
         aliasing the table cache); trim so column index = schema
         position stays true for consumers that append column sets *)
      let cols = if Array.length cols > arity then Array.sub cols 0 arity else cols in
      { schema; cols; sel = Array.concat (List.map (fun b -> b.sel) bs) }
  | _, None ->
      let cols =
        Array.init arity (fun c ->
            lazy
              (let dst = Array.make total Value.Null in
               let off = ref 0 in
               List.iter
                 (fun b ->
                   let src = Lazy.force b.cols.(c) in
                   Array.iteri (fun s i -> dst.(!off + s) <- src.(i)) b.sel;
                   off := !off + length b)
                 bs;
               dst))
      in
      { schema; cols; sel = iota total }

(* Split into batches of at most [size] rows, sharing the columns. *)
let chunks ~size b : t list =
  let n = length b in
  if n = 0 then []
  else begin
    let size = max 1 size in
    let out = ref [] in
    let start = ref 0 in
    while !start < n do
      let stop = min n (!start + size) in
      out := { b with sel = Array.sub b.sel !start (stop - !start) } :: !out;
      start := stop
    done;
    List.rev !out
  end
