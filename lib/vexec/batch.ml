(* Columnar batches.

   A batch is a set of full physical columns plus a selection vector of
   live physical row indices.  Filters compact only the selection
   vector; the column arrays are shared unchanged (for a table scan
   they alias the table's columnar cache directly).  Row order within a
   batch is the selection-vector order, so streaming operators preserve
   the row interpreter's ordering and the two engines are
   bag-comparable without sorting surprises.

   Columns are typed ({!Storage.Column}: unboxed arrays plus a NULL
   bitmap, boxed only when a column mixes kinds) and lazy:
   materializing operators (hash join pair gathers, sub-batch takes)
   describe every output column but pay for one only when a consumer
   actually reads it.  Renaming projections alias columns without
   forcing them, so a wide join under a narrow projection gathers just
   the columns the query touches — column pruning without a rewrite
   pass. *)

module Value = Relalg.Value
module Col = Relalg.Col
module Column = Storage.Column

type col = Column.t Lazy.t

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
  let rows = Array.of_list rows in
  let n = Array.length rows in
  { schema;
    cols =
      Array.of_list
        (List.mapi (fun c _ -> Lazy.from_val (Column.init n (fun i -> rows.(i).(c)))) schema);
    sel = iota n
  }

(* One logical row (slot index into the selection vector). *)
let row b slot : Value.t array =
  let i = b.sel.(slot) in
  Array.map (fun col -> Column.get (Lazy.force col) i) b.cols

let row_list b slot : Value.t list =
  let i = b.sel.(slot) in
  Array.fold_right (fun col acc -> Column.get (Lazy.force col) i :: acc) b.cols []

let to_rows b : Value.t array list =
  let cols = Array.map Lazy.force b.cols in
  List.init (length b) (fun s ->
      let i = b.sel.(s) in
      Array.map (fun col -> Column.get col i) cols)

(* [col] at the physical rows [sel]; a selection vector that already is
   the identity over the whole column hands the column out as is. *)
let select (col : Column.t) (sel : int array) : Column.t =
  if Array.length sel = Column.length col && is_iota sel then col else Column.gather col sel

(* Column [c] gathered into a dense slot-indexed column. *)
let gather b c : Column.t = select (Lazy.force b.cols.(c)) b.sel

(* Sub-batch of the given slots (slot indices, not physical); columns
   gather lazily, only if read. *)
let take b (slots : int array) : t =
  let phys = lazy (Array.map (fun s -> b.sel.(s)) slots) in
  { schema = b.schema;
    cols = Array.map (fun col -> lazy (Column.gather (Lazy.force col) (Lazy.force phys))) b.cols;
    sel = iota (Array.length slots)
  }

(* Concatenate into one batch under [schema] (all inputs must share its
   arity).  A single already-dense input is reused as is, and chunks
   that alias the same physical columns (a chunked table scan, or
   filters over one) are re-joined by concatenating only their
   selection vectors — no column copying.  The general case copies
   lazily, per column read, gathering each run of consecutive inputs
   that alias one column set once, over their joined selection
   vectors. *)
let concat (schema : Col.t list) (bs : t list) : t =
  let arity = List.length schema in
  (* runs of consecutive inputs aliasing one column set, each with its
     joined selection vector *)
  let runs () =
    List.fold_right
      (fun b acc ->
        match acc with
        | (cols, sels) :: rest when cols == b.cols -> (cols, b.sel :: sels) :: rest
        | _ -> (b.cols, [ b.sel ]) :: acc)
      bs []
    |> List.map (fun (cols, sels) -> (cols, Array.concat sels))
  in
  match bs with
  | [ b ] when is_iota b.sel && Array.length b.cols = arity -> { b with schema }
  | _ -> (
  match runs () with
  | [ (cols, sel) ] ->
      (* physical columns may be a superset of the schema (a scan
         aliasing the table cache); trim so column index = schema
         position stays true for consumers that append column sets *)
      let cols = if Array.length cols > arity then Array.sub cols 0 arity else cols in
      { schema; cols; sel }
  | runs ->
      let cols =
        Array.init arity (fun c ->
            lazy
              (match runs with
              | [] -> Column.nulls 0
              | _ ->
                  Column.concat
                    (List.map (fun (cols, sel) -> select (Lazy.force cols.(c)) sel) runs)))
      in
      { schema; cols; sel = iota (List.fold_left (fun n b -> n + length b) 0 bs) })

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
