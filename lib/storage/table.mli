(** In-memory row store.

    A table is a growable array of rows (value arrays, positionally
    matching the catalog column order) plus optional single-column
    hash indexes — enough for the index-lookup-join execution
    alternative of the paper's Section 4.  The backing array
    over-allocates (capacity doubling), so WAL replay of N appends is
    amortized O(N); read rows through {!rows_view}, never past the
    logical count. *)

(** A hash index on one column: key (compared as
    {!Relalg.Value.equal}) to the ascending positions of its rows. *)
type index

type t = {
  def : Catalog.table;
  mutable rows : Relalg.Value.t array array;
      (** backing store; physical length is the capacity, logical size
          is [nrows] — use {!rows_view} instead of reading this *)
  mutable nrows : int;
  mutable indexes : index list;
  col_pos : (string, int) Hashtbl.t;
  mutable generation : int;
      (** bumped on every row mutation; lets derived caches (columnar
          extraction, NDV statistics) detect staleness *)
  mutable col_cache : (int * Column.t array) option;
  lock : Mutex.t;
      (** guards mutations, derived-state (columnar cache, indexes,
          distinct-count) refreshes and reads of more than one field
          ({!rows_view}, index reads, {!probe}) against concurrent
          sessions and appends *)
}

val create : Catalog.table -> t
val name : t -> string
val row_count : t -> int

(** Consistent (backing array, logical row count) pair for scans; only
    indices below the count are valid rows. *)
val rows_view : t -> Relalg.Value.t array array * int

(** The logical rows as a list (row order preserved). *)
val to_rows : t -> Relalg.Value.t array list

val column_position : t -> string -> int option

(** Current mutation generation; changes whenever rows change. *)
val generation : t -> int

(** Replace the table contents (drops indexes, bumps the generation). *)
val load : t -> Relalg.Value.t array list -> unit

(** Restore persisted state wholesale (snapshot recovery): rows and
    the saved mutation generation; indexes are dropped for the caller
    to rebuild. *)
val restore : t -> generation:int -> Relalg.Value.t array array -> unit

(** Append one row (bumps the generation; existing indexes are
    maintained incrementally). *)
val append : t -> Relalg.Value.t array -> unit

(** Typed column-major view of the rows (one {!Column.t} per catalog
    column, all of one length: the row count of the generation they
    were built for), built lazily and invalidated on row mutation. *)
val columns : t -> Column.t array

(** Build a hash index on one column.
    @raise Invalid_argument for unknown columns. *)
val build_index : t -> string -> unit

val find_index : t -> string -> index option
val index_lookup : index -> t -> Relalg.Value.t -> Relalg.Value.t array list

(** [probe ix t keys] = [(cols, starts, positions)]: the row positions
    matching [keys.(g)] are [positions.(starts.(g)) ..
    positions.(starts.(g+1) - 1)], ascending (NULL keys match none),
    and [cols] is {!columns} at the same generation — one consistent
    view under the table's lock, however appends interleave. *)
val probe :
  index -> t -> Relalg.Value.t array -> Column.t array * int array * int array

(** Exact distinct count of a column (cached by Optimizer.Stats). *)
val distinct_count : t -> string -> int
