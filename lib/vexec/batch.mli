(** Columnar batches: full physical columns plus a selection vector of
    live physical row indices.  Filters compact only the selection
    vector; column arrays are shared (table scans alias the storage
    layer's columnar cache).  Columns are lazy — materializing
    operators describe their output columns and pay for one only when
    a consumer reads it, which prunes never-touched columns. *)

type col = Relalg.Value.t array Lazy.t

type t = {
  schema : Relalg.Col.t list;
  cols : col array;
      (** column-major; [cols.(c)] forces to a full physical column *)
  sel : int array;  (** physical indices of live rows, in output order *)
}

(** Live row count. *)
val length : t -> int

val iota : int -> int array
val of_rows : Relalg.Col.t list -> Relalg.Value.t array list -> t

(** One logical row, by slot index into the selection vector. *)
val row : t -> int -> Relalg.Value.t array

val row_list : t -> int -> Relalg.Value.t list
val to_rows : t -> Relalg.Value.t array list

(** Column [c] gathered into a dense slot-indexed array. *)
val gather : t -> int -> Relalg.Value.t array

(** Row-major scatter: lazy columns over an array of source rows;
    [None] entries expand to all-NULL rows (outer-Apply padding). *)
val scatter :
  Relalg.Col.t list -> Relalg.Value.t array option array -> t

(** Dense sub-batch of the given slot indices. *)
val take : t -> int array -> t

(** Concatenate into one dense batch under the given schema. *)
val concat : Relalg.Col.t list -> t list -> t

(** Split into batches of at most [size] rows, sharing the columns. *)
val chunks : size:int -> t -> t list
