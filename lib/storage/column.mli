(** Typed, unboxed columns.

    A column keeps one value kind in a flat array plus a NULL bitmap,
    so kernels over it touch no boxed {!Relalg.Value.t}.  The kind is
    part of the value: an [Ints] column holds [Value.Int]s and a
    [Dates] column [Value.Date]s, so [Date 5] and [Int 5] stay
    distinct and [Int 1] still equals [Float 1.0] under
    {!Relalg.Value.compare} exactly as for boxed values.  A column
    whose non-NULL values do not share one kind (or holds no non-NULL
    value) is [Boxed]: each entry carries its own kind tag.

    Array entries at NULL positions are unspecified placeholders; read
    a value through {!get} or test {!is_null} first. *)

(** NULL bitmap: bit [i] set means row [i] is NULL.  {!no_nulls}
    (the empty bitmap) stands for a column without NULLs. *)
type nulls = Bytes.t

type t =
  | Ints of int array * nulls
  | Floats of float array * nulls
  | Strs of string array * nulls
  | Dates of int array * nulls  (** days since 1970-01-01 *)
  | Bools of bool array * nulls
  | Boxed of Relalg.Value.t array

val no_nulls : nulls
val has_nulls : nulls -> bool

(** [null_at m i]: is row [i] NULL under bitmap [m]? *)
val null_at : nulls -> int -> bool

(** A cleared bitmap for [n] rows, to be filled with {!set_null}. *)
val make_nulls : int -> nulls

val set_null : nulls -> int -> unit

(** Bitmap of rows NULL in either input (both for [n] rows). *)
val union_nulls : int -> nulls -> nulls -> nulls

val length : t -> int
val is_null : t -> int -> bool

(** Row [i] as a boxed value (result boundaries and the boxed
    fallback). *)
val get : t -> int -> Relalg.Value.t

(** [init n f]: the column of [f 0 .. f (n-1)], typed when every
    non-NULL value has one kind. *)
val init : int -> (int -> Relalg.Value.t) -> t

val of_values : Relalg.Value.t array -> t

(** [n] copies of one value. *)
val const : int -> Relalg.Value.t -> t

(** [n] NULLs. *)
val nulls : int -> t

(** [gather c idx]: row [idx.(k)] of [c] at row [k]. *)
val gather : t -> int array -> t

(** As {!gather}, but a negative index yields NULL (outer-join
    padding). *)
val gather_padded : t -> int array -> t

(** Rows of every column in order; one kind is kept when all inputs
    share it, otherwise the result is [Boxed]. *)
val concat : t list -> t

(** [equal_at a i b j]: [Value.equal (get a i) (get b j)] without
    boxing when both columns are typed. *)
val equal_at : t -> int -> t -> int -> bool
