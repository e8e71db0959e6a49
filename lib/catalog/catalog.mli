(** The catalog: table definitions, primary keys, declared indexes.

    TPC-H imposes strict limits on indexing (the paper leans on this in
    Section 5); {!tpch} declares the TPC-H-legal indexes: primary keys
    plus single-column foreign-key indexes. *)

type column = {
  col_name : string;
  col_ty : Relalg.Value.ty;
  col_nullable : bool;  (** true when the column may contain NULL *)
}

(** Column constructor; columns are NOT NULL unless [~nullable:true]. *)
val col : ?nullable:bool -> string -> Relalg.Value.ty -> column

type table = {
  name : string;
  columns : column list;
  primary_key : string list;
  indexes : string list list;  (** each entry: the column(s) of one index *)
}

type t

val create : unit -> t
val add_table : t -> table -> unit
val find_table : t -> string -> table option
val table_names : t -> string list

(** Property environment handing base-table keys and nullability to
    {!Relalg.Fd}. *)
val props_env : t -> Relalg.Props.env

(** [has_index t table col]: does [table] declare a single-column
    index on [col], or have [col] as its whole primary key?  The
    executor's index probe and the cost model's index path rest on
    it. *)
val has_index : t -> string -> string -> bool

val column_ty : table -> string -> Relalg.Value.ty option

(** The TPC-H schema (the paper's evaluation workload). *)
val tpch : unit -> t
