(** A scaled-down, deterministic TPC-H data generator.

    Cardinalities follow the TPC-H ratios per scale factor (divided by
    10 to keep laptop runs snappy; see DESIGN.md §4); value
    distributions follow the dbgen shapes that matter to the reproduced
    queries (brands, containers, type grammar, quantities). *)

(** Expected row counts per table for a scale factor (lineitem omitted:
    1-7 lines per order).  This and the generators below raise
    [Invalid_argument] for a scale factor that gives no suppliers, i.e.
    one below 0.001. *)
val expected_rows : float -> (string * int) list

(** Populate all eight TPC-H tables of [db] and build the declared
    indexes.  Deterministic in [seed] (default 42). *)
val generate : ?seed:int -> sf:float -> Storage.Database.t -> unit

(** A freshly created and populated TPC-H database. *)
val database : ?seed:int -> sf:float -> unit -> Storage.Database.t
