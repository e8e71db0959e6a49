(** JSON string literals, shared by every JSON emitter (EXPLAIN JSON,
    metrics trees, search traces, lint findings, service stats, the
    bench ledgers). *)

(** [string s] is [s] as a quoted JSON string: quotes, backslashes and
    control characters escaped. *)
val string : string -> string
