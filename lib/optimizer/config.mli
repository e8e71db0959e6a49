(** Optimizer configuration: every orthogonal technique of the paper
    toggles independently, which is how the benches re-create the
    "query processor technology levels" of DESIGN.md and how the
    ablations isolate one primitive. *)

type t = {
  decorrelate : bool;  (** Apply removal during normalization (§2.3) *)
  simplify_oj : bool;  (** outerjoin simplification (§1.2) *)
  class2 : bool;  (** identities (5)-(7): duplicate common subexpressions *)
  groupby_reorder : bool;  (** §3.1/3.2 reorderings *)
  local_agg : bool;  (** §3.3 eager local aggregation *)
  segment_apply : bool;  (** §3.4 segmented execution *)
  correlated_exec : bool;  (** re-introduce index-lookup Apply (§4) *)
  join_reorder : bool;  (** inner-join orders enumerated over the join graph *)
  property_rewrites : bool;
      (** rewrites proven by the symbolic property engine (FD-derived
          keys, cardinality intervals) *)
  max_alternatives : int;  (** plan-space exploration budget *)
  max_rounds : int;  (** 0 disables cost-based search entirely *)
}

(** All techniques on. *)
val full : t

(** Subqueries execute exactly as written — the Section 1.1 baseline. *)
val correlated_only : t

(** Flattening + outerjoin simplification only: a Dayal/Kim-era
    processor. *)
val decorrelated_only : t

val name_of : t -> string

(** Injective rendering of every field — the plan cache's config key
    component.  [name_of] collapses modified records to "custom" and
    must not be used for keying. *)
val fingerprint : t -> string
