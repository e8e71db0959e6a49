(* Optimizer configuration: each orthogonal technique can be toggled
   independently, which is how the benchmark harness re-creates the
   "query processor technology levels" compared in the paper's Section 5
   and how the ablation benches isolate one primitive at a time. *)

type t = {
  decorrelate : bool;  (** Apply removal during normalization (Section 2.3) *)
  simplify_oj : bool;  (** outerjoin simplification (Section 1.2) *)
  class2 : bool;  (** identities (5)-(7): duplicate common subexpressions *)
  groupby_reorder : bool;  (** Section 3.1/3.2 reorderings *)
  local_agg : bool;  (** Section 3.3 eager local aggregation *)
  segment_apply : bool;  (** Section 3.4 segmented execution *)
  correlated_exec : bool;  (** re-introduce index-lookup Apply (Section 4) *)
  join_reorder : bool;  (** inner-join orders enumerated over the join graph *)
  property_rewrites : bool;
      (** rewrites proven by the symbolic property engine: FD-derived
          keys, cardinality intervals (GroupBy elimination, Max1row
          elision, semijoin-to-inner, outerjoin pruning) *)
  max_alternatives : int;  (** plan-space exploration budget *)
  max_rounds : int;
}

let full =
  { decorrelate = true;
    simplify_oj = true;
    class2 = false;
    groupby_reorder = true;
    local_agg = true;
    segment_apply = true;
    correlated_exec = true;
    join_reorder = true;
    property_rewrites = true;
    max_alternatives = 400;
    max_rounds = 6;
  }

(* A processor that executes subqueries exactly as written: no
   flattening, no aggregate optimization.  The "correlated execution"
   baseline of Section 1.1. *)
let correlated_only =
  { full with
    decorrelate = false;
    simplify_oj = false;
    groupby_reorder = false;
    local_agg = false;
    segment_apply = false;
    correlated_exec = false;
    max_rounds = 0;
  }

(* Flattening and outerjoin simplification only — roughly the
   Dayal/Kim-era processor: subqueries normalized, but no GroupBy
   reordering or segmented execution. *)
let decorrelated_only =
  { full with
    groupby_reorder = false;
    local_agg = false;
    segment_apply = false;
    correlated_exec = false;
    max_rounds = 0;
  }

let name_of c =
  if c = full then "full"
  else if c = correlated_only then "correlated"
  else if c = decorrelated_only then "decorrelated"
  else "custom"

(* Unlike [name_of] (which collapses every modified record to
   "custom"), the fingerprint enumerates every field, so two configs
   compare equal iff their fingerprints do.  The plan cache keys on it:
   a plan optimized under one technique mix must never serve a request
   made under another. *)
let fingerprint c =
  Printf.sprintf "%b%b%b%b%b%b%b%b%b:%d:%d" c.decorrelate c.simplify_oj c.class2
    c.groupby_reorder c.local_agg c.segment_apply c.correlated_exec c.join_reorder
    c.property_rewrites c.max_alternatives c.max_rounds
