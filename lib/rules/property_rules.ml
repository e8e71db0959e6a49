(* Property-proven rewrites: each rule's side condition is a fact
   derived by the symbolic property engine (Fd) — FD closure, derived
   keys, cardinality intervals — rather than a syntactic pattern.

   Each rule is a partial function [op -> op option] matching at the
   root; the optimizer applies rules at every node, the verifier
   re-derives each side condition (Verify.check_rewrite), and the
   smallscope prover checks bag equivalence over all small databases.

   Soundness arguments (DESIGN.md Section 15):

   - [eliminate_groupby_on_key]: if the grouping set covers a derived
     key of the input, every group holds exactly one row, so the
     GroupBy is a projection computing each aggregate's single-row
     value.  The replacement expressions reproduce the executor's
     aggregate semantics exactly: sum/min/max of one row is the value
     itself (NULL input gives NULL), count* is 1, count(e) is 1 or 0
     by e's nullness, and avg divides by the literal count 1 — which,
     like the executor's division, promotes Int to Float and is
     NULL-strict.

   - [elide_max1row]: if the input is proven to yield at most one row,
     the runtime cardinality check can never fire and the operator is
     the identity.

   - [semijoin_to_inner]: if the predicate pins a derived key of the
     right side (each right key column equated to a left column or a
     constant), each left row matches at most one right row, so
     "exists a match" (semi) and "count the matches" (inner, then drop
     the right columns) agree on multiplicities.

   - [prune_unused_outerjoin]: a left outerjoin emits exactly one row
     per left row when the right side is key-unique on the pinned join
     columns (matched or NULL-padded); if the projection above uses no
     right column, the join is invisible and the right side can be
     dropped. *)

open Relalg
open Relalg.Algebra

(* The single-row value of an aggregate, mirroring the executor. *)
let single_row_agg (fn : agg_fn) : expr =
  match fn with
  | CountStar -> Const (Value.Int 1)
  | Count e ->
      Case ([ (Not (IsNull e), Const (Value.Int 1)) ], Some (Const (Value.Int 0)))
  | Sum e | Min e | Max e -> e
  | Avg e ->
      (* the executor computes sum/count with SQL division: Int inputs
         promote to Float, NULL input stays NULL — dividing by literal
         1 reproduces both *)
      Arith (Div, e, Const (Value.Int 1))

(* G_{A,F}(R)  =  π_{A, F(single row)}(R)   when A covers a derived key
   of R (FD closure), i.e. every group is a singleton.  Also eliminates
   DISTINCT (aggregate-free GroupBy). *)
let eliminate_groupby_on_key ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | GroupBy { keys; aggs; input } when keys <> [] ->
      if Fd.covers_key (props input) (Col.Set.of_list keys) then
        let key_projs = List.map (fun k -> { expr = ColRef k; out = k }) keys in
        let agg_projs =
          List.map (fun (a : agg) -> { expr = single_row_agg a.fn; out = a.out }) aggs
        in
        Some (Project (key_projs @ agg_projs, input))
      else None
  | _ -> None

(* Max1row(R) = R  when R is proven to yield at most one row — the
   runtime check is dead and the decorrelated scalar-subquery plan
   sheds an operator. *)
let elide_max1row ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | Max1row i -> if Fd.max_one (props i) then Some i else None
  | _ -> None

(* R ⋉p S  =  π_{cols(R)}(R ⋈p S)  when p pins a derived key of S: at
   most one match per left row makes the semijoin's existence test and
   the inner join's multiplicity agree. *)
let semijoin_to_inner ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | Join { kind = Semi; pred; left; right } ->
      let rp = props right in
      let pinned =
        Fd.pinned_right (Op.schema_set left) (Op.schema_set right) (conjuncts pred)
      in
      if Fd.covers_key rp pinned then
        Some
          (Op.project_restore (Op.schema left)
             (Join { kind = Inner; pred; left; right }))
      else None
  | _ -> None

(* π_projs(R ⟕p S) = π_projs(R)  when no projection references S and S
   is key-unique on the pinned join columns (each left row yields
   exactly one output row, so the outerjoin neither filters nor
   duplicates). *)
let prune_unused_outerjoin ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | Project (projs, Join { kind = LeftOuter; pred; left; right }) ->
      let rset = Op.schema_set right in
      let clean =
        List.for_all
          (fun p ->
            (not (Expr.has_subquery p.expr))
            && Col.Set.disjoint (Expr.cols p.expr) rset)
          projs
      in
      if clean then
        let rp = props right in
        let pinned = Fd.pinned_right (Op.schema_set left) rset (conjuncts pred) in
        if Fd.covers_key rp pinned then Some (Project (projs, left)) else None
      else None
  | _ -> None
