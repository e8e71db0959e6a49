(* Reordering GroupBy around joins, outerjoins, semijoins and filters
   (paper Sections 3.1 and 3.2).

   Each rule is a partial function [op -> op option] matching at the
   root; the optimizer applies rules at every node.

   Push conditions (paper, Section 3.1), for pushing the GroupBy of
   G_{A,F}(S ⋈p R) below the join onto R:
     1. every column of p defined by R is a grouping column;
     2. some key of S is contained in the grouping columns;
     3. the aggregate expressions use only columns of R.

   Pulling a GroupBy above a join needs only that the other side has a
   key and the predicate does not use aggregate results.

   For outerjoins (Section 3.2), pushing below additionally compensates
   aggregates whose value on the single padded row is not NULL: counts.
   The compensating project recomputes the count output as
       CASE WHEN g IS NOT NULL THEN cnt ELSE <agg on one NULL row> END
   where g is a non-nullable grouping column of the pushed aggregate
   (NULL exactly on padded rows).  Note count-star on the padded
   singleton group is 1 (the padded row is a real row of the outerjoin
   result), count(e) for strict e is 0. *)

open Relalg
open Relalg.Algebra

let cols_of_pred p = Expr.cols p

let agg_uses_only (aggs : agg list) (allowed : Col.Set.t) =
  List.for_all
    (fun a ->
      match agg_input_expr a.fn with
      | None -> true
      | Some e -> Col.Set.subset (Expr.cols e) allowed)
    aggs

let pred_uses_agg_outputs pred (aggs : agg list) =
  let outs = Col.Set.of_list (List.map (fun (a : agg) -> a.out) aggs) in
  not (Col.Set.is_empty (Col.Set.inter (Expr.cols pred) outs))

let has_key ~props o = Fd.covers_key (props o) (Op.schema_set o)

(* ------------------------------------------------------------------ *)
(* Pull GroupBy above a join:                                         *)
(*   S ⋈p (G_{A,F} R)  =  G_{A∪cols(S),F} (S ⋈p R)                    *)
(* ------------------------------------------------------------------ *)

let pull_above_join ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | Join { kind = Inner; pred; left = s; right = GroupBy { keys; aggs; input = r } }
    when (not (pred_uses_agg_outputs pred aggs)) && has_key ~props s ->
      let g = GroupBy { keys = keys @ Op.schema s; aggs; input = Join { kind = Inner; pred; left = s; right = r } } in
      Some (Op.project_restore (Op.schema o) g)
  | Join { kind = Inner; pred; left = GroupBy { keys; aggs; input = r }; right = s }
    when (not (pred_uses_agg_outputs pred aggs)) && has_key ~props s ->
      let g = GroupBy { keys = keys @ Op.schema s; aggs; input = Join { kind = Inner; pred; left = r; right = s } } in
      Some (Op.project_restore (Op.schema o) g)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Push GroupBy below a join (onto the right input):                  *)
(*   G_{A,F}(S ⋈p R)  =  π (S ⋈p (G_{A∩cols(R) ∪ pcols(R), F} R))     *)
(* ------------------------------------------------------------------ *)

(* Checks conditions 1-3 for pushing the GroupBy onto [r], and computes
   the pushed grouping columns.  Condition 1 is relaxed the way the
   paper's formula (A ∪ columns(p) − columns(S)) implies: an R-column
   of the predicate that is NOT a grouping column is admitted when the
   conjunct equates it with an S-side expression — within one joined
   row it is then functionally determined by S, so grouping R by it
   does not split the final groups. *)
let push_below_join_keys ~props keys (aggs : agg list) pred s r : Col.t list option =
  let a = Col.Set.of_list keys in
  let rcols = Op.schema_set r in
  let scols = Op.schema_set s in
  let extras = ref Col.Set.empty in
  let conj_ok c =
    let rc = Col.Set.inter (Expr.cols c) rcols in
    if Col.Set.subset rc a then true
    else
      match c with
      | Cmp (Eq, ColRef x, e)
        when Col.Set.mem x rcols && Col.Set.subset (Expr.cols e) scols ->
          extras := Col.Set.add x !extras;
          true
      | Cmp (Eq, e, ColRef x)
        when Col.Set.mem x rcols && Col.Set.subset (Expr.cols e) scols ->
          extras := Col.Set.add x !extras;
          true
      | _ -> false
  in
  if
    List.for_all conj_ok (conjuncts pred)
    (* 2: the S-side grouping columns determine a key of S (through
       the FD closure, so a superset of a key is not required) *)
    && Fd.covers_key (props s) (Col.Set.inter a scols)
    (* 3 *)
    && agg_uses_only aggs rcols
    && Col.Set.subset a (Col.Set.union rcols scols)
  then
    Some (Col.Set.elements (Col.Set.union (Col.Set.inter a rcols) !extras))
  else None

let push_below_join ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | GroupBy { keys; aggs; input = Join { kind = Inner; pred; left = s; right = r } } -> (
      match push_below_join_keys ~props keys aggs pred s r with
      | Some rkeys ->
          let pushed = GroupBy { keys = rkeys; aggs; input = r } in
          let j = Join { kind = Inner; pred; left = s; right = pushed } in
          Some (Op.project_restore (Op.schema o) j)
      | None -> (
          (* symmetric: aggregate the left input *)
          match push_below_join_keys ~props keys aggs pred r s with
          | Some skeys ->
              let pushed = GroupBy { keys = skeys; aggs; input = s } in
              let j = Join { kind = Inner; pred; left = pushed; right = r } in
              Some (Op.project_restore (Op.schema o) j)
          | None -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Push GroupBy below a left outerjoin, with compensation (3.2)       *)
(* ------------------------------------------------------------------ *)

let push_below_outerjoin ~(props : op -> Fd.t) (o : op) : op option =
  match o with
  | GroupBy { keys; aggs; input = Join { kind = LeftOuter; pred; left = s; right = r } }
    when push_below_join_keys ~props keys aggs pred s r <> None ->
      let rkeys = Option.get (push_below_join_keys ~props keys aggs pred s r) in
      (* need a non-nullable match detector among the pushed grouping
         columns *)
      let nn = (props r).nonnull in
      (match List.find_opt (fun c -> Col.Set.mem c nn) rkeys with
      | None -> None
      | Some match_col ->
          (* pushed aggregate gets fresh output ids; the compensating
             project restores the original ids *)
          let fresh_aggs = List.map (fun (a : agg) -> { a with out = Col.clone a.out }) aggs in
          let pushed = GroupBy { keys = rkeys; aggs = fresh_aggs; input = r } in
          let j = Join { kind = LeftOuter; pred; left = s; right = pushed } in
          let matched = Not (IsNull (ColRef match_col)) in
          let compensate (orig : agg) (fresh : agg) =
            let padded_value =
              (* the aggregate applied to the single all-NULL padded row *)
              match orig.fn with
              | CountStar -> Some (Value.Int 1)
              | Count _ -> Some (Value.Int 0)
              | Sum _ | Min _ | Max _ | Avg _ -> None  (* NULL: padding suffices *)
            in
            match padded_value with
            | None -> { expr = ColRef fresh.out; out = orig.out }
            | Some v ->
                { expr = Case ([ (matched, ColRef fresh.out) ], Some (Const v));
                  out = orig.out
                }
          in
          let projs =
            List.map (fun c -> { expr = ColRef c; out = c }) keys
            @ List.map2 compensate aggs fresh_aggs
          in
          Some (Project (projs, j)))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pull GroupBy above a left outerjoin (the reverse; useful when the  *)
(* join is selective)                                                 *)
(*   S LOJp (G_{A,F} R) = π_c? — only the join-preserving direction   *)
(*   is implemented: G above, no compensation needed when pulling is  *)
(*   not semantics-preserving for padded rows, so we restrict to the  *)
(*   inner-join pull above. *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Semijoin / antijoin through GroupBy (Section 3.1, last paragraph): *)
(*   (G_{A,F} R) ⋉p S  =  G_{A,F} (R ⋉p S)                            *)
(* when p does not use aggregate outputs and p's non-S columns are    *)
(* grouping columns.                                                  *)
(* ------------------------------------------------------------------ *)

let push_semijoin_below_groupby (o : op) : op option =
  match o with
  | Join { kind = (Semi | Anti) as kind; pred; left = GroupBy { keys; aggs; input = r }; right = s }
    when (not (pred_uses_agg_outputs pred aggs))
         && Col.Set.subset
              (Col.Set.diff (cols_of_pred pred) (Op.schema_set s))
              (Col.Set.of_list keys) ->
      Some
        (GroupBy
           { keys; aggs; input = Join { kind; pred; left = r; right = s } })
  | _ -> None

(* The reverse: pull a semijoin above a GroupBy. *)
let pull_semijoin_above_groupby (o : op) : op option =
  match o with
  | GroupBy { keys; aggs; input = Join { kind = (Semi | Anti) as kind; pred; left = r; right = s } }
    when (not (pred_uses_agg_outputs pred aggs))
         && Col.Set.subset
              (Col.Set.diff (cols_of_pred pred) (Op.schema_set s))
              (Col.Set.of_list keys) ->
      Some
        (Join { kind; pred; left = GroupBy { keys; aggs; input = r }; right = s })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Filter / GroupBy reordering (Section 3.1, opening): a filter       *)
(* commutes with a GroupBy iff its columns are functionally           *)
(* determined by the grouping columns — we use the sound              *)
(* approximation "are grouping columns".                              *)
(* ------------------------------------------------------------------ *)

let push_filter_below_groupby (o : op) : op option =
  match o with
  | Select (p, GroupBy { keys; aggs; input })
    when Col.Set.subset (Expr.cols p) (Col.Set.of_list keys) ->
      Some (GroupBy { keys; aggs; input = Select (p, input) })
  | _ -> None

let pull_filter_above_groupby (o : op) : op option =
  match o with
  | GroupBy { keys; aggs; input = Select (p, input) }
    when Col.Set.subset (Expr.cols p) (Col.Set.of_list keys) ->
      Some (Select (p, GroupBy { keys; aggs; input }))
  | _ -> None
