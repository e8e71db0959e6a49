(* Column pruning.

   Decorrelation (identities (8)/(9)) groups by ALL columns of the
   outer relation; only a key plus the referenced columns are actually
   needed.  This pass walks top-down with the set of columns required
   by the context and

   - narrows GroupBy/LocalGroupBy grouping keys: a non-required
     grouping column may be dropped when the remaining keys still
     contain a key of the input (the key functionally determines the
     dropped column, so the groups are unchanged);
   - drops unreferenced aggregates and projection items.

   What each child must keep is one rule, [demand], which the linter's
   dead-column check walks too.  Pruning does not cross UnionAll/Except
   (positional operators). *)

open Relalg
open Relalg.Algebra

(* the columns of [SegmentHole]s below a SegmentApply's inner: bound by
   its outer side *)
let hole_srcs (inner : op) : Col.Set.t =
  let rec walk acc o =
    let acc =
      match o with
      | SegmentHole { src; _ } -> Col.Set.union acc (Col.Set.of_list src)
      | _ -> acc
    in
    List.fold_left walk acc (Op.children o)
  in
  walk Col.Set.empty inner

let demand (o : op) (required : Col.Set.t) : Col.Set.t list =
  let read pred = Col.Set.union required (Expr.cols pred) in
  let grouped keys aggs =
    List.fold_left
      (fun acc (a : agg) ->
        match agg_input_expr a.fn with
        | Some e when Col.Set.mem a.out required -> Col.Set.union acc (Expr.cols e)
        | _ -> acc)
      (Col.Set.of_list keys) aggs
  in
  match o with
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ -> []
  | Select (pred, _) -> [ read pred ]
  | Project (projs, _) ->
      [ List.fold_left
          (fun acc pr ->
            if Col.Set.mem pr.out required then Col.Set.union acc (Expr.cols pr.expr) else acc)
          Col.Set.empty projs ]
  | Join { pred; _ } -> [ read pred; read pred ]
  | Apply { pred; right; _ } ->
      (* the right side's outer references must survive in the left *)
      let req = Col.Set.union (read pred) (Op.free_cols right) in
      [ req; req ]
  | SegmentApply { seg_cols; inner; _ } ->
      [ Col.Set.union required (Col.Set.union (Col.Set.of_list seg_cols) (hole_srcs inner));
        required ]
  | GroupBy { keys; aggs; _ } | LocalGroupBy { keys; aggs; _ } -> [ grouped keys aggs ]
  | ScalarAgg { aggs; _ } -> [ grouped [] aggs ]
  | UnionAll (l, r) | Except (l, r) ->
      (* positional: keep full width on both sides *)
      [ Op.schema_set l; Op.schema_set r ]
  | Max1row _ | Rownum _ -> [ required ]

let narrow_group ~env required keys (aggs : agg list) input =
  let aggs' = List.filter (fun (a : agg) -> Col.Set.mem a.out required) aggs in
  let needed = List.filter (fun k -> Col.Set.mem k required) keys in
  (* a grouping column may be dropped when the kept columns functionally
     determine it — the groups are then exactly the same *)
  let closure = Fd.closure (Fd.analyze ~env input) (Col.Set.of_list needed) in
  let keys' =
    needed
    @ List.filter
        (fun k -> (not (List.exists (Col.equal k) needed)) && not (Col.Set.mem k closure))
        keys
  in
  (* grouping with no keys at all would change semantics (vector vs
     scalar aggregation); keep at least one *)
  let keys' = if keys' = [] && keys <> [] then [ List.hd keys ] else keys' in
  (keys', aggs')

(* The operator's own narrowing: unread items go, and when none is read
   one stays, its output added to [required] so that [demand] keeps
   what it reads. *)
let narrow ~env (required : Col.Set.t) (o : op) : op * Col.Set.t =
  let keep out items =
    match List.filter (fun i -> Col.Set.mem (out i) required) items with
    | [] -> ([ List.hd items ], Col.Set.add (out (List.hd items)) required)
    | kept -> (kept, required)
  in
  match o with
  | Project (projs, i) ->
      let kept, required = keep (fun pr -> pr.out) projs in
      (Project (kept, i), required)
  | ScalarAgg { aggs; input } ->
      let kept, required = keep (fun (a : agg) -> a.out) aggs in
      (ScalarAgg { aggs = kept; input }, required)
  | GroupBy { keys; aggs; input } ->
      let keys, aggs = narrow_group ~env required keys aggs input in
      (GroupBy { keys; aggs; input }, required)
  | LocalGroupBy { keys; aggs; input } ->
      let keys, aggs = narrow_group ~env required keys aggs input in
      (LocalGroupBy { keys; aggs; input }, required)
  | o -> (o, required)

let rec prune ~(env : Props.env) (required : Col.Set.t) (o : op) : op =
  let o, required = narrow ~env required o in
  match Op.children o with
  | [] -> o
  | kids -> Op.with_children o (List.map2 (prune ~env) (demand o required) kids)
