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

   Pruning does not cross UnionAll/Except (positional operators). *)

open Relalg
open Relalg.Algebra

let expr_cols e = Expr.cols e

let rec prune ~(env : Props.env) (required : Col.Set.t) (o : op) : op =
  let p = prune ~env in
  match o with
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ -> o
  | Select (pred, i) -> Select (pred, p (Col.Set.union required (expr_cols pred)) i)
  | Project (projs, i) ->
      let kept = List.filter (fun pr -> Col.Set.mem pr.out required) projs in
      let kept = if kept = [] then [ List.hd projs ] else kept in
      let below =
        List.fold_left
          (fun acc pr -> Col.Set.union acc (expr_cols pr.expr))
          Col.Set.empty kept
      in
      Project (kept, p below i)
  | Join { kind; pred; left; right } ->
      let req = Col.Set.union required (expr_cols pred) in
      Join { kind; pred; left = p req left; right = p req right }
  | Apply { kind; pred; left; right } ->
      (* the right side's outer references must survive in the left *)
      let req =
        Col.Set.union required (Col.Set.union (expr_cols pred) (Op.free_cols right))
      in
      Apply { kind; pred; left = p req left; right = p req right }
  | SegmentApply { seg_cols; outer; inner } ->
      let hole_srcs =
        let acc = ref Col.Set.empty in
        let rec walk o =
          (match o with
          | SegmentHole { src; _ } -> acc := Col.Set.union !acc (Col.Set.of_list src)
          | _ -> ());
          List.iter walk (Op.children o)
        in
        walk inner;
        !acc
      in
      let req_outer =
        Col.Set.union required (Col.Set.union (Col.Set.of_list seg_cols) hole_srcs)
      in
      SegmentApply { seg_cols; outer = p req_outer outer; inner = p required inner }
  | GroupBy { keys; aggs; input } ->
      let keys', aggs', below = prune_group ~env required keys aggs input in
      GroupBy { keys = keys'; aggs = aggs'; input = p below input }
  | LocalGroupBy { keys; aggs; input } ->
      let keys', aggs', below = prune_group ~env required keys aggs input in
      LocalGroupBy { keys = keys'; aggs = aggs'; input = p below input }
  | ScalarAgg { aggs; input } ->
      let aggs' = List.filter (fun (a : agg) -> Col.Set.mem a.out required) aggs in
      let aggs' = if aggs' = [] then [ List.hd aggs ] else aggs' in
      let below =
        List.fold_left
          (fun acc (a : agg) ->
            match agg_input_expr a.fn with
            | None -> acc
            | Some e -> Col.Set.union acc (expr_cols e))
          Col.Set.empty aggs'
      in
      ScalarAgg { aggs = aggs'; input = p below input }
  | UnionAll (l, r) ->
      (* positional: keep full width on both sides *)
      UnionAll (p (Op.schema_set l) l, p (Op.schema_set r) r)
  | Except (l, r) -> Except (p (Op.schema_set l) l, p (Op.schema_set r) r)
  | Max1row i -> Max1row (p required i)
  | Rownum { out; input } -> Rownum { out; input = p required input }

and prune_group ~env required keys (aggs : agg list) input =
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
  let below =
    List.fold_left
      (fun acc (a : agg) ->
        match agg_input_expr a.fn with
        | None -> acc
        | Some e -> Col.Set.union acc (expr_cols e))
      (Col.Set.of_list keys') aggs'
  in
  (keys', aggs', below)
