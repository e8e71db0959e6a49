(* Cost model.

   Mirrors the executor's strategy selection: joins with equi-conjuncts
   run as hash joins, other joins as nested loops; Apply runs the inner
   expression once per outer row, except when the inner is a filtered
   base-table scan with an index on an equality column — then it costs
   an index probe per outer row.  Costs are abstract work units
   (roughly: rows touched). *)

open Relalg
open Relalg.Algebra

let touch = 1.0
let hash_build = 1.6
let probe_cost = 2.5

(* does the predicate contain a usable equi conjunct between sides? *)
let has_equi pred (lcols : Col.Set.t) (rcols : Col.Set.t) =
  List.exists
    (fun c ->
      match c with
      | Cmp (Eq, a, b) ->
          (Col.Set.subset (Expr.cols a) lcols && Col.Set.subset (Expr.cols b) rcols)
          || (Col.Set.subset (Expr.cols b) lcols && Col.Set.subset (Expr.cols a) rcols)
      | _ -> false)
    (conjuncts pred)

(* The index-lookup Apply: the inner, under any projections, is a
   filtered base-table scan with a declared index on an equality column
   ({!Op.index_eq}); its (table, column) *)
let rec apply_index_path (cat : Catalog.t) (right : op) : (string * string) option =
  match right with
  | Project (_, i) -> apply_index_path cat i
  | Select (p, TableScan { table; cols }) ->
      let indexed (c : Col.t) = if Catalog.has_index cat table c.name then Some c.name else None in
      Option.map (fun (col, _, _) -> (table, col)) (Op.index_eq ~cols ~indexed p)
  | _ -> None

(* The cost of one node from its estimated output rows [out] and its
   children's (rows, properties, cost) triples, as {!Card.fold}
   supplies them; a join reads its sides' columns from their
   properties. *)
let node_cost (env : Card.env) (cat : Catalog.t) (o : op) (out : float) (_ : Fd.t)
    (kids : (float * Fd.t * float) list) : float =
  match o, kids with
  | (TableScan _ | ConstTable _ | SegmentHole _ | CseScan _), _ -> out *. touch
  | Select (p, _), [ (ni, _, ci) ] ->
      let n = float_of_int (List.length (conjuncts p)) in
      ci +. (ni *. 0.3 *. n)
  | Project _, [ (ni, _, ci) ] -> ci +. (ni *. 0.2)
  | Rownum _, [ (ni, _, ci) ] -> ci +. (ni *. 0.1)
  | Max1row _, [ (_, _, ci) ] -> ci
  | Join { pred; _ }, [ (nl, fl, cl); (nr, fr, cr) ] ->
      if has_equi pred fl.Fd.cols fr.Fd.cols then
        cl +. cr +. (hash_build *. nr) +. (1.2 *. nl) +. (0.5 *. out)
      else cl +. cr +. (nl *. Float.max 1.0 nr *. 0.8) +. (0.5 *. out)
  | Apply { right; _ }, [ (nl, _, cl); (_, _, ci) ] -> (
      match apply_index_path cat right with
      | Some (table, col) ->
          let matched =
            let rows = float_of_int (Stats.row_count env.stats table) in
            let nd = float_of_int (max 1 (Stats.ndv env.stats table col)) in
            rows /. nd
          in
          cl +. (nl *. (probe_cost +. matched))
      | None ->
          (* re-execute the inner expression per outer row *)
          cl +. (nl *. Float.max 1.0 ci) +. (0.5 *. out))
  | SegmentApply { seg_cols; _ }, [ (no, _, co); (_, _, ci) ] ->
      (* [ci] was costed with [hole_card] set to the rows per segment *)
      let nseg = Card.group_card env seg_cols no in
      co +. (hash_build *. no) +. (nseg *. Float.max 1.0 ci)
  | (GroupBy _ | LocalGroupBy _), [ (ni, _, ci) ] ->
      ci +. (hash_build *. ni) +. (0.5 *. out)
  | ScalarAgg _, [ (ni, _, ci) ] -> ci +. ni
  | UnionAll _, [ (_, _, cl); (_, _, cr) ] -> cl +. cr
  | Except _, [ (nl, _, cl); (nr, _, cr) ] -> cl +. cr +. (hash_build *. nr) +. nl
  | _ -> invalid_arg "Cost.node_cost: arity mismatch"

let fold (env : Card.env) (cat : Catalog.t) (o : op) : float * Fd.t * float =
  Card.fold env (node_cost env cat) o

let step (env : Card.env) (cat : Catalog.t) (o : op) kids : float * Fd.t * float =
  Card.step env (node_cost env cat) o kids

let cost (env : Card.env) (cat : Catalog.t) (o : op) : float =
  let _, _, c = fold env cat o in
  c

let of_plan (stats : Stats.t) (o : op) : float =
  let env = Card.make_env stats o in
  cost env (Stats.catalog stats) o
