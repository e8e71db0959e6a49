(* Segmented execution (paper Section 3.4).

   3.4.1  Introducing SegmentApply: when a join connects two instances
   of the same expression — one of them possibly wrapped in an extra
   aggregate and/or filter — and the join predicate equates a column of
   one instance with the image of the SAME column in the other, the
   rows can be partitioned on that column and the join evaluated per
   segment:

       X ⋈_{a = a' ∧ p} f(X')   ~~>   X SA_{a} (S ⋈_p f(S'))

   where X' ≅ X with column bijection m, a' resolves (through f's
   projections and grouping keys) to m(a), and S/S' are SegmentHole
   placeholders for the table-valued parameter.

   3.4.2  Moving joins around SegmentApply:

       (R SA_A E) ⋈p T = (R ⋈p T) SA_{A ∪ cols(T)} E
           iff cols(p) ⊆ A ∪ cols(T)

   (the paper adds key(T) to the segmenting columns; we add all of T's
   columns — functionally equivalent since key(T) determines them, and
   it lets the execution carry T's values through the segment). *)

open Relalg
open Relalg.Algebra

(* Peel filter / projection / aggregation layers off the candidate
   side.  [rebuild] re-applies the layers on a replacement core;
   [resolve] maps an output column of the peeled stack to the core
   column it passes through from, if any. *)
type peeled = {
  core : op;
  rebuild : op -> op;
  resolve : Col.t -> Col.t option;
}

let rec peel (o : op) : peeled =
  match o with
  | Select (p, i) ->
      let inner = peel i in
      { inner with rebuild = (fun c -> Select (p, inner.rebuild c)) }
  | Project (ps, i) ->
      let inner = peel i in
      let resolve (c : Col.t) =
        match List.find_opt (fun pr -> Col.equal pr.out c) ps with
        | Some { expr = ColRef below; _ } -> inner.resolve below
        | _ -> None
      in
      { core = inner.core; rebuild = (fun c -> Project (ps, inner.rebuild c)); resolve }
  | GroupBy { keys; aggs; input } ->
      let inner = peel input in
      let resolve (c : Col.t) =
        if List.exists (Col.equal c) keys then inner.resolve c else None
      in
      { core = inner.core;
        rebuild = (fun c -> GroupBy { keys; aggs; input = inner.rebuild c });
        resolve
      }
  | ScalarAgg { aggs; input } ->
      let inner = peel input in
      { core = inner.core;
        rebuild = (fun c -> ScalarAgg { aggs; input = inner.rebuild c });
        resolve = (fun _ -> None)
      }
  | o -> { core = o; rebuild = (fun c -> c); resolve = (fun c -> Some c) }

(* Only introduce segments over non-trivial cores: segmenting a bare
   1-row expression is useless. *)
let core_is_interesting = function
  | TableScan _ | Join _ | Select _ | Project _ -> true
  | _ -> false

let intro (o : op) : op option =
  match o with
  | Join { kind = (Inner | Semi | Anti | LeftOuter) as kind; pred; left = x; right = y } -> (
      let p = peel y in
      if not (core_is_interesting p.core) then None
      else
        match Op.iso x p.core with
        | None -> None
        | Some m ->
            (* m : column of x -> column of core *)
            let conjs = conjuncts pred in
            let xset = Op.schema_set x in
            let is_seg_conj c =
              match c with
              | Cmp (Eq, ColRef a, ColRef b) ->
                  let check a b =
                    if Col.Set.mem a xset then
                      match Col.IdMap.find_opt a.Col.id m, p.resolve b with
                      | Some img, Some core_b when Col.equal img core_b -> Some a
                      | _ -> None
                    else None
                  in
                  (match check a b with Some r -> Some r | None -> check b a)
              | _ -> None
            in
            let segs = List.filter_map is_seg_conj conjs in
            if segs = [] then None
            else begin
              let seg_cols = segs in
              let residual = List.filter (fun c -> is_seg_conj c = None) conjs in
              let xcols = Op.schema x in
              (* hole 1 stands for the outer instance inside the inner
                 expression: fresh ids (x itself remains as the outer) *)
              let h1cols = List.map Col.clone xcols in
              let m1 =
                List.fold_left2
                  (fun acc (c : Col.t) f -> Col.IdMap.add c.id f acc)
                  Col.IdMap.empty xcols h1cols
              in
              let hole1 = SegmentHole { cols = h1cols; src = xcols } in
              (* hole 2 replaces the core instance, keeping the core's
                 column ids so the peeled layers need no renaming; its
                 src lists the x columns in core order via the iso *)
              let core_cols = Op.schema p.core in
              let inv =
                Col.IdMap.fold (fun xid (yc : Col.t) acc -> Col.IdMap.add yc.id xid acc) m
                  Col.IdMap.empty
              in
              let src2 =
                List.map
                  (fun (yc : Col.t) ->
                    match Col.IdMap.find_opt yc.id inv with
                    | Some xid -> List.find (fun (c : Col.t) -> c.id = xid) xcols
                    | None -> yc)
                  core_cols
              in
              let hole2 = SegmentHole { cols = core_cols; src = src2 } in
              let y_rebuilt = p.rebuild hole2 in
              let residual' =
                conj_list (List.map (Expr.rename ~map_op:Op.rename m1) residual)
              in
              (* the join variant carries over: within a segment the
                 semi/anti/outer semantics against the aggregated
                 instance are exactly the original ones (paper 3.4.1:
                 "The argument ... is valid for those operators too") *)
              let inner_join =
                Join { kind; pred = residual'; left = hole1; right = y_rebuilt }
              in
              let sa = SegmentApply { seg_cols; outer = x; inner = inner_join } in
              (* restore original output identity: x's columns come from
                 the hole-1 copies (real row values inside the segment),
                 y's columns are unchanged *)
              let projs =
                List.map
                  (fun (c : Col.t) ->
                    match Col.IdMap.find_opt c.id m1 with
                    | Some c' -> { expr = ColRef c'; out = c }
                    | None -> { expr = ColRef c; out = c })
                  (Op.schema o)
              in
              Some (Project (projs, sa))
            end)
  | _ -> None

let introduce (o : op) : op option =
  match intro o with
  | Some _ as t -> t
  | None -> (
      (* an inner join is symmetric, and an index-lookup Apply is the
         join it probes (identity (2)): X ⋈ f(X') may stand either way
         round *)
      let swapped =
        match o with
        | Join { kind = Inner; pred; left; right } ->
            Some (Join { kind = Inner; pred; left = right; right = left })
        | Apply { kind = Inner; pred; left; right = Select (p, (TableScan _ as x)) }
          when is_true_const pred && not (Expr.has_subquery p) ->
            Some (Join { kind = Inner; pred = p; left = x; right = left })
        | _ -> None
      in
      match swapped with
      | Some j -> Option.map (Op.project_restore (Op.schema o)) (intro j)
      | None -> None)

(* --- 3.4.2: push a join below SegmentApply --------------------------- *)

let push_join_below (o : op) : op option =
  let attempt pred sa_projs seg_cols outer inner t ~t_left =
    let a = Col.Set.of_list seg_cols and tcols = Op.schema_set t in
    (* through the optional projection, map predicate columns back to
       what the SegmentApply produces *)
    let sub =
      match sa_projs with Some ps -> Expr.subst_of_projs ps | None -> Col.IdMap.empty
    in
    let pred' = Expr.subst sub pred in
    (* a hole's copy of a segmenting column always equals the
       segmenting column within its segment; normalize predicate
       references accordingly *)
    let hole_to_seg =
      let m = ref Col.IdMap.empty in
      let rec walk o =
        (match o with
        | SegmentHole { cols; src } ->
            List.iter2
              (fun (h : Col.t) (s : Col.t) ->
                if List.exists (Col.equal s) seg_cols then m := Col.IdMap.add h.id s !m)
              cols src
        | _ -> ());
        List.iter walk (Op.children o)
      in
      walk inner;
      !m
    in
    let pred' = Expr.rename ~map_op:Op.rename hole_to_seg pred' in
    let pred_cols = Expr.cols pred' in
    if Col.Set.subset pred_cols (Col.Set.union a tcols) then begin
      let new_outer = Join { kind = Inner; pred = pred'; left = outer; right = t } in
      let new_seg = seg_cols @ Op.schema t in
      let sa = SegmentApply { seg_cols = new_seg; outer = new_outer; inner } in
      let sa_out =
        match sa_projs with
        | Some ps -> ps
        | None ->
            List.map
              (fun (c : Col.t) -> { expr = ColRef c; out = c })
              (Op.schema (SegmentApply { seg_cols; outer; inner }))
      in
      let t_out = List.map (fun (c : Col.t) -> { expr = ColRef c; out = c }) (Op.schema t) in
      let out = if t_left then t_out @ sa_out else sa_out @ t_out in
      Some (Project (out, sa))
    end
    else None
  in
  match o with
  | Join { kind = Inner; pred; left = SegmentApply { seg_cols; outer; inner }; right = t }
    when not (Op.exists_op (function SegmentApply _ -> true | _ -> false) t) ->
      attempt pred None seg_cols outer inner t ~t_left:false
  | Join { kind = Inner; pred; left = t; right = SegmentApply { seg_cols; outer; inner } }
    when not (Op.exists_op (function SegmentApply _ -> true | _ -> false) t) ->
      attempt pred None seg_cols outer inner t ~t_left:true
  | Join
      { kind = Inner; pred;
        left = Project (ps, SegmentApply { seg_cols; outer; inner });
        right = t
      }
    when not (Op.exists_op (function SegmentApply _ -> true | _ -> false) t) ->
      attempt pred (Some ps) seg_cols outer inner t ~t_left:false
  | Join
      { kind = Inner; pred; left = t;
        right = Project (ps, SegmentApply { seg_cols; outer; inner })
      }
    when not (Op.exists_op (function SegmentApply _ -> true | _ -> false) t) ->
      attempt pred (Some ps) seg_cols outer inner t ~t_left:true
  | _ -> None
