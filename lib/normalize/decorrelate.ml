(* Removal of Apply — the paper's Section 2.3, Figure 4.

   Apply operators are pushed towards the leaves until the right child
   no longer references the left child's columns, at which point the
   Apply degenerates into the corresponding join variant:

   (1) R A⊗ E            = R ⊗true E            if E uncorrelated
   (2) R A⊗ (σp E)       = R ⊗p E               if E uncorrelated
   (3) R A× (σp E)       = σp (R A× E)          — realized by merging p
                                                  into the Apply's
                                                  predicate slot
   (4) R A× (πv E)       = πv∪cols(R) (R A× E)
   (5) R A× (E1 ∪ E2)    = (R A× E1) ∪ (R A× E2)         [Class 2]
   (6) R A× (E1 − E2)    = (R A× E1) − (R A× E2)         [Class 2]
   (7) R A× (E1 × E2)    = (R A× E1) ⋈R.key (R A× E2)    [Class 2]
   (8) R A× (G_{A,F} E)  = G_{A∪cols(R),F} (R A× E)
   (9) R A× (G¹_F E)     = G_{cols(R),F'} (R A^LOJ E)

   Our Apply carries a predicate slot (R A⊗ (σpred E) is one node), so
   (2)/(3) become predicate merging, for every join variant at once.

   Identities (7)-(9) require a key on R; when none is derivable a
   Rownum manufactures one.  Identity (9) rewrites count aggregates
   over a non-nullable column of E to detect outerjoin padding; when E
   exposes no such column the Apply is kept (it still executes,
   correlated).

   Class 2 identities (5)-(7) duplicate R; following the paper they are
   NOT applied during normalization (the subquery stays correlated) but
   can be enabled for cost-based exploration via [~class2:true].

   One-sided correlated joins below a cross Apply need no duplication:
       R A× (E1 ⋈q E2) = (R A× E1) ⋈q E2       if E2 uncorrelated
   (and symmetrically, with a column-reordering projection). *)

open Relalg
open Relalg.Algebra

type config = { env : Props.env; class2 : bool }

(* A broken internal invariant (a route reached with an impossible
   Apply flavor, a keyed subtree without a key) — typed so that
   fuzzer-found crashes are diagnosable instead of anonymous asserts.
   Classified by [Engine.Errors.of_exn] into the Normalize phase. *)
exception Internal_error of string

let internal fmt = Format.kasprintf (fun s -> raise (Internal_error s)) fmt

let contains_apply o =
  Op.exists_op (function Apply _ -> true | _ -> false) o

(* Ensure R exposes a key; manufacture one with Rownum if needed. *)
let with_key cfg (r : op) : op =
  if Fd.covers_key (Fd.analyze ~env:cfg.env r) (Op.schema_set r) then r
  else Rownum { out = Col.fresh "rn" Value.TInt; input = r }

(* Rewrite aggregates for identity (9): valid when agg(empty) =
   agg({null}), i.e. everything except count; counts become counts of a
   non-nullable column of E so that outerjoin padding yields 0. *)
let adjust_aggs_for_loj ~(env : Props.env) (aggs : agg list) (e : op) : agg list option =
  let nn = Col.Set.inter (Fd.analyze ~env e).nonnull (Op.schema_set e) in
  let probe = Col.Set.choose_opt nn in
  let ecols = Op.schema_set e in
  (* NULL-padding nulls exactly E's columns; the aggregate input must go
     NULL with them *)
  let strict_on_e e' = not (Col.Set.is_empty (Col.Set.inter (Expr.strict_cols e') ecols)) in
  let count_probe (a : agg) =
    match probe with
    | Some c ->
        Some
          { a with
            fn = Count (Case ([ (Not (IsNull (ColRef c)), Const (Value.Int 1)) ], None))
          }
    | None -> None
  in
  let adjust (a : agg) =
    match a.fn with
    | CountStar -> count_probe a
    | Count e' ->
        (* count of non-null e': on the padded row a strict e' is NULL
           and the count is 0 naturally; a non-null constant counts
           exactly the matched rows, which the probe rewrite computes *)
        if strict_on_e e' then Some a
        else (
          match e' with
          | Const v when not (Value.is_null v) -> count_probe a
          | _ -> None)
    | Sum e' | Min e' | Max e' | Avg e' ->
        (* identity (9) needs agg({null}) = agg(empty) = NULL: true for
           strict inputs *)
        if strict_on_e e' then Some a else None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | a :: rest -> ( match adjust a with Some a' -> go (a' :: acc) rest | None -> None)
  in
  go [] aggs

let rec remove cfg (o : op) : op =
  match o with
  | Apply { kind; pred; left; right } ->
      let left = remove cfg left and right = remove cfg right in
      push cfg kind pred left right
  | o -> Op.with_children o (List.map (remove cfg) (Op.children o))

(* Push one Apply node downwards. *)
and push cfg kind pred (r : op) (e : op) : op =
  if not (Op.correlated_with e r) then
    (* identities (1)/(2): degenerate into a join variant *)
    Join { kind; pred; left = r; right = e }
  else
    match e with
    | Select (q, e1) ->
        (* predicate merge: covers (2)/(3) for every variant *)
        push cfg kind (conj pred q) r e1
    | Project (projs, e1) -> push_project cfg kind pred r projs e1
    | ScalarAgg { aggs; input } -> push_scalar_agg cfg kind pred r aggs input
    | GroupBy { keys; aggs; input } when kind = Inner ->
        push_vector_groupby cfg pred r keys aggs input
    | Max1row e1 when Fd.max_one (Fd.analyze ~env:cfg.env e1) ->
        (* the compiler detects a single row from keys: elide Max1row *)
        push cfg kind pred r e1
    | Join { kind = jk; pred = q; left = e1; right = e2 } when kind = Inner ->
        push_inner_join cfg pred r jk q e1 e2
    | UnionAll (e1, e2) when kind = Inner && cfg.class2 ->
        (* identity (5): duplicates R — Class 2 *)
        let arity_cols o = Op.schema o in
        let b1 = push cfg Inner pred r e1 in
        let r2, m = Op.clone_fresh r in
        let e2' = Op.rename m e2 in
        let pred2 = Expr.rename ~map_op:Op.rename m pred in
        (* pred references e2's columns directly (not e1's): the apply
           predicate was written against the union's schema = e1's
           cols; remap positionally e1 -> e2 *)
        let pos_map =
          List.fold_left2
            (fun acc (c1 : Col.t) (c2 : Col.t) -> Col.IdMap.add c1.id c2 acc)
            Col.IdMap.empty (Op.schema e1) (Op.schema e2)
        in
        let pred2 = Expr.rename ~map_op:Op.rename pos_map pred2 in
        let b2 = push cfg Inner pred2 r2 e2' in
        (* realign branch 2 positionally to branch 1's schema *)
        let c1 = arity_cols b1 in
        let b2 = project_to_positional c1 (Op.schema b2) b2 in
        UnionAll (Op.project_restore c1 b1, b2)
    | Except (e1, e2) when kind = Inner && cfg.class2 ->
        (* identity (6) *)
        let b1 = push cfg Inner pred r e1 in
        let r2, m = Op.clone_fresh r in
        let e2' = Op.rename m e2 in
        let pos_map =
          List.fold_left2
            (fun acc (c1 : Col.t) (c2 : Col.t) -> Col.IdMap.add c1.id c2 acc)
            Col.IdMap.empty (Op.schema e1) (Op.schema e2)
        in
        let pred2 = Expr.rename ~map_op:Op.rename m (Expr.rename ~map_op:Op.rename pos_map pred) in
        let b2 = push cfg Inner pred2 r2 e2' in
        let c1 = Op.schema b1 in
        Except (Op.project_restore c1 b1, project_to_positional c1 (Op.schema b2) b2)
    | _ -> (
        (* generic fallbacks per variant *)
        match kind with
        | Semi | Anti -> push_semi_anti_generic cfg kind pred r e
        | Inner | LeftOuter ->
            (* stuck: keep the Apply (Class 2/3 or unsupported shape);
               it still executes correlated *)
            Apply { kind; pred; left = r; right = e })

(* positional re-projection: produce [target] cols from [source] cols *)
and project_to_positional (target : Col.t list) (source : Col.t list) (o : op) : op =
  let n = List.length target in
  let src = ref source in
  let projs =
    List.map
      (fun (t : Col.t) ->
        match !src with
        | s :: rest ->
            src := rest;
            { expr = ColRef s; out = t }
        | [] -> invalid_arg "project_to_positional: arity mismatch")
      target
  in
  ignore n;
  Project (projs, o)

(* --- identity (4): Apply over Project ------------------------------- *)

and push_project cfg kind pred r projs e1 =
  let sub = Expr.subst_of_projs projs in
  let pred' = Expr.subst sub pred in
  match kind with
  | Semi | Anti ->
      (* E's columns are discarded by the semijoin: drop the projection *)
      push cfg kind pred' r e1
  | Inner ->
      let inner = push cfg Inner pred' r e1 in
      let pass = List.map (fun c -> { expr = ColRef c; out = c }) (Op.schema r) in
      Project (pass @ projs, inner)
  | LeftOuter ->
      (* pulling the projection above the outerjoin evaluates it on the
         NULL padding; sound when every projected expression goes NULL
         as soon as some column OF THE INNER SIDE is NULL (outer-only
         expressions would survive the padding and must be guarded) *)
      let e1cols = Op.schema_set e1 in
      let strict_on_inner p =
        not (Col.Set.is_empty (Col.Set.inter (Expr.strict_cols p.expr) e1cols))
      in
      if List.for_all strict_on_inner projs then begin
        let inner = push cfg LeftOuter pred' r e1 in
        let pass = List.map (fun c -> { expr = ColRef c; out = c }) (Op.schema r) in
        Project (pass @ projs, inner)
      end
      else if contains_apply (push cfg LeftOuter pred' r e1) then
        Apply { kind; pred; left = r; right = Project (projs, e1) }
      else begin
        (* non-strict projection above a decorrelatable tree: guard each
           expression with a match indicator from a non-nullable inner
           column so padding still yields NULL *)
        match Col.Set.choose_opt (Fd.analyze ~env:cfg.env e1).nonnull with
        | Some probe when Col.Set.mem probe (Op.schema_set e1) ->
            let inner = push cfg LeftOuter pred' r e1 in
            let pass = List.map (fun c -> { expr = ColRef c; out = c }) (Op.schema r) in
            let guard p =
              { p with
                expr = Case ([ (Not (IsNull (ColRef probe)), p.expr) ], None)
              }
            in
            Project (pass @ List.map guard projs, inner)
        | _ -> Apply { kind; pred; left = r; right = Project (projs, e1) }
      end

(* --- identity (9): Apply over ScalarAgg ----------------------------- *)

(* Class-2 unnesting of a scalar aggregate over UNION ALL without
   duplicating the outer: aggregate each branch separately (chaining
   two Applies over the SAME outer) and combine the partial results
   scalar-wise.  Equivalent in effect to identity (5) + (9) but avoids
   the common subexpression, which is why it is our preferred class-2
   strategy when [class2] is enabled. *)
and push_scalar_agg_over_union cfg kind pred r (aggs : agg list) e1 e2 : op option =
  if List.length (Op.schema e1) <> List.length (Op.schema e2) then None
  else
  let pos_map =
    List.fold_left2
      (fun acc (c1 : Col.t) (c2 : Col.t) -> Col.IdMap.add c1.id c2 acc)
      Col.IdMap.empty (Op.schema e1) (Op.schema e2)
  in
  let combine fn a b =
    let null_chain x y op_else =
      Case ([ (IsNull x, y); (IsNull y, x) ], Some op_else)
    in
    match fn with
    | Sum _ -> Some (null_chain a b (Arith (Add, a, b)))
    | Min _ -> Some (null_chain a b (Case ([ (Cmp (Le, a, b), a) ], Some b)))
    | Max _ -> Some (null_chain a b (Case ([ (Cmp (Ge, a, b), a) ], Some b)))
    | CountStar | Count _ -> Some (Arith (Add, a, b))
    | Avg _ -> None
  in
  let fresh_branch_aggs rename =
    List.map
      (fun (a : agg) ->
        let fn =
          match agg_input_expr a.fn with
          | None -> a.fn
          | Some e -> agg_with_input a.fn (rename e)
        in
        { fn; out = Col.clone a.out })
      aggs
  in
  let aggs1 = fresh_branch_aggs (fun e -> e) in
  let aggs2 = fresh_branch_aggs (Expr.rename ~map_op:Op.rename pos_map) in
  let combined =
    List.map2
      (fun (a : agg) ((a1 : agg), (a2 : agg)) ->
        Option.map
          (fun e -> { expr = e; out = a.out })
          (combine a.fn (ColRef a1.out) (ColRef a2.out)))
      aggs
      (List.combine aggs1 aggs2)
  in
  if List.exists Option.is_none combined then None
  else begin
    let a1 = push cfg Inner true_ r (ScalarAgg { aggs = aggs1; input = e1 }) in
    if contains_apply a1 then None
    else begin
      let a2 = push cfg Inner true_ a1 (ScalarAgg { aggs = aggs2; input = e2 }) in
      if contains_apply a2 then None
      else begin
        let pass = List.map (fun c -> { expr = ColRef c; out = c }) (Op.schema r) in
        let proj = Project (pass @ List.map Option.get combined, a2) in
        let guarded = if is_true_const pred then proj else Select (pred, proj) in
        match kind with
        | Inner | LeftOuter -> Some guarded
        | Semi -> Some (Op.project_restore (Op.schema r) guarded)
        | Anti -> None
      end
    end
  end

and push_scalar_agg cfg kind pred r aggs input =
  match input, kind with
  | UnionAll (e1, e2), (Inner | LeftOuter) when cfg.class2 -> (
      match push_scalar_agg_over_union cfg kind pred r aggs e1 e2 with
      | Some t -> t
      | None -> push_scalar_agg_plain cfg kind pred r aggs input)
  | _ -> push_scalar_agg_plain cfg kind pred r aggs input

and push_scalar_agg_plain cfg kind pred r aggs input =
  match kind with
  | Inner | LeftOuter -> (
      (* a scalar aggregate returns exactly one row, so cross and outer
         Apply coincide *)
      match adjust_aggs_for_loj ~env:cfg.env aggs input with
      | None -> Apply { kind; pred; left = r; right = ScalarAgg { aggs; input } }
      | Some aggs' ->
          let r' = with_key cfg r in
          let inner = push cfg LeftOuter true_ r' input in
          if contains_apply inner then
            (* could not fully decorrelate below: keep original *)
            Apply { kind; pred; left = r; right = ScalarAgg { aggs; input } }
          else begin
            let g = GroupBy { keys = Op.schema r'; aggs = aggs'; input = inner } in
            if is_true_const pred then g else Select (pred, g)
          end)
  | Semi | Anti ->
      (* exactly one row: semi keeps r iff pred holds on it, anti iff it
         does not hold (pred FALSE or UNKNOWN) *)
      let cross = push cfg Inner true_ r (ScalarAgg { aggs; input }) in
      if contains_apply cross then
        Apply { kind; pred; left = r; right = ScalarAgg { aggs; input } }
      else
        let cond =
          match kind with
          | Semi -> pred
          | Anti -> Or (Not pred, IsNull pred)
          | Inner | LeftOuter ->
              internal
                "push_scalar_agg: %s Apply reached the semi/anti route (pred %s over %s)"
                (join_kind_name kind) (Expr.to_string pred) (Pp.label r)
        in
        Op.project_restore (Op.schema r) (Select (cond, cross))

(* --- identity (8): cross Apply over vector GroupBy ------------------ *)

and push_vector_groupby cfg pred r keys aggs input =
  let r' = with_key cfg r in
  let inner = push cfg Inner true_ r' input in
  if contains_apply inner then
    Apply { kind = Inner; pred; left = r; right = GroupBy { keys; aggs; input } }
  else begin
    let g = GroupBy { keys = Op.schema r' @ keys; aggs; input = inner } in
    if is_true_const pred then g else Select (pred, g)
  end

(* --- one-sided correlated joins under cross Apply ------------------- *)

and push_inner_join cfg pred r jk q e1 e2 =
  let q_corr = not (Col.Set.is_empty (Col.Set.inter (Expr.cols q) (Op.schema_set r))) in
  let e1corr = Op.correlated_with e1 r and e2corr = Op.correlated_with e2 r in
  match jk with
  | Inner ->
      if e2corr && not e1corr && not q_corr then begin
        (* R A× (E1 ⋈q E2) = π(E1 ⋈q (R A× E2)) reordered to R,E1,E2 *)
        let inner = push cfg Inner true_ r e2 in
        if contains_apply inner then
          Apply { kind = Inner; pred; left = r;
                  right = Join { kind = jk; pred = q; left = e1; right = e2 } }
        else begin
          let j = Join { kind = Inner; pred = q; left = e1; right = inner } in
          let target = Op.schema r @ Op.schema e1 @ Op.schema e2 in
          let reordered = Op.project_restore target j in
          if is_true_const pred then reordered else Select (pred, reordered)
        end
      end
      else if (e1corr || q_corr) && not e2corr then begin
        (* fold q into the Apply of the left component *)
        let inner = push cfg Inner true_ r e1 in
        if contains_apply inner then
          Apply { kind = Inner; pred; left = r;
                  right = Join { kind = jk; pred = q; left = e1; right = e2 } }
        else
          let j = Join { kind = Inner; pred = q; left = inner; right = e2 } in
          if is_true_const pred then j else Select (pred, j)
      end
      else if cfg.class2 then begin
        (* identity (7): both sides correlated — duplicate R on a key *)
        let r' = with_key cfg r in
        let key =
          match Fd.derived_keys (Fd.analyze ~env:cfg.env r') ~schema:(Op.schema r') with
          | k :: _ -> Col.Set.elements k
          | [] ->
              internal "identity (7): with_key produced a keyless outer:\n%s"
                (Pp.to_string r')
        in
        let b1 = push cfg Inner true_ r' e1 in
        let r2, m = Op.clone_fresh r' in
        let e2' = Op.rename m e2 in
        let b2 = push cfg Inner true_ r2 e2' in
        let key2 = List.map (fun (c : Col.t) ->
            match Col.IdMap.find_opt c.id m with Some c' -> c' | None -> c) key in
        let key_pred =
          conj_list
            (List.map2 (fun (a : Col.t) (b : Col.t) -> Cmp (Eq, ColRef a, ColRef b)) key key2)
        in
        let q' = Expr.rename ~map_op:Op.rename m q in
        (* q references e2 columns: they were renamed; e1 columns and R
           columns: R columns in q resolve to the first copy (kept) *)
        let j = Join { kind = Inner; pred = conj key_pred q'; left = b1; right = b2 } in
        (* project away the duplicated R copy, restore R,E1,E2 order *)
        let e2_cols_renamed =
          List.map (fun (c : Col.t) ->
              match Col.IdMap.find_opt c.id m with Some c' -> c' | None -> c)
            (Op.schema e2)
        in
        let target_src = Op.schema r' @ Op.schema e1 @ e2_cols_renamed in
        let target_out = Op.schema r' @ Op.schema e1 @ Op.schema e2 in
        let projs =
          List.map2 (fun (src : Col.t) (out : Col.t) -> { expr = ColRef src; out }) target_src target_out
        in
        let reordered = Project (projs, j) in
        if is_true_const pred then reordered else Select (pred, reordered)
      end
      else
        Apply { kind = Inner; pred; left = r;
                right = Join { kind = jk; pred = q; left = e1; right = e2 } }
  | LeftOuter ->
      if e1corr && (not e2corr) && not q_corr then begin
        (* R A× (E1 LOJq E2) = (R A× E1) LOJq E2 when only E1 correlated *)
        let inner = push cfg Inner true_ r e1 in
        if contains_apply inner then
          Apply { kind = Inner; pred; left = r;
                  right = Join { kind = jk; pred = q; left = e1; right = e2 } }
        else
          let j = Join { kind = LeftOuter; pred = q; left = inner; right = e2 } in
          if is_true_const pred then j else Select (pred, j)
      end
      else
        Apply { kind = Inner; pred; left = r;
                right = Join { kind = jk; pred = q; left = e1; right = e2 } }
  | Semi | Anti ->
      if (e1corr || q_corr) && not e2corr then begin
        let inner = push cfg Inner true_ r e1 in
        if contains_apply inner then
          Apply { kind = Inner; pred; left = r;
                  right = Join { kind = jk; pred = q; left = e1; right = e2 } }
        else
          let j = Join { kind = jk; pred = q; left = inner; right = e2 } in
          if is_true_const pred then j else Select (pred, j)
      end
      else
        Apply { kind = Inner; pred; left = r;
                right = Join { kind = jk; pred = q; left = e1; right = e2 } }

(* --- generic count-based removal for semi/anti Apply ----------------- *)

and push_semi_anti_generic cfg kind pred r e =
  (* Primary route, via the paper's count rewrite:
       R A^semi_p E = π_R (σ_{cnt>0} (G_{cols(R')}[cnt := count(probe)]
                                        (R' A^LOJ_p E)))
     and anti with cnt = 0.  Needs a key on R, a non-nullable probe
     column on E, and a fully decorrelatable LOJ Apply.

     Secondary route for semijoins when the LOJ stalls (e.g. E is a
     vector GroupBy): distinct over the cross Apply,
       R A^semi_p E = π_R (G_{cols(R')} (π_{R'} (σ_p (R' A× E)))),
     which needs no padding and therefore composes with identity (8). *)
  let count_route () =
    match
      Col.Set.choose_opt (Col.Set.inter (Fd.analyze ~env:cfg.env e).nonnull (Op.schema_set e))
    with
    | None -> None
    | Some probe ->
        let r' = with_key cfg r in
        let inner = push cfg LeftOuter pred r' e in
        if contains_apply inner then None
        else begin
          let cnt = { fn = Count (ColRef probe); out = Col.fresh "cnt" Value.TInt } in
          let g = GroupBy { keys = Op.schema r'; aggs = [ cnt ]; input = inner } in
          let cond =
            match kind with
            | Semi -> Cmp (Gt, ColRef cnt.out, Const (Value.Int 0))
            | Anti -> Cmp (Eq, ColRef cnt.out, Const (Value.Int 0))
            | Inner | LeftOuter ->
                internal
                  "push_semi_anti: %s Apply reached the count route (pred %s over %s)"
                  (join_kind_name kind) (Expr.to_string pred) (Pp.label e)
          in
          Some (Op.project_restore (Op.schema r) (Select (cond, g)))
        end
  in
  let distinct_route () =
    if kind <> Semi then None
    else begin
      let r' = with_key cfg r in
      let cross = push cfg Inner pred r' e in
      if contains_apply cross then None
      else
        Some
          (Op.project_restore (Op.schema r)
             (GroupBy
                { keys = Op.schema r'; aggs = []; input = Op.project_restore (Op.schema r') cross }))
    end
  in
  match count_route () with
  | Some t -> t
  | None -> (
      match distinct_route () with
      | Some t -> t
      | None -> Apply { kind; pred; left = r; right = e })
