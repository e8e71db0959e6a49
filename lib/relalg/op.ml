(* Operations over relational operator trees: output schema, free
   (outer) references, traversal, cloning with fresh column ids. *)

open Algebra

(* ------------------------------------------------------------------ *)
(* Output schema (ordered column list).                               *)
(* ------------------------------------------------------------------ *)

let rec schema (o : op) : Col.t list =
  match o with
  | TableScan { cols; _ } | ConstTable { cols; _ } | SegmentHole { cols; _ }
  | CseScan { cols; _ } ->
      cols
  | Select (_, i) | Max1row i -> schema i
  | Project (projs, _) -> List.map (fun p -> p.out) projs
  | Join { kind; left; right; _ } | Apply { kind; left; right; _ } -> (
      match kind with
      | Semi | Anti -> schema left
      | Inner | LeftOuter -> schema left @ schema right)
  | SegmentApply { outer; inner; _ } -> schema outer @ schema inner
  | GroupBy { keys; aggs; _ } | LocalGroupBy { keys; aggs; _ } ->
      keys @ List.map (fun (a : agg) -> a.out) aggs
  | ScalarAgg { aggs; _ } -> List.map (fun (a : agg) -> a.out) aggs
  | UnionAll (l, _) | Except (l, _) -> schema l
  | Rownum { out; input } -> schema input @ [ out ]

let schema_set o = Col.Set.of_list (schema o)

let project_restore (cols : Col.t list) (o : op) : op =
  Project (List.map (fun c -> { expr = ColRef c; out = c }) cols, o)

(* ------------------------------------------------------------------ *)
(* Children and reconstruction.                                       *)
(* ------------------------------------------------------------------ *)

let children = function
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ -> []
  | Select (_, i) | Project (_, i) | Max1row i -> [ i ]
  | GroupBy { input; _ } | LocalGroupBy { input; _ } | ScalarAgg { input; _ }
  | Rownum { input; _ } ->
      [ input ]
  | Join { left; right; _ } | Apply { left; right; _ } -> [ left; right ]
  | SegmentApply { outer; inner; _ } -> [ outer; inner ]
  | UnionAll (l, r) | Except (l, r) -> [ l; r ]

let with_children o cs =
  match o, cs with
  | (TableScan _ | ConstTable _ | SegmentHole _ | CseScan _), [] -> o
  | Select (p, _), [ i ] -> Select (p, i)
  | Project (ps, _), [ i ] -> Project (ps, i)
  | Max1row _, [ i ] -> Max1row i
  | GroupBy g, [ i ] -> GroupBy { g with input = i }
  | LocalGroupBy g, [ i ] -> LocalGroupBy { g with input = i }
  | ScalarAgg g, [ i ] -> ScalarAgg { g with input = i }
  | Rownum r, [ i ] -> Rownum { r with input = i }
  | Join j, [ l; r ] -> Join { j with left = l; right = r }
  | Apply a, [ l; r ] -> Apply { a with left = l; right = r }
  | SegmentApply s, [ o'; i ] -> SegmentApply { s with outer = o'; inner = i }
  | UnionAll _, [ l; r ] -> UnionAll (l, r)
  | Except _, [ l; r ] -> Except (l, r)
  | _ -> invalid_arg "Op.with_children: arity mismatch"

(* The scalar expressions attached directly to an operator (not those of
   its children). *)
let local_exprs = function
  | Select (p, _) -> [ p ]
  | Project (ps, _) -> List.map (fun p -> p.expr) ps
  | Join { pred; _ } | Apply { pred; _ } -> [ pred ]
  | GroupBy { aggs; _ } | LocalGroupBy { aggs; _ } | ScalarAgg { aggs; _ } ->
      List.filter_map (fun a -> agg_input_expr a.fn) aggs
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ | SegmentApply _
  | UnionAll _ | Except _ | Max1row _ | Rownum _ ->
      []

(* ------------------------------------------------------------------ *)
(* Free (outer) references.                                           *)
(*                                                                    *)
(* The set of columns used in a subtree but not produced by it: the   *)
(* correlation of the paper.  Subquery scalar children contribute     *)
(* their own free refs.                                               *)
(* ------------------------------------------------------------------ *)

let rec free_cols (o : op) : Col.Set.t =
  let expr_free acc e =
    Expr.fold_cols
      ~on_op:(fun acc q -> Col.Set.union acc (free_cols q))
      (fun s c -> Col.Set.add c s)
      acc e
  in
  let local = List.fold_left expr_free Col.Set.empty (local_exprs o) in
  let from_children =
    List.fold_left (fun acc c -> Col.Set.union acc (free_cols c)) Col.Set.empty
      (children o)
  in
  let produced_below =
    List.fold_left (fun acc c -> Col.Set.union acc (schema_set c)) Col.Set.empty
      (children o)
  in
  (* A SegmentHole's columns are bound by the enclosing SegmentApply's
     outer side, through [src]. *)
  let hole_srcs =
    match o with
    | SegmentHole { src; _ } -> Col.Set.of_list src
    | _ -> Col.Set.empty
  in
  Col.Set.union hole_srcs
    (Col.Set.diff (Col.Set.union local from_children) produced_below)
  |> fun s ->
  match o with
  | SegmentApply { outer; _ } ->
      (* inner's references to outer's columns are bound here *)
      Col.Set.diff s (schema_set outer)
  | _ -> s

(* [correlated_with inner left]: does [inner] reference columns produced
   by [left]?  The test of identities (1)/(2). *)
let correlated_with (inner : op) (left : op) =
  not (Col.Set.is_empty (Col.Set.inter (free_cols inner) (schema_set left)))

let uses_cols (o : op) (cols : Col.Set.t) =
  not (Col.Set.is_empty (Col.Set.inter (free_cols o) cols))

(* ------------------------------------------------------------------ *)
(* Renaming and cloning.                                              *)
(* ------------------------------------------------------------------ *)

let rec rename (m : Col.t Col.IdMap.t) (o : op) : op =
  let rc c = match Col.IdMap.find_opt c.Col.id m with Some c' -> c' | None -> c in
  let re e = Expr.rename ~map_op:rename m e in
  let ragg a =
    match agg_input_expr a.fn with
    | None -> { a with out = rc a.out }
    | Some e -> { fn = agg_with_input a.fn (re e); out = rc a.out }
  in
  match o with
  | TableScan t -> TableScan { t with cols = List.map rc t.cols }
  | ConstTable t -> ConstTable { t with cols = List.map rc t.cols }
  | CseScan c -> CseScan { c with cols = List.map rc c.cols }
  | SegmentHole h -> SegmentHole { cols = List.map rc h.cols; src = List.map rc h.src }
  | Select (p, i) -> Select (re p, rename m i)
  | Project (ps, i) ->
      Project (List.map (fun p -> { expr = re p.expr; out = rc p.out }) ps, rename m i)
  | Max1row i -> Max1row (rename m i)
  | GroupBy g ->
      GroupBy
        { keys = List.map rc g.keys; aggs = List.map ragg g.aggs; input = rename m g.input }
  | LocalGroupBy g ->
      LocalGroupBy
        { keys = List.map rc g.keys; aggs = List.map ragg g.aggs; input = rename m g.input }
  | ScalarAgg g -> ScalarAgg { aggs = List.map ragg g.aggs; input = rename m g.input }
  | Rownum r -> Rownum { out = rc r.out; input = rename m r.input }
  | Join j -> Join { j with pred = re j.pred; left = rename m j.left; right = rename m j.right }
  | Apply a ->
      Apply { a with pred = re a.pred; left = rename m a.left; right = rename m a.right }
  | SegmentApply s ->
      SegmentApply
        { seg_cols = List.map rc s.seg_cols;
          outer = rename m s.outer;
          inner = rename m s.inner
        }
  | UnionAll (l, r) -> UnionAll (rename m l, rename m r)
  | Except (l, r) -> Except (rename m l, rename m r)

(* Deep copy with fresh ids for every column *produced inside* the
   subtree; free (outer) references are left untouched.  Returns the
   clone plus the mapping old-output-col -> new-output-col, which the
   caller uses to fix up references above.  Required by the identities
   that duplicate a subexpression — (5), (6), (7) — and by SegmentApply
   introduction. *)
let clone_fresh (o : op) : op * Col.t Col.IdMap.t =
  (* collect every column produced by any node of the subtree *)
  let rec produced acc o =
    let acc =
      match o with
      | TableScan { cols; _ } | ConstTable { cols; _ } | CseScan { cols; _ } ->
          cols @ acc
      | SegmentHole { cols; _ } -> cols @ acc
      | Project (ps, _) -> List.map (fun p -> p.out) ps @ acc
      | GroupBy { aggs; _ } | LocalGroupBy { aggs; _ } | ScalarAgg { aggs; _ } ->
          List.map (fun (a : agg) -> a.out) aggs @ acc
      | Rownum { out; _ } -> out :: acc
      | _ -> acc
    in
    List.fold_left produced acc (children o)
  in
  let cols = produced [] o in
  let m =
    List.fold_left
      (fun m c -> Col.IdMap.add c.Col.id (Col.clone c) m)
      Col.IdMap.empty cols
  in
  (rename m o, m)

(* ------------------------------------------------------------------ *)
(* Structural isomorphism up to column renaming.                      *)
(*                                                                    *)
(* Used by SegmentApply introduction (Section 3.4.1) to detect the    *)
(* "two instances of an expression connected by a join" pattern.      *)
(* Returns the column bijection (a's output col -> b's output col) on *)
(* success.                                                           *)
(* ------------------------------------------------------------------ *)

exception Not_iso

let iso (a : op) (b : op) : Col.t Col.IdMap.t option =
  let map = ref Col.IdMap.empty in
  let bind ca cb =
    match Col.IdMap.find_opt ca.Col.id !map with
    | Some c' -> if not (Col.equal c' cb) then raise Not_iso
    | None ->
        if ca.Col.ty <> cb.Col.ty then raise Not_iso;
        map := Col.IdMap.add ca.Col.id cb !map
  in
  let cref ca cb =
    (* either both map through the bijection, or they are the same outer
       reference *)
    match Col.IdMap.find_opt ca.Col.id !map with
    | Some c' -> if not (Col.equal c' cb) then raise Not_iso
    | None -> if not (Col.equal ca cb) then raise Not_iso
  in
  let rec eexpr ea eb =
    match ea, eb with
    | ColRef ca, ColRef cb -> cref ca cb
    | Const va, Const vb -> if not (Value.equal va vb) then raise Not_iso
    | Arith (oa, a1, a2), Arith (ob, b1, b2) ->
        if oa <> ob then raise Not_iso;
        eexpr a1 b1;
        eexpr a2 b2
    | Cmp (oa, a1, a2), Cmp (ob, b1, b2) ->
        if oa <> ob then raise Not_iso;
        eexpr a1 b1;
        eexpr a2 b2
    | And (a1, a2), And (b1, b2) | Or (a1, a2), Or (b1, b2) ->
        eexpr a1 b1;
        eexpr a2 b2
    | Not a1, Not b1 | IsNull a1, IsNull b1 -> eexpr a1 b1
    | Like (a1, p1), Like (b1, p2) ->
        if p1 <> p2 then raise Not_iso;
        eexpr a1 b1
    | Case (ba, ea'), Case (bb, eb') ->
        if List.length ba <> List.length bb then raise Not_iso;
        List.iter2
          (fun (c1, v1) (c2, v2) ->
            eexpr c1 c2;
            eexpr v1 v2)
          ba bb;
        (match ea', eb' with
        | Some x, Some y -> eexpr x y
        | None, None -> ()
        | _ -> raise Not_iso)
    | _ -> raise Not_iso
  in
  let eagg aa ab =
    (match aa.fn, ab.fn with
    | CountStar, CountStar -> ()
    | Count x, Count y | Sum x, Sum y | Min x, Min y | Max x, Max y | Avg x, Avg y ->
        eexpr x y
    | _ -> raise Not_iso);
    bind aa.out ab.out
  in
  let rec egroup (ka, aa, ia) (kb, ab, ib) =
    if List.length ka <> List.length kb then raise Not_iso;
    if List.length aa <> List.length ab then raise Not_iso;
    eop ia ib;
    List.iter2 cref ka kb;
    List.iter2 eagg aa ab
  and eop a b =
    match a, b with
    | TableScan ta, TableScan tb ->
        if ta.table <> tb.table then raise Not_iso;
        List.iter2 bind ta.cols tb.cols
    | ConstTable ta, ConstTable tb ->
        if List.length ta.rows <> List.length tb.rows then raise Not_iso;
        List.iter2
          (fun ra rb -> Array.iter2 (fun x y -> if not (Value.equal x y) then raise Not_iso) ra rb)
          ta.rows tb.rows;
        List.iter2 bind ta.cols tb.cols
    | Select (pa, ia), Select (pb, ib) ->
        eop ia ib;
        eexpr pa pb
    | Project (psa, ia), Project (psb, ib) ->
        if List.length psa <> List.length psb then raise Not_iso;
        eop ia ib;
        List.iter2
          (fun p q ->
            eexpr p.expr q.expr;
            bind p.out q.out)
          psa psb
    | Join ja, Join jb ->
        if ja.kind <> jb.kind then raise Not_iso;
        eop ja.left jb.left;
        eop ja.right jb.right;
        eexpr ja.pred jb.pred
    | Apply aa, Apply ab ->
        if aa.kind <> ab.kind then raise Not_iso;
        eop aa.left ab.left;
        eop aa.right ab.right;
        eexpr aa.pred ab.pred
    | GroupBy ga, GroupBy gb ->
        egroup (ga.keys, ga.aggs, ga.input) (gb.keys, gb.aggs, gb.input)
    | LocalGroupBy ga, LocalGroupBy gb ->
        egroup (ga.keys, ga.aggs, ga.input) (gb.keys, gb.aggs, gb.input)
    | ScalarAgg ga, ScalarAgg gb ->
        if List.length ga.aggs <> List.length gb.aggs then raise Not_iso;
        eop ga.input gb.input;
        List.iter2 eagg ga.aggs gb.aggs
    | UnionAll (l1, r1), UnionAll (l2, r2) | Except (l1, r1), Except (l2, r2) ->
        eop l1 l2;
        eop r1 r2
    | Max1row ia, Max1row ib -> eop ia ib
    | CseScan ca, CseScan cb ->
        if ca.id <> cb.id then raise Not_iso;
        List.iter2 bind ca.cols cb.cols
    | Rownum ra, Rownum rb ->
        eop ra.input rb.input;
        bind ra.out rb.out
    | _ -> raise Not_iso
  in
  try
    eop a b;
    Some !map
  with Not_iso | Invalid_argument _ -> None

(* Generic bottom-up rewrite.  A node whose children all come back
   physically unchanged is passed to [f] as is, not rebuilt, so a rewrite
   that changes nothing returns the input tree itself. *)
let rec map_bottom_up (f : op -> op) (o : op) : op =
  let cs = children o in
  let cs' = List.map (map_bottom_up f) cs in
  f (if List.for_all2 ( == ) cs cs' then o else with_children o cs')

let rec exists_op (pred : op -> bool) (o : op) : bool =
  pred o || List.exists (exists_op pred) (children o)

let count_ops (o : op) : int =
  let rec go acc o = List.fold_left go (acc + 1) (children o) in
  go 0 o

let tables (o : op) : string list =
  let rec go acc o =
    let acc = match o with TableScan { table; _ } -> table :: acc | _ -> acc in
    List.fold_left go acc (children o)
  in
  List.sort_uniq compare (go [] o)

(* ------------------------------------------------------------------ *)
(* Index-lookup access path.                                          *)
(* ------------------------------------------------------------------ *)

(* The first conjunct that equates an indexed scan column with an
   admissible key, the column on either side.  None in a predicate with
   a subquery: a key correlated to the scan through one cannot be
   evaluated without the scan row, and a residual one may raise
   (Max1row) on a row the probe would skip. *)
let index_eq ~(cols : Col.t list) ~(indexed : Col.t -> 'ix option) ?key_ok (pred : expr) :
    ('ix * expr * expr) option =
  let key_ok =
    match key_ok with
    | Some f -> f
    | None ->
        let scan = Col.Set.of_list cols in
        fun e -> Col.Set.is_empty (Col.Set.inter (Expr.cols e) scan)
  in
  let side col key =
    match col with
    | ColRef c when List.exists (Col.equal c) cols && key_ok key ->
        Option.map (fun ix -> (ix, key)) (indexed c)
    | _ -> None
  in
  let conj = conjuncts pred in
  if Expr.has_subquery pred then None
  else
    List.find_map
      (function
        | Cmp (Eq, a, b) as used ->
            Option.map
              (fun (ix, key) -> (ix, key, conj_list (List.filter (fun x -> x != used) conj)))
              (match side a b with None -> side b a | found -> found)
        | _ -> None)
      conj
