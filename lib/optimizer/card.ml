(* Cardinality estimation over logical trees.

   Column provenance: a map from column id to (table, column) built by
   walking the tree once (through scans, pass-through projections and
   grouping keys).  Distinct counts come from Stats; selectivities use
   the classic System-R defaults. *)

open Relalg
open Relalg.Algebra

type env = {
  stats : Stats.t;
  origins : (string * string) Col.IdTbl.t;
  ndvs : float option Col.IdTbl.t;  (** [ndv_of]'s answers for this plan *)
  mutable hole_card : float;  (** estimated rows of the current segment *)
  props : Props.env;  (** base-table keys/nullability for the property engine *)
  known : (op * Fd.t) list;
      (** properties already derived under [props] for some nodes, found
          by physical identity; [fold] analyses only the other nodes *)
}

(* The provenance one node adds, given its children's *)
let note_origins h (o : op) =
  match o with
  | TableScan { table; cols } ->
      List.iter (fun (c : Col.t) -> Col.IdTbl.replace h c.id (table, c.name)) cols
  | Project (ps, _) ->
      List.iter
        (fun p ->
          match p.expr with
          | ColRef c -> (
              match Col.IdTbl.find_opt h c.Col.id with
              | Some o -> Col.IdTbl.replace h p.out.Col.id o
              | None -> ())
          | _ -> ())
        ps
  | SegmentHole { cols; src } ->
      List.iter2
        (fun (c : Col.t) (s : Col.t) ->
          match Col.IdTbl.find_opt h s.id with
          | Some o -> Col.IdTbl.replace h c.id o
          | None -> ())
        cols src
  | _ -> ()

let build_origins (o : op) : (string * string) Col.IdTbl.t =
  let h = Col.IdTbl.create 64 in
  let rec walk o =
    note_origins h o;
    List.iter walk (Op.children o)
  in
  (* two passes so that SegmentHole src columns defined by a later
     sibling still resolve *)
  walk o;
  walk o;
  h

let make_env stats (o : op) =
  { stats;
    origins = build_origins o;
    ndvs = Col.IdTbl.create 16;
    hole_card = 1000.;
    props = Catalog.props_env (Stats.catalog stats);
    known = [];
  }

let ndv_of env (c : Col.t) : float option =
  match Col.IdTbl.find_opt env.ndvs c.id with
  | Some n -> n
  | None ->
      let n =
        match Col.IdTbl.find_opt env.origins c.id with
        | Some (table, col) ->
            let n = Stats.ndv env.stats table col in
            if n > 0 then Some (float_of_int n) else None
        | None -> None
      in
      Col.IdTbl.replace env.ndvs c.id n;
      n

(* selectivity of a predicate used as a filter *)
let rec selectivity env (p : expr) : float =
  match p with
  | Const (Value.Bool true) -> 1.0
  | Const (Value.Bool false) -> 0.0
  | And (a, b) -> selectivity env a *. selectivity env b
  | Or (a, b) ->
      let sa = selectivity env a and sb = selectivity env b in
      sa +. sb -. (sa *. sb)
  | Not a -> 1.0 -. selectivity env a
  | Cmp (Eq, ColRef a, ColRef b) -> (
      match ndv_of env a, ndv_of env b with
      | Some na, Some nb -> 1.0 /. Float.max na nb
      | Some n, None | None, Some n -> 1.0 /. n
      | None, None -> 0.1)
  | Cmp (Eq, ColRef a, _) | Cmp (Eq, _, ColRef a) -> (
      match ndv_of env a with Some n -> 1.0 /. n | None -> 0.1)
  | Cmp (Eq, _, _) -> 0.1
  | Cmp (Ne, _, _) -> 0.9
  | Cmp (_, _, _) -> 1.0 /. 3.0
  | Like _ -> 0.15
  | IsNull _ -> 0.05
  | Case _ -> 0.5
  | _ -> 0.5

let group_card env (keys : Col.t list) (input_card : float) : float =
  if keys = [] then 1.0
  else
    let prod =
      List.fold_left
        (fun acc c ->
          match ndv_of env c with Some n -> acc *. n | None -> acc *. 100.)
        1.0 keys
    in
    Float.max 1.0 (Float.min prod (Float.max 1.0 (input_card /. 1.5)))

(* Interval clamping: the symbolic property engine proves a per-node
   cardinality interval [lo, hi]; the System-R arithmetic below is only
   an estimate, so whenever the two disagree the proof wins.  A Max1row
   caps its subtree at one row, a ScalarAgg is pinned to exactly one, a
   key-equality point select cannot exceed one — whatever the
   selectivity defaults would otherwise claim.  [fd] is the node's
   analysis, derived in the same walk as the estimate. *)
let clamp (fd : Fd.t) (est : float) : float =
  let { Fd.lo; hi } = fd.Fd.card in
  let est =
    match hi with Some h when est > float_of_int h -> float_of_int h | _ -> est
  in
  Float.max (float_of_int lo) est

(* The cardinality formula of one node, given its children's clamped
   estimates in [Op.children] order. *)
let node_card env (o : op) (kids : float list) : float =
  match o, kids with
  | TableScan { table; _ }, _ -> float_of_int (Stats.row_count env.stats table)
  | ConstTable { rows; _ }, _ -> float_of_int (List.length rows)
  | CseScan { rows_hint; _ }, _ -> float_of_int rows_hint
  | SegmentHole _, _ -> env.hole_card
  | Select (p, _), [ ci ] -> ci *. selectivity env p
  | (Project _ | Rownum _ | Max1row _), [ ci ] -> ci
  | (Join { kind; pred; _ } | Apply { kind; pred; _ }), [ cl; cr ] -> (
      let sel = selectivity env pred in
      match kind with
      | Inner -> Float.max 1.0 (cl *. cr *. sel)
      | LeftOuter -> Float.max cl (cl *. cr *. sel)
      | Semi -> Float.max 1.0 (cl *. Float.min 1.0 (cr *. sel))
      | Anti -> Float.max 1.0 (cl *. Float.max 0.1 (1.0 -. (cr *. sel))))
  | SegmentApply { seg_cols; _ }, [ co; ci ] -> group_card env seg_cols co *. ci
  | ( GroupBy
        { keys;
          input = GroupBy { keys = ikeys; _ } | LocalGroupBy { keys = ikeys; _ };
          _
        },
      [ ci ] )
    when Col.Set.equal (Col.Set.of_list keys) (Col.Set.of_list ikeys) ->
      (* the input already has one row per key combination, so grouping
         again is the identity on cardinality; without this the generic
         damping below would credit the redundant stack with fewer rows
         than the single equivalent GroupBy *)
      ci
  | (GroupBy { keys; _ } | LocalGroupBy { keys; _ }), [ ci ] -> group_card env keys ci
  | ScalarAgg _, _ -> 1.0
  | UnionAll _, [ cl; cr ] -> cl +. cr
  | Except _, [ cl; _ ] -> cl
  | _ -> invalid_arg "Card.node_card: arity mismatch"

(* One node of [fold]: the node is analysed by the property engine (or
   its properties taken from [env.known]), estimated and clamped, and
   [f o card fd kids] derives a per-node value (the cost model's) from
   the node's estimate, its properties and its children's (estimate,
   properties, value) triples, in [Op.children] order. *)
let step env (f : op -> float -> Fd.t -> (float * Fd.t * 'a) list -> 'a) (o : op)
    (kids : (float * Fd.t * 'a) list) : float * Fd.t * 'a =
  let fd =
    match List.assq_opt o env.known with
    | Some fd -> fd
    | None -> Fd.step ~env:env.props o (List.map (fun (_, fd, _) -> fd) kids)
  in
  let card = clamp fd (node_card env o (List.map (fun (c, _, _) -> c) kids)) in
  (card, fd, f o card fd kids)

(* One bottom-up walk: [step] at every node, each node once.  A
   SegmentApply's inner is walked with [hole_card] set to the expected
   rows per segment. *)
let fold env (f : op -> float -> Fd.t -> (float * Fd.t * 'a) list -> 'a) (o : op) :
    float * Fd.t * 'a =
  let rec walk o =
    let kids =
      match o with
      | SegmentApply { seg_cols; outer; inner } ->
          let ((co, _, _) as ko) = walk outer in
          let nseg = group_card env seg_cols co in
          let saved = env.hole_card in
          env.hole_card <- Float.max 1.0 (co /. nseg);
          let ki = walk inner in
          env.hole_card <- saved;
          [ ko; ki ]
      | o -> List.map walk (Op.children o)
    in
    step env f o kids
  in
  walk o

let estimate env (o : op) : float =
  let card, _, () = fold env (fun _ _ _ _ -> ()) o in
  card
