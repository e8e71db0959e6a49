(* Catalog environment and predicate analyses.

   [env]             base-table keys and nullability, as the catalog
                     declares them.
   [equiv_classes]   columns pairwise equal on every output row.
   [const_bindings]  columns bound to one non-NULL constant.
   [pred_verdict]    is a filter predicate a contradiction or a
                     tautology?

   Keys, non-nullability, at-most-one-row and FD closure live in [Fd],
   the one engine for those facts.  All analyses here are sound
   under-approximations. *)

open Algebra

(* base-table keys and nullability are supplied by the environment
   (catalog); trees carry them in the TableScan's column list via these
   callbacks.  [table_nullable] lists the columns that MAY contain NULL
   — the default (none) matches this engine's TPC-H data, where every
   base column is NOT NULL. *)
type env = {
  table_key : string -> string list;
  table_nullable : string -> string list;
}

let default_env = { table_key = (fun _ -> []); table_nullable = (fun _ -> []) }

(* ------------------------------------------------------------------ *)

(* Column equivalence classes: sets of columns that are pairwise equal
   on every output row, in the GROUPING sense (two NULLs count as
   equal).  Sourced from equality conjuncts of inner join/apply/select
   predicates and from pass-through projections; pairs established
   below an operator keep holding above it (columns that leave the
   schema make the claim vacuous there).  The grouping notion matches
   [Fd.covers_key], whose uniqueness is also up to NULL-equality, so
   the classes can soundly extend a grouping set for key-coverage
   tests. *)

let pred_eq_pairs (p : expr) : (Col.t * Col.t) list =
  List.filter_map
    (function Cmp (Eq, ColRef a, ColRef b) -> Some (a, b) | _ -> None)
    (conjuncts p)

let rec equal_pairs (o : op) : (Col.t * Col.t) list =
  match o with
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ -> []
  | Select (p, i) -> pred_eq_pairs p @ equal_pairs i
  | Max1row i | Rownum { input = i; _ } -> equal_pairs i
  | Project (projs, i) ->
      (* a pass-through output equals its source column *)
      let links =
        List.filter_map
          (fun pr -> match pr.expr with ColRef c -> Some (c, pr.out) | _ -> None)
          projs
      in
      links @ equal_pairs i
  | Join { kind; pred; left; right } | Apply { kind; pred; left; right } -> (
      match kind with
      | Semi | Anti -> equal_pairs left
      | Inner -> pred_eq_pairs pred @ equal_pairs left @ equal_pairs right
      | LeftOuter ->
          (* the predicate only holds on matched rows; pairs internal to
             the padded side survive as NULL ≡ NULL *)
          equal_pairs left @ equal_pairs right)
  | SegmentApply { inner; _ } -> equal_pairs inner
  | GroupBy { input; _ } | LocalGroupBy { input; _ } -> equal_pairs input
  | ScalarAgg _ -> []
  | UnionAll _ -> []
  | Except (l, _) -> equal_pairs l

let equiv_classes (o : op) : Col.Set.t list =
  let merge classes (a, b) =
    let touching, rest =
      List.partition (fun s -> Col.Set.mem a s || Col.Set.mem b s) classes
    in
    let merged =
      List.fold_left Col.Set.union (Col.Set.of_list [ a; b ]) touching
    in
    merged :: rest
  in
  List.filter
    (fun s -> Col.Set.cardinal s >= 2)
    (List.fold_left merge [] (equal_pairs o))

(* Extend [s] with every column equivalent to one of its members (the
   classes are disjoint, so one pass suffices). *)
let equate (classes : Col.Set.t list) (s : Col.Set.t) : Col.Set.t =
  List.fold_left
    (fun acc cls -> if Col.Set.disjoint cls acc then acc else Col.Set.union cls acc)
    s classes

(* ------------------------------------------------------------------ *)

(* Columns bound to a single non-NULL constant on every output row. *)

let pred_const_bindings (p : expr) : Value.t Col.IdMap.t =
  List.fold_left
    (fun acc c ->
      match c with
      | Cmp (Eq, ColRef col, Const v) | Cmp (Eq, Const v, ColRef col)
        when not (Value.is_null v) ->
          Col.IdMap.add col.Col.id v acc
      | _ -> acc)
    Col.IdMap.empty (conjuncts p)

let rec const_bindings (o : op) : Value.t Col.IdMap.t =
  let union = Col.IdMap.union (fun _ v _ -> Some v) in
  match o with
  | TableScan _ | SegmentHole _ | CseScan _ -> Col.IdMap.empty
  | ConstTable { cols; rows } -> (
      match rows with
      | [] -> Col.IdMap.empty
      | first :: rest ->
          List.fold_left
            (fun acc (i, (c : Col.t)) ->
              if
                (not (Value.is_null first.(i)))
                && List.for_all (fun r -> Value.equal r.(i) first.(i)) rest
              then Col.IdMap.add c.id first.(i) acc
              else acc)
            Col.IdMap.empty
            (List.mapi (fun i c -> (i, c)) cols))
  | Select (p, i) -> union (pred_const_bindings p) (const_bindings i)
  | Max1row i | Rownum { input = i; _ } -> const_bindings i
  | Project (projs, i) ->
      let below = const_bindings i in
      List.fold_left
        (fun acc pr ->
          match pr.expr with
          | Const v when not (Value.is_null v) -> Col.IdMap.add pr.out.Col.id v acc
          | ColRef c -> (
              match Col.IdMap.find_opt c.Col.id below with
              | Some v -> Col.IdMap.add pr.out.Col.id v acc
              | None -> acc)
          | _ -> acc)
        Col.IdMap.empty projs
  | Join { kind = Inner; pred; left; right } | Apply { kind = Inner; pred; left; right }
    ->
      union (pred_const_bindings pred)
        (union (const_bindings left) (const_bindings right))
  | Join { kind = LeftOuter | Semi | Anti; left; _ }
  | Apply { kind = LeftOuter | Semi | Anti; left; _ } ->
      (* the padded right side breaks its bindings; the predicate only
         holds on matched rows *)
      const_bindings left
  | GroupBy { keys; input; _ } | LocalGroupBy { keys; input; _ } ->
      Col.IdMap.filter
        (fun id _ -> List.exists (fun (k : Col.t) -> k.id = id) keys)
        (const_bindings input)
  | ScalarAgg _ | UnionAll _ | SegmentApply _ -> Col.IdMap.empty
  | Except (l, _) -> const_bindings l

(* ------------------------------------------------------------------ *)

(* Conjunct-level predicate analysis: is a filter predicate provably
   never satisfied (false or NULL on every row) or provably true on
   every row?  Sound in both directions; [Unknown] is the default. *)

type verdict = Contradiction | Tautology | Unknown

let arith_op = function
  | Add -> `Add
  | Sub -> `Sub
  | Mul -> `Mul
  | Div -> `Div
  | Mod -> `Mod

let cmp_holds op n =
  match op with
  | Eq -> n = 0
  | Ne -> n <> 0
  | Lt -> n < 0
  | Le -> n <= 0
  | Gt -> n > 0
  | Ge -> n >= 0

(* Constant folding with three-valued logic; [None] = not statically
   known.  [consts] supplies column values proven by the input. *)
let rec eval_const (consts : Value.t Col.IdMap.t) (e : expr) : Value.t option =
  let ev = eval_const consts in
  match e with
  | Const v -> Some v
  | ColRef c -> Col.IdMap.find_opt c.Col.id consts
  | Arith (op, a, b) -> (
      match (ev a, ev b) with
      | Some va, Some vb -> Some (Value.arith (arith_op op) va vb)
      | _ -> None)
  | Cmp (op, a, b) -> (
      match (ev a, ev b) with
      | Some va, Some vb -> (
          match Value.cmp_sql va vb with
          | None -> Some Value.Null
          | Some n -> Some (Value.Bool (cmp_holds op n)))
      | _ -> None)
  | And (a, b) -> (
      match (ev a, ev b) with
      | Some (Value.Bool false), _ | _, Some (Value.Bool false) ->
          Some (Value.Bool false)
      | Some (Value.Bool true), x | x, Some (Value.Bool true) -> x
      | Some Value.Null, Some Value.Null -> Some Value.Null
      | _ -> None)
  | Or (a, b) -> (
      match (ev a, ev b) with
      | Some (Value.Bool true), _ | _, Some (Value.Bool true) -> Some (Value.Bool true)
      | Some (Value.Bool false), x | x, Some (Value.Bool false) -> x
      | Some Value.Null, Some Value.Null -> Some Value.Null
      | _ -> None)
  | Not a -> (
      match ev a with
      | Some (Value.Bool b) -> Some (Value.Bool (not b))
      | Some Value.Null -> Some Value.Null
      | _ -> None)
  | IsNull a -> (
      match ev a with Some v -> Some (Value.Bool (Value.is_null v)) | None -> None)
  | Like _ | Case _ | Subquery _ | Exists _ | InSub _ | QuantCmp _ -> None

(* Numeric interval bounds implied by the conjunct set: detects e.g.
   [x > 5 AND x < 3].  Only single-column-vs-constant comparisons
   contribute; a violated bound pair makes the whole conjunction
   unsatisfiable over the reals (hence over the ints too). *)
let bounds_unsat (conjs : expr list) : bool =
  let bounds : (int, (float * bool) option ref * (float * bool) option ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let get id =
    match Hashtbl.find_opt bounds id with
    | Some b -> b
    | None ->
        let b = (ref None, ref None) in
        Hashtbl.add bounds id b;
        b
  in
  let tighten_lo r v strict =
    match !r with
    | Some (v0, s0) when v0 > v || (v0 = v && s0) -> ()
    | _ -> r := Some (v, strict)
  in
  let tighten_hi r v strict =
    match !r with
    | Some (v0, s0) when v0 < v || (v0 = v && s0) -> ()
    | _ -> r := Some (v, strict)
  in
  let record (c : Col.t) op f =
    let lo, hi = get c.Col.id in
    match op with
    | Eq ->
        tighten_lo lo f false;
        tighten_hi hi f false
    | Lt -> tighten_hi hi f true
    | Le -> tighten_hi hi f false
    | Gt -> tighten_lo lo f true
    | Ge -> tighten_lo lo f false
    | Ne -> ()
  in
  let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | (Eq | Ne) as o -> o in
  List.iter
    (fun c ->
      match c with
      | Cmp (op, ColRef col, Const v) -> (
          match Value.to_float v with Some f -> record col op f | None -> ())
      | Cmp (op, Const v, ColRef col) -> (
          match Value.to_float v with Some f -> record col (flip op) f | None -> ())
      | _ -> ())
    conjs;
  Hashtbl.fold
    (fun _ (lo, hi) acc ->
      acc
      ||
      match (!lo, !hi) with
      | Some (l, ls), Some (h, hs) -> l > h || (l = h && (ls || hs))
      | _ -> false)
    bounds false

let conjunct_verdict ~nonnull ~consts (c : expr) : verdict =
  match eval_const consts c with
  | Some (Value.Bool true) -> Tautology
  | Some (Value.Bool false) | Some Value.Null ->
      (* as a filter, a NULL conjunct never passes *)
      Contradiction
  | Some _ -> Unknown
  | None -> (
      match c with
      | IsNull (ColRef col) when Col.Set.mem col nonnull -> Contradiction
      | Not (IsNull (ColRef col)) when Col.Set.mem col nonnull -> Tautology
      | Cmp ((Eq | Le | Ge), ColRef a, ColRef b)
        when Col.equal a b && Col.Set.mem a nonnull ->
          Tautology
      | Cmp ((Ne | Lt | Gt), ColRef a, ColRef b) when Col.equal a b ->
          (* x <> x is false or NULL on every row *)
          Contradiction
      | _ -> Unknown)

let pred_verdict ?(nonnull = Col.Set.empty) ?(consts = Col.IdMap.empty) (p : expr) :
    verdict =
  let cs = conjuncts p in
  let vs = List.map (conjunct_verdict ~nonnull ~consts) cs in
  if List.mem Contradiction vs || bounds_unsat cs then Contradiction
  else if List.for_all (fun v -> v = Tautology) vs then Tautology
  else Unknown
