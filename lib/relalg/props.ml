(* Catalog environment and the predicate verdict.

   [env]             base-table keys and nullability, as the catalog
                     declares them.
   [pred_verdict]    is a filter predicate a contradiction or a
                     tautology?

   Keys, non-nullability, at-most-one-row, FD closure and the row-local
   equalities and constants live in [Fd], the one engine for those
   facts.  The verdict is a sound under-approximation. *)

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

(* Conjunct-level predicate analysis: is a filter predicate provably
   never satisfied (false or NULL on every row) or provably true on
   every row?  Sound in both directions; [Unknown] is the default. *)

type verdict = Contradiction | Tautology | Unknown

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
