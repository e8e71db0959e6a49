(* Symbolic plan-property engine: functional dependencies with
   transitive closure, derived candidate keys, and cardinality
   intervals, inferred bottom-up over an operator tree.

   Everything here is a sound under-approximation in the GROUPING sense
   of equality (NULL ≡ NULL, Int 5 ≡ Float 5.0) — the same notion the
   executor's hash tables use for grouping and duplicate elimination,
   so every inferred property can be asserted against actual result
   bags (see [check_rows]).

   The three property families:

   - [fds]      functional dependencies det → dep that hold on every
                pair of output rows.  An empty determinant encodes a
                column constant across the output.  Dependencies may
                mention "ghost" columns no longer in the schema (a
                Project keeps its input's FDs): each output row still
                corresponds to one input row, so chains through hidden
                columns remain valid for key derivation.
   - [uniques]  strict uniqueness facts: no two output rows agree on
                all columns of the set.  The empty set means the
                operator yields at most one row.  A set K of output
                columns is a *derived key* iff the FD closure of K
                covers some unique set — strictly stronger than
                requiring K to be a superset of a key.
   - [card]     a cardinality interval [lo, hi] on the number of
                output rows ([hi = None] = unbounded).  [lo > hi] is a
                contradiction: the plan cannot execute successfully
                (e.g. Max1row over a provably-multi-row input).

   Inside the right side of Apply/SegmentApply, equalities against
   correlation parameters count as constants: the properties are then
   per-invocation.  The Apply cases re-export only invocation-safe
   facts (the key product, nonnullability), never the raw FDs. *)

open Algebra

type interval = { lo : int; hi : int option }

type fd = { det : Col.Set.t; dep : Col.Set.t; key : int }

(* An FD with its [key]: a hash of the column ids, so equal FDs share
   a key and [dedup_fds] compares sets only when keys match. *)
let fd det dep =
  let ids s seed = Col.Set.fold (fun (c : Col.t) h -> (h * 31) + c.id) s seed in
  { det; dep; key = ids dep (ids det 17 * 65599) }

type t = {
  fds : fd list;
  uniques : Col.Set.t list;
  nonnull : Col.Set.t;
  card : interval;
  cols : Col.Set.t;
}

(* --- interval arithmetic (saturating; [None] = unbounded) ----------- *)

let top = { lo = 0; hi = None }

let mul_hi a b =
  match (a, b) with
  | Some 0, _ | _, Some 0 -> Some 0
  | Some x, Some y when x < max_int / y -> Some (x * y)
  | _ -> None

let add_hi a b =
  match (a, b) with
  | Some x, Some y when x < max_int - y -> Some (x + y)
  | _ -> None

let min_hi a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let mul_lo a b = if a > 0 && b > 0 && a < max_int / b then a * b else min a b

let hi_le (h : int option) n = match h with Some h -> h <= n | None -> false

let contradiction t = match t.card.hi with Some h -> t.card.lo > h | None -> false

let interval_to_string { lo; hi } =
  match hi with
  | Some h -> Printf.sprintf "[%d,%d]" lo h
  | None -> Printf.sprintf "[%d,*]" lo

(* --- rendering ------------------------------------------------------- *)

let cols_to_string (s : Col.Set.t) =
  "{"
  ^ String.concat "," (List.map (Format.asprintf "%a" Col.pp) (Col.Set.elements s))
  ^ "}"

let fd_to_string f =
  Printf.sprintf "%s->%s" (cols_to_string f.det) (cols_to_string f.dep)

(* --- closure and key derivation -------------------------------------- *)

(* Fixpoint of [seed] under [fds], recording which dependencies
   contributed (for rendering proof chains). *)
let closure_trace (fds : fd list) (seed : Col.Set.t) : Col.Set.t * fd list =
  let used = ref [] in
  let rec fix s =
    let s' =
      List.fold_left
        (fun acc f ->
          if Col.Set.subset f.det acc && not (Col.Set.subset f.dep acc) then begin
            used := f :: !used;
            Col.Set.union acc f.dep
          end
          else acc)
        s fds
    in
    if Col.Set.equal s s' then s else fix s'
  in
  let c = fix seed in
  (c, List.rev !used)

(* The same fixpoint without the trace, for the hot callers (every
   key test of every analysed node): passes over [t.fds] until one adds
   nothing, allocating only the growing set. *)
let closure t (seed : Col.Set.t) : Col.Set.t =
  let rec pass acc grew = function
    | [] -> if grew then pass acc false t.fds else acc
    | f :: rest ->
        if Col.Set.subset f.det acc && not (Col.Set.subset f.dep acc) then
          pass (Col.Set.union acc f.dep) true rest
        else pass acc grew rest
  in
  pass seed false t.fds

(* Does the closure of [cols] cover a uniqueness fact?  The closure
   only grows, so the test runs on [cols] and after each pass that
   added columns, and stops at the first cover. *)
let covers_key t (cols : Col.Set.t) =
  match t.uniques with
  | [] -> false
  | us ->
      let covered c = List.exists (fun u -> Col.Set.subset u c) us in
      let rec pass acc grew = function
        | [] -> grew && (covered acc || pass acc false t.fds)
        | f :: rest ->
            if Col.Set.subset f.det acc && not (Col.Set.subset f.dep acc) then
              pass (Col.Set.union acc f.dep) true rest
            else pass acc grew rest
      in
      covered cols || pass cols false t.fds

(* The unique set covered by [cols] plus the FD chain proving it. *)
let cover_chain t (cols : Col.Set.t) : (Col.Set.t * fd list) option =
  let c, used = closure_trace t.fds cols in
  match List.find_opt (fun u -> Col.Set.subset u c) t.uniques with
  | None -> None
  | Some u -> Some (u, used)

let max_one t = hi_le t.card.hi 1 || covers_key t Col.Set.empty

(* Greedily minimize a set that covers a key: drop members whose removal
   keeps coverage. *)
let minimize t (k : Col.Set.t) : Col.Set.t =
  List.fold_left
    (fun k c ->
      let k' = Col.Set.remove c k in
      if covers_key t k' then k' else k)
    k (Col.Set.elements k)

(* Derived candidate keys restricted to [schema], minimized for display;
   sorted smallest-first, deduplicated, capped. *)
let derived_keys t ~(schema : Col.t list) : Col.Set.t list =
  let sset = Col.set_of_list schema in
  let candidates =
    List.filter (fun u -> Col.Set.subset u sset) t.uniques
    @ (if covers_key t sset then [ sset ] else [])
  in
  let minimized = List.map (minimize t) candidates in
  let sorted =
    List.sort_uniq
      (fun a b ->
        let c = compare (Col.Set.cardinal a) (Col.Set.cardinal b) in
        if c <> 0 then c else Col.Set.compare a b)
      minimized
  in
  (* drop supersets of an earlier (smaller) key *)
  let rec prune acc = function
    | [] -> List.rev acc
    | k :: rest ->
        if List.exists (fun k' -> Col.Set.subset k' k) acc then prune acc rest
        else prune (k :: acc) rest
  in
  let pruned = prune [] sorted in
  List.filteri (fun i _ -> i < 4) pruned

(* --- bookkeeping ------------------------------------------------------ *)

let fd_cap = 192
let unique_cap = 8

let fd_equal a b = Col.Set.equal a.det b.det && Col.Set.equal a.dep b.dep

(* Drop trivial FDs and repeats, keeping first occurrences in order. *)
let dedup_fds fds =
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest ->
        if
          Col.Set.subset f.dep f.det
          || List.exists (fun f' -> f.key = f'.key && fd_equal f f') acc
        then go acc rest
        else go (f :: acc) rest
  in
  let all = go [] fds in
  List.filteri (fun i _ -> i < fd_cap) all

let dedup_uniques = function
  | ([] | [ _ ]) as us -> us
  | us ->
      let sorted =
        List.sort_uniq
          (fun a b ->
            let c = compare (Col.Set.cardinal a) (Col.Set.cardinal b) in
            if c <> 0 then c else Col.Set.compare a b)
          us
      in
      (* keep only minimal facts: a superset of a unique set is redundant *)
      let rec prune acc = function
        | [] -> List.rev acc
        | u :: rest ->
            if List.exists (fun u' -> Col.Set.subset u' u) acc then prune acc rest
            else prune (u :: acc) rest
      in
      let pruned = prune [] sorted in
      List.filteri (fun i _ -> i < unique_cap) pruned

(* Canonicalize a node result: dedup, sync the ≤1-row fact between the
   interval and the uniqueness list. *)
let finish (t : t) : t =
  let t = { t with fds = dedup_fds t.fds; uniques = dedup_uniques t.uniques } in
  let t =
    if hi_le t.card.hi 1 && not (List.exists Col.Set.is_empty t.uniques) then
      { t with uniques = Col.Set.empty :: t.uniques }
    else t
  in
  if covers_key t Col.Set.empty then
    { t with card = { t.card with hi = min_hi t.card.hi (Some 1) } }
  else t

(* --- per-predicate facts ---------------------------------------------- *)

(* The columns of [inside] that an equality [l = r] pins to a value
   constant over rows: a column reference on one side whose other side
   is subquery-free and reads no column of [bound].  Both orientations
   are tried — an or-pattern would bind only the first alternative that
   matches, so [outer = key] would never pin [key]. *)
let eq_pins ~(inside : Col.Set.t) ~(bound : Col.Set.t) (l : expr) (r : expr) :
    Col.t list =
  List.filter_map
    (fun (side, other) ->
      match side with
      | ColRef a
        when Col.Set.mem a inside
             && (not (Expr.has_subquery other))
             && Col.Set.disjoint (Expr.cols other) bound ->
          Some a
      | _ -> None)
    [ (l, r); (r, l) ]

(* FDs contributed by an equality conjunct evaluated over rows with
   schema [sch]: col = col gives a mutual dependency, col = expr whose
   columns all come from outside [sch] (a literal or a correlation
   parameter) pins the column to an (invocation-)constant. *)
let pred_fds (sch : Col.Set.t) (conjs : expr list) : fd list =
  List.concat_map
    (fun c ->
      match c with
      | Cmp (Eq, ColRef a, ColRef b) when Col.Set.mem a sch && Col.Set.mem b sch ->
          [ fd (Col.Set.singleton a) (Col.Set.singleton b);
            fd (Col.Set.singleton b) (Col.Set.singleton a)
          ]
      | Cmp (Eq, l, r) ->
          List.map
            (fun a -> fd Col.Set.empty (Col.Set.singleton a))
            (eq_pins ~inside:sch ~bound:sch l r)
      | _ -> [])
    conjs

(* Right-side columns pinned by the join predicate: equated to a
   left-side column or to a constant.  If these cover a key of the
   right input, each left row matches at most one right row. *)
let pinned_right (lset : Col.Set.t) (rset : Col.Set.t) (conjs : expr list) :
    Col.Set.t =
  List.fold_left
    (fun acc c ->
      match c with
      | Cmp (Eq, ColRef a, ColRef b) when Col.Set.mem a rset && Col.Set.mem b lset ->
          Col.Set.add a acc
      | Cmp (Eq, ColRef b, ColRef a) when Col.Set.mem a rset && Col.Set.mem b lset ->
          Col.Set.add a acc
      | Cmp (Eq, l, r) ->
          List.fold_left (fun acc a -> Col.Set.add a acc) acc
            (eq_pins ~inside:rset ~bound:(Col.Set.union lset rset) l r)
      | _ -> acc)
    Col.Set.empty conjs

(* --- the analysis ------------------------------------------------------ *)

(* One analysis step: the properties of [o]'s output from its
   children's, given in [Op.children] order.  Every whole-plan consumer
   (costing's [Card.fold], the linter, EXPLAIN) folds this bottom-up in
   the walk it already makes, so each node is analysed once per walk;
   [analyze] is the same fold on its own. *)
let rec step ~(env : Props.env) (o : op) (kids : t list) : t =
  let verdict ?(nonnull = Col.Set.empty) p = Props.pred_verdict ~nonnull p in
  finish
    (match (o, kids) with
    | TableScan { table; cols }, _ ->
        let all = Col.Set.of_list cols in
        let names = env.Props.table_key table in
        let find n = List.find_opt (fun (c : Col.t) -> c.name = n) cols in
        let key = List.filter_map find names in
        let uniques, fds =
          if names <> [] && List.length key = List.length names then
            let ks = Col.Set.of_list key in
            ([ ks ], [ fd ks all ])
          else ([], [])
        in
        let nonnull =
          match env.Props.table_nullable table with
          | [] -> all
          | nullable ->
              Col.Set.of_list
                (List.filter (fun (c : Col.t) -> not (List.mem c.name nullable)) cols)
        in
        { fds; uniques; nonnull; card = top; cols = all }
    | ConstTable { cols; rows }, _ ->
        let n = List.length rows in
        let fds =
          List.concat
            (List.mapi
               (fun i (c : Col.t) ->
                 match rows with
                 | [] -> []
                 | first :: rest ->
                     if List.for_all (fun r -> Value.compare r.(i) first.(i) = 0) rest
                     then [ fd Col.Set.empty (Col.Set.singleton c) ]
                     else [])
               cols)
        in
        let nonnull =
          Col.Set.of_list
            (List.filteri
               (fun i _ ->
                 List.for_all (fun (r : Value.t array) -> not (Value.is_null r.(i))) rows)
               cols)
        in
        { fds;
          uniques = (if n <= 1 then [ Col.Set.empty ] else []);
          nonnull;
          card = { lo = n; hi = Some n };
          cols = Col.Set.of_list cols
        }
    | SegmentHole { cols; _ }, _ ->
        (* a SegmentApply partition: nonempty by construction *)
        { fds = []; uniques = []; nonnull = Col.Set.empty; card = { lo = 1; hi = None }; cols = Col.Set.of_list cols }
    | CseScan { cols; _ }, _ ->
        (* a CSE materialization can be refreshed between reads; claim
           nothing structural about its contents *)
        { fds = []; uniques = []; nonnull = Col.Set.empty; card = top; cols = Col.Set.of_list cols }
    | Select (p, _), [ ci ] ->
        let isch = ci.cols in
        let conjs = conjuncts p in
        let fds = pred_fds isch conjs @ ci.fds in
        let nonnull =
          Col.Set.union ci.nonnull (Col.Set.inter (Expr.null_rejected_cols p) isch)
        in
        let card =
          match verdict ~nonnull:ci.nonnull p with
          | Props.Contradiction -> { lo = 0; hi = Some 0 }
          | Props.Tautology -> ci.card
          | Props.Unknown -> { lo = 0; hi = ci.card.hi }
        in
        let t = { fds; uniques = ci.uniques; nonnull; card; cols = ci.cols } in
        (* equality on a derived key pins at most one row *)
        let pinned =
          List.fold_left
            (fun acc f -> if Col.Set.is_empty f.det then Col.Set.union acc f.dep else acc)
            Col.Set.empty fds
        in
        if covers_key t pinned then { t with card = { card with hi = min_hi card.hi (Some 1) } }
        else t
    | Project (projs, _), [ ci ] ->
        let isch = ci.cols in
        let extra =
          List.concat_map
            (fun pr ->
              match pr.expr with
              | ColRef c ->
                  [ fd (Col.Set.singleton c) (Col.Set.singleton pr.out);
                    fd (Col.Set.singleton pr.out) (Col.Set.singleton c)
                  ]
              | Const _ -> [ fd Col.Set.empty (Col.Set.singleton pr.out) ]
              | e when not (Expr.has_subquery e) ->
                  (* deterministic scalar: its input columns determine
                     the output; columns bound outside [i] (correlation
                     parameters) are invocation-constants *)
                  [ fd (Col.Set.inter (Expr.cols e) isch) (Col.Set.singleton pr.out) ]
              | _ -> [])
            projs
        in
        let nonnull =
          List.fold_left
            (fun acc pr ->
              match pr.expr with
              | ColRef c when Col.Set.mem c ci.nonnull -> Col.Set.add pr.out acc
              | Const v when not (Value.is_null v) -> Col.Set.add pr.out acc
              | _ -> acc)
            Col.Set.empty projs
        in
        (* projection is 1-1 on rows: input FDs and uniqueness facts
           survive as ghost facts even when their columns leave the
           schema *)
        { fds = extra @ ci.fds; uniques = ci.uniques; nonnull; card = ci.card;
          cols = Col.Set.of_list (List.map (fun pr -> pr.out) projs) }
    | Join { kind; pred; _ }, [ cl; cr ] ->
        join_props ~apply:false kind pred cl cr cl.cols cr.cols
    | Apply { kind; pred; _ }, [ cl; cr ] ->
        join_props ~apply:true kind pred cl cr cl.cols cr.cols
    | SegmentApply { seg_cols; _ }, [ co; ci ] ->
        let segset = Col.Set.of_list seg_cols in
        let others =
          Col.Set.diff co.cols segset
        in
        let fds =
          (* non-segment outer columns are padded NULL on every output
             row — constant in the grouping sense *)
          (if Col.Set.is_empty others then []
           else [ fd Col.Set.empty others ])
          @ List.filter
              (fun f -> Col.Set.subset (Col.Set.union f.det f.dep) segset)
              co.fds
        in
        let uniques =
          List.map
            (fun kr -> Col.Set.union segset kr)
            (derived_keys ci ~schema:(Col.Set.elements ci.cols))
        in
        let nonnull =
          Col.Set.union (Col.Set.inter segset co.nonnull) ci.nonnull
        in
        let card =
          { lo = (if co.card.lo >= 1 then ci.card.lo else 0);
            hi = mul_hi co.card.hi ci.card.hi
          }
        in
        { fds; uniques; nonnull; card; cols = Col.Set.union co.cols ci.cols }
    | (GroupBy { keys; aggs; _ } | LocalGroupBy { keys; aggs; _ }), [ ci ] ->
        let kset = Col.Set.of_list keys in
        let kept =
          List.filter
            (fun f -> Col.Set.subset (Col.Set.union f.det f.dep) kset)
            ci.fds
        in
        let aouts = Col.Set.of_list (List.map (fun (a : agg) -> a.out) aggs) in
        let fds =
          (if Col.Set.is_empty aouts then [] else [ fd kset aouts ]) @ kept
        in
        let nonnull =
          let keys_nn = Col.Set.inter kset ci.nonnull in
          let aggs_nn =
            List.filter_map
              (fun (a : agg) ->
                match a.fn with
                | CountStar | Count _ -> Some a.out
                | Sum e | Min e | Max e | Avg e -> (
                    (* groups are non-empty in vector aggregation *)
                    match e with
                    | ColRef c when Col.Set.mem c ci.nonnull -> Some a.out
                    | Const v when not (Value.is_null v) -> Some a.out
                    | _ -> None))
              aggs
          in
          Col.Set.union keys_nn (Col.Set.of_list aggs_nn)
        in
        let card =
          if covers_key ci kset then
            (* every input row is its own group: cardinality unchanged *)
            ci.card
          else
            { lo = (if ci.card.lo >= 1 then 1 else 0);
              hi = (if keys = [] then min_hi ci.card.hi (Some 1) else ci.card.hi)
            }
        in
        { fds; uniques = [ kset ]; nonnull; card; cols = Col.Set.union kset aouts }
    | ScalarAgg { aggs; _ }, _ ->
        let aouts = Col.Set.of_list (List.map (fun (a : agg) -> a.out) aggs) in
        let nonnull =
          List.fold_left
            (fun acc (a : agg) ->
              match a.fn with CountStar | Count _ -> Col.Set.add a.out acc | _ -> acc)
            Col.Set.empty aggs
        in
        { fds = [ fd Col.Set.empty aouts ];
          uniques = [ Col.Set.empty ];
          nonnull;
          card = { lo = 1; hi = Some 1 };
          cols = aouts
        }
    | Max1row _, [ ci ] ->
        (* on successful execution at most one row passes; an input
           lower bound >= 2 makes the interval contradictory — the
           operator always raises *)
        { fds = ci.fds;
          uniques = Col.Set.empty :: ci.uniques;
          nonnull = ci.nonnull;
          card = { lo = ci.card.lo; hi = min_hi ci.card.hi (Some 1) };
          cols = ci.cols
        }
    | UnionAll (l, r), [ cl; cr ] ->
        (* positional: output columns are the left schema's *)
        let nonnull =
          try
            List.fold_left2
              (fun acc (lc : Col.t) (rc : Col.t) ->
                if Col.Set.mem lc cl.nonnull && Col.Set.mem rc cr.nonnull then
                  Col.Set.add lc acc
                else acc)
              Col.Set.empty (Op.schema l) (Op.schema r)
          with Invalid_argument _ -> Col.Set.empty
        in
        (* FDs and keys do not survive the union: a pair with one row
           from each branch is unconstrained *)
        { fds = [];
          uniques = [];
          nonnull;
          card = { lo = cl.card.lo + cr.card.lo; hi = add_hi cl.card.hi cr.card.hi };
          cols = cl.cols
        }
    | Except _, [ cl; cr ] ->
        (* output is a sub-bag of the left input: every property of the
           left survives *)
        let lo =
          match cr.card.hi with Some h -> max 0 (cl.card.lo - h) | None -> 0
        in
        { cl with card = { lo; hi = cl.card.hi } }
    | Rownum { out; _ }, [ ci ] ->
        { fds = fd (Col.Set.singleton out) ci.cols :: ci.fds;
          uniques = Col.Set.singleton out :: ci.uniques;
          nonnull = Col.Set.add out ci.nonnull;
          card = ci.card;
          cols = Col.Set.add out ci.cols
        }
    | _ -> invalid_arg "Fd.step: arity mismatch")

and join_props ~apply kind pred (cl : t) (cr : t) (lset : Col.Set.t)
    (rset : Col.Set.t) : t =
  let v = Props.pred_verdict ~nonnull:(Col.Set.union cl.nonnull cr.nonnull) pred in
  match kind with
  | Semi ->
      let card =
        if hi_le cr.card.hi 0 || v = Props.Contradiction then { lo = 0; hi = Some 0 }
        else if v = Props.Tautology && cr.card.lo >= 1 then cl.card
        else { lo = 0; hi = cl.card.hi }
      in
      { cl with card }
  | Anti ->
      let card =
        if v = Props.Tautology && cr.card.lo >= 1 then { lo = 0; hi = Some 0 }
        else if hi_le cr.card.hi 0 || v = Props.Contradiction then cl.card
        else { lo = 0; hi = cl.card.hi }
      in
      { cl with card }
  | Inner | LeftOuter ->
      (* only joins that keep right columns need the keys and pins *)
      let conjs = conjuncts pred in
      let sch = Col.Set.union lset rset in
      (* derived keys of the right side, computed before its FDs are
         dropped: per-invocation facts are valid inside one binding, and
         the key product is sound across bindings.  Deriving them costs an
         FD closure per column, and only a key product over a keyed left
         side reads them: forced on demand, like [left_unique] below. *)
      let rkeys_raw =
        lazy
          (let ks = derived_keys cr ~schema:(Col.Set.elements rset) in
           if ks = [] then List.filter (fun u -> Col.Set.subset u rset) cr.uniques else ks)
      in
      let right_pinned = pinned_right lset rset conjs in
      let right_unique = covers_key cr right_pinned in
      let product kls krs =
        match kls with
        | [] -> []
        | _ ->
            let krs = Lazy.force krs in
            List.concat_map (fun kl -> List.map (Col.Set.union kl) krs) kls
      in
      if kind = Inner then begin
        let fds =
          pred_fds sch conjs @ cl.fds @ if apply then [] else cr.fds
        in
        (* a left key pinned by the predicate bounds a Join by the right
           side; an Apply's right side is per-invocation, so never *)
        let left_unique = (not apply) && covers_key cl (pinned_right rset lset conjs) in
        let uniques =
          product cl.uniques rkeys_raw
          @ (if right_unique then cl.uniques else [])
          @ if left_unique then cr.uniques else []
        in
        let nonnull =
          Col.Set.union
            (Col.Set.union cl.nonnull cr.nonnull)
            (Col.Set.inter (Expr.null_rejected_cols pred) sch)
        in
        let card =
          match v with
          | Props.Contradiction -> { lo = 0; hi = Some 0 }
          | Props.Tautology | Props.Unknown ->
              let lo =
                if v = Props.Tautology then mul_lo cl.card.lo cr.card.lo else 0
              in
              let hi =
                if right_unique then cl.card.hi
                else if left_unique then cr.card.hi
                else mul_hi cl.card.hi cr.card.hi
              in
              { lo; hi }
        in
        { fds; uniques; nonnull; card; cols = sch }
      end
      else begin
        (* padded rows NULL every right column: right FDs survive only
           when their determinant contains a non-nullable right column
           (padding then never aliases a matched row), predicate facts
           not at all *)
        let right_fds =
          if apply then []
          else
            List.filter
              (fun f -> not (Col.Set.disjoint f.det cr.nonnull))
              cr.fds
        in
        let rkeys_nn =
          lazy (List.filter (fun kr -> Col.Set.subset kr cr.nonnull) (Lazy.force rkeys_raw))
        in
        let uniques =
          product cl.uniques rkeys_nn @ if right_unique then cl.uniques else []
        in
        let card =
          { lo = cl.card.lo;
            hi =
              (if right_unique then cl.card.hi
               else
                 mul_hi cl.card.hi
                   (match cr.card.hi with Some h -> Some (max 1 h) | None -> None))
          }
        in
        { fds = cl.fds @ right_fds; uniques; nonnull = cl.nonnull; card; cols = sch }
      end

let rec analyze ?(env = Props.default_env) (o : op) : t =
  step ~env o (List.map (analyze ~env) (Op.children o))

(* The same fold, keeping every node's result. *)
let analyze_nodes ~env (o : op) : (op * t) list =
  let acc = ref [] in
  let rec go o =
    let t = step ~env o (List.map go (Op.children o)) in
    acc := (o, t) :: !acc;
    t
  in
  ignore (go o);
  !acc

(* --- row-local equalities and constants ------------------------------- *)

(* Columns pairwise equal on every output row, in the grouping sense
   (NULL ≡ NULL, as [covers_key]'s uniqueness), and columns bound to one
   non-NULL constant.  Sourced from the equality conjuncts of inner
   join/apply/select predicates, pass-through projections and constant
   items; facts established below an operator keep holding above it
   (columns that leave the schema make them vacuous there).  Unlike the
   FDs, they hold through an Apply's inner side.  A separate fold from
   [step], so the search, which never reads them, does not build them. *)

type eqs = { equal : (Col.t * Col.t) list; consts : Value.t Col.IdMap.t }

let no_eqs = { equal = []; consts = Col.IdMap.empty }

let pred_eqs (p : expr) : eqs =
  List.fold_left
    (fun acc c ->
      match c with
      | Cmp (Eq, ColRef a, ColRef b) -> { acc with equal = (a, b) :: acc.equal }
      | (Cmp (Eq, ColRef col, Const v) | Cmp (Eq, Const v, ColRef col))
        when not (Value.is_null v) ->
          { acc with consts = Col.IdMap.add col.Col.id v acc.consts }
      | _ -> acc)
    no_eqs (conjuncts p)

(* [a]'s binding of a column wins over [b]'s *)
let both a b =
  { equal = a.equal @ b.equal; consts = Col.IdMap.union (fun _ v _ -> Some v) a.consts b.consts }

let eq_step (o : op) (kids : eqs list) : eqs =
  match (o, kids) with
  | (TableScan _ | SegmentHole _ | CseScan _), [] -> no_eqs
  | ConstTable { cols; rows = first :: rest }, [] ->
      let bind acc (i, (c : Col.t)) =
        let v = first.(i) in
        if (not (Value.is_null v)) && List.for_all (fun r -> Value.equal r.(i) v) rest then
          Col.IdMap.add c.id v acc
        else acc
      in
      { no_eqs with
        consts = List.fold_left bind Col.IdMap.empty (List.mapi (fun i c -> (i, c)) cols) }
  | ConstTable _, [] -> no_eqs
  | Select (p, _), [ i ] -> both (pred_eqs p) i
  | (Max1row _ | Rownum _), [ i ] -> i
  | Project (projs, _), [ i ] ->
      (* a pass-through output equals its source column *)
      let links =
        List.filter_map
          (fun pr -> match pr.expr with ColRef c -> Some (c, pr.out) | _ -> None)
          projs
      in
      let bind acc pr =
        match pr.expr with
        | Const v when not (Value.is_null v) -> Col.IdMap.add pr.out.Col.id v acc
        | ColRef c -> (
            match Col.IdMap.find_opt c.Col.id i.consts with
            | Some v -> Col.IdMap.add pr.out.Col.id v acc
            | None -> acc)
        | _ -> acc
      in
      { equal = links @ i.equal; consts = List.fold_left bind Col.IdMap.empty projs }
  | (Join { kind; pred; right; _ } | Apply { kind; pred; right; _ }), [ l; r ] -> (
      match kind with
      | Inner -> both (pred_eqs pred) (both l r)
      | LeftOuter ->
          (* the predicate holds on matched rows only, and padding
             breaks the right side's constants.  Its equalities among
             its own columns survive as NULL ≡ NULL; one with an outer
             reference does not, as padding leaves that side non-NULL *)
          let outer = Op.free_cols right in
          let own (a, b) = not (Col.Set.mem a outer || Col.Set.mem b outer) in
          { l with equal = l.equal @ List.filter own r.equal }
      | Semi | Anti -> l)
  | SegmentApply _, [ _; inner ] -> { inner with consts = Col.IdMap.empty }
  | (GroupBy { keys; _ } | LocalGroupBy { keys; _ }), [ i ] ->
      { i with
        consts =
          Col.IdMap.filter (fun id _ -> List.exists (fun (k : Col.t) -> k.id = id) keys) i.consts
      }
  | ScalarAgg _, [ _ ] | UnionAll _, [ _; _ ] -> no_eqs
  | Except _, [ l; _ ] -> l
  | _ -> invalid_arg "Fd.eq_step: arity mismatch"

(* --- runtime cross-check ---------------------------------------------- *)

module VMap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* Assert the inferred properties against an actual result bag.  [rows]
   must be full-width rows in [schema] order (the executor's output
   before the final projection).  Returns human-readable violations;
   an empty list means every checkable property held. *)
let check_rows (t : t) ~(schema : Col.t list) (rows : Value.t array list) :
    string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = List.length rows in
  if n < t.card.lo then
    err "cardinality %d below interval %s" n (interval_to_string t.card);
  (match t.card.hi with
  | Some h when n > h ->
      err "cardinality %d above interval %s" n (interval_to_string t.card)
  | _ -> ());
  let pos = Hashtbl.create 16 in
  List.iteri (fun i (c : Col.t) -> Hashtbl.replace pos c.id i) schema;
  let idx_of (s : Col.Set.t) : int list option =
    let ids = Col.Set.elements s in
    let resolved = List.filter_map (fun (c : Col.t) -> Hashtbl.find_opt pos c.id) ids in
    if List.length resolved = List.length ids then Some resolved else None
  in
  (* nonnullability *)
  Col.Set.iter
    (fun c ->
      match Hashtbl.find_opt pos c.Col.id with
      | None -> ()
      | Some i ->
          List.iteri
            (fun rn (r : Value.t array) ->
              if Value.is_null r.(i) then
                err "column %s inferred non-null but row %d is NULL"
                  (Format.asprintf "%a" Col.pp c)
                  rn)
            rows)
    t.nonnull;
  let key_of idxs (r : Value.t array) = List.map (fun i -> r.(i)) idxs in
  (* uniqueness facts (grouping-sense: NULL ≡ NULL, matching the
     executor's hash tables) *)
  List.iter
    (fun u ->
      match idx_of u with
      | None -> ()
      | Some idxs ->
          let seen = ref VMap.empty in
          List.iter
            (fun r ->
              let k = key_of idxs r in
              match VMap.find_opt k !seen with
              | Some () ->
                  err "uniqueness violated on %s (duplicate combination)"
                    (cols_to_string u)
              | None -> seen := VMap.add k () !seen)
            rows)
    t.uniques;
  (* functional dependencies whose columns are all visible *)
  List.iter
    (fun f ->
      match (idx_of f.det, idx_of f.dep) with
      | Some dets, Some deps ->
          let seen = ref VMap.empty in
          List.iter
            (fun r ->
              let k = key_of dets r in
              let v = key_of deps r in
              match VMap.find_opt k !seen with
              | Some v' ->
                  if List.compare Value.compare v v' <> 0 then
                    err "FD %s violated" (fd_to_string f)
              | None -> seen := VMap.add k v !seen)
            rows
      | _ -> ())
    t.fds;
  List.rev !errs

(* Assert the row-local equalities and constants whose columns are
   visible, as [check_rows] does the other facts. *)
let check_eqs (eqs : eqs) ~(schema : Col.t list) (rows : Value.t array list) : string list =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i (c : Col.t) -> Hashtbl.replace pos c.id i) schema;
  let differ i v = List.exists (fun (r : Value.t array) -> not (Value.equal r.(i) (v r))) rows in
  let pp = Format.asprintf "%a" Col.pp in
  List.filter_map
    (fun (a, b) ->
      match (Hashtbl.find_opt pos a.Col.id, Hashtbl.find_opt pos b.Col.id) with
      | Some i, Some j when differ i (fun r -> r.(j)) ->
          Some (Printf.sprintf "equality %s = %s violated" (pp a) (pp b))
      | _ -> None)
    eqs.equal
  @ List.concat
      (List.mapi
         (fun i (c : Col.t) ->
           match Col.IdMap.find_opt c.id eqs.consts with
           | Some v when differ i (fun _ -> v) ->
               [ Printf.sprintf "column %s inferred constant %s but varies" (pp c)
                   (Value.to_string v) ]
           | _ -> [])
         schema)

(* One-line summary for EXPLAIN. *)
let summary t ~(schema : Col.t list) : string =
  let keys = derived_keys t ~schema in
  let keys_s =
    match keys with
    | [] -> "none"
    | ks -> String.concat " " (List.map cols_to_string ks)
  in
  let nn = Col.Set.inter t.nonnull (Col.set_of_list schema) in
  Printf.sprintf "card=%s keys=%s fds=%d nonnull=%s%s"
    (interval_to_string t.card) keys_s (List.length t.fds) (cols_to_string nn)
    (if contradiction t then " CONTRADICTION" else "")
