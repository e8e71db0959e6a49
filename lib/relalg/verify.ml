(* Plan integrity verifier.

   Rewrite rules compose freely inside the cost-based search, which
   means one subtly wrong firing (a leaked correlation, a violated key
   condition, a bogus null-rejection claim) silently corrupts results
   far downstream.  This module machine-checks the invariants every
   well-formed [Algebra.op] tree must satisfy, so the optimizer can
   reject an invalid candidate the moment a rule emits it instead of
   shipping wrong answers:

   - every column reference resolves in the referencing operator's
     child schemas (or in an enclosing Apply/SegmentApply binding), and
     agrees on the type the producing site declared;
   - no operator outputs the same column id twice, and the two sides
     of a Join/Apply/SegmentApply have disjoint schemas;
   - free outer references appear only under the right side of an
     Apply (a Join evaluates its sides independently — correlation
     across a Join is the bug the Apply operator exists to express);
   - UnionAll/Except branches agree positionally in arity and type
     (the executor concatenates rows positionally);
   - SegmentHole leaves occur only inside a SegmentApply's inner tree,
     mirror outer columns positionally, and segmenting columns come
     from the outer child;
   - the root produces exactly the schema the caller expects (rules
     must preserve the plan's output; the executor slices rows
     positionally).

   [check] is one walk per plan: bound columns flow down, and each node
   returns its output schema and free references ({!Op.free_cols})
   built from its children's, which is what the Join/Apply leak checks
   read.  Violations come out in pre-order (a node's own before its
   children's, left before right) whatever order the walk meets them.

   Beyond per-tree structure, [check_rewrite] re-derives the semantic
   preconditions of the GroupBy-reordering rules (the paper's
   Section 3.1 three-condition test and the Section 3.2 outerjoin
   compensation) on the actual before/after pair of a rule firing, and
   [check_oj_simplification] replays outerjoin→join simplifications
   against an independently recomputed null-rejection context. *)

open Algebra

type kind =
  | Unresolved_column of Col.t
      (** a reference no child schema nor enclosing binding produces *)
  | Type_clash of Col.t * Col.t  (** reference vs producing site disagree on type *)
  | Duplicate_column of Col.t  (** one operator outputs an id twice *)
  | Correlated_join of Col.t list
      (** a Join side references the sibling's columns — must be Apply *)
  | Illegal_apply of string
      (** flavor/payload mismatch, e.g. the left side referencing the right *)
  | Union_mismatch of string  (** branch arity or positional type disagreement *)
  | Orphan_hole  (** SegmentHole outside any SegmentApply inner tree *)
  | Hole_src_unbound of Col.t
      (** hole src column not produced by the enclosing SegmentApply's outer *)
  | Segment_col_unbound of Col.t  (** seg_col not in the outer child's schema *)
  | Malformed of string  (** shape errors: const-row arity, hole arity, ... *)
  | Schema_mismatch of string  (** root schema differs from the expected one *)
  | Unsound_rewrite of string
      (** a rule firing whose re-derived precondition does not hold *)

type violation = { kind : kind; node : op }

let cols_str cols = String.concat ", " (List.map (fun (c : Col.t) -> Format.asprintf "%a" Col.pp c) cols)

let kind_to_string = function
  | Unresolved_column c -> Printf.sprintf "unresolved column %s" (cols_str [ c ])
  | Type_clash (r, p) ->
      Printf.sprintf "column %s referenced as %s but produced as %s" (cols_str [ r ])
        (Value.ty_name r.Col.ty) (Value.ty_name p.Col.ty)
  | Duplicate_column c -> Printf.sprintf "duplicate output column %s" (cols_str [ c ])
  | Correlated_join cols ->
      Printf.sprintf "join side references sibling columns [%s] (correlation requires Apply)"
        (cols_str cols)
  | Illegal_apply m -> "illegal apply: " ^ m
  | Union_mismatch m -> "union/except branch mismatch: " ^ m
  | Orphan_hole -> "SegmentHole outside a SegmentApply inner tree"
  | Hole_src_unbound c ->
      Printf.sprintf "SegmentHole src %s not produced by the enclosing segment outer"
        (cols_str [ c ])
  | Segment_col_unbound c ->
      Printf.sprintf "segmenting column %s not in the outer child's schema" (cols_str [ c ])
  | Malformed m -> "malformed operator: " ^ m
  | Schema_mismatch m -> "root schema mismatch: " ^ m
  | Unsound_rewrite m -> "unsound rewrite: " ^ m

(* One-line summary (for traces) and full rendering with the offending
   subtree (for diagnostics). *)
let violation_summary (v : violation) : string =
  Printf.sprintf "%s at %s" (kind_to_string v.kind) (Pp.label v.node)

let violation_to_string (v : violation) : string =
  let tree = Pp.to_string v.node in
  let indented =
    String.concat "\n"
      (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' (String.trim tree)))
  in
  Printf.sprintf "%s\n  offending subtree:\n%s" (kind_to_string v.kind) indented

(* Mixed int/float positions are fine across a union: values compare
   numerically.  Everything else must match exactly. *)
let ty_compatible a b =
  a = b
  || match (a, b) with
     | Value.TInt, Value.TFloat | Value.TFloat, Value.TInt -> true
     | _ -> false

(* ------------------------------------------------------------------ *)
(* The structural walk.                                               *)
(* ------------------------------------------------------------------ *)

let to_map cols =
  List.fold_left (fun m (c : Col.t) -> Col.IdMap.add c.Col.id c m) Col.IdMap.empty cols

let merge a b = Col.IdMap.union (fun _ _ y -> Some y) a b

(* A scope: the schemas whose columns an expression or a subtree may
   reference, searched in order; within a schema a column's last
   occurrence answers, as in [to_map] of it.  [s1 @ s2] is [merge] with
   [s1] winning.  Columns are looked up a few per operator, so the
   schemas are searched as they are rather than turned into maps. *)
let rec find_in (scope : Col.t list list) id =
  match scope with
  | [] -> None
  | cols :: rest -> (
      match List.fold_left (fun acc (c : Col.t) -> if c.Col.id = id then Some c else acc) None cols with
      | Some _ as p -> p
      | None -> find_in rest id)

let produces (cols : Col.t list) id = List.exists (fun (c : Col.t) -> c.Col.id = id) cols

(* A node's free references from its local expressions' references
   [local] and its children's (schema, free) pairs — {!Op.free_cols}'s
   definition, computed from results the walk already has. *)
let free_of (local : Col.Set.t) (kids : (Col.t list * Col.Set.t) list) : Col.Set.t =
  let used = List.fold_left (fun acc (_, f) -> Col.Set.union acc f) local kids in
  List.fold_left
    (fun acc (sch, _) -> List.fold_left (fun acc c -> Col.Set.remove c acc) acc sch)
    used kids

(* [given]: the (schema, free) pairs of [root]'s children, physically
   matched, when only [root] itself is to be checked ({!check_node}) *)
let check_gen ?expect_schema ?given (root : op) : violation list * (Col.t list * Col.Set.t) =
  let viols = ref [] in
  let add node kind = viols := { kind; node } :: !viols in
  (* A node reports its own violations before its children's, but
     needs the children's schemas and free columns to do so: each
     child is walked [apart], its violations held back, and [splice]d
     in after the node's own. *)
  let apart f =
    let outer = !viols in
    viols := [];
    let r = f () in
    let mine = !viols in
    viols := outer;
    (r, mine)
  in
  let splice mine = viols := mine @ !viols in
  (* [bound]: columns visible from enclosing operators (the left side of
     an Apply for its right subtree, a SegmentApply's outer for its
     inner, plus everything visible to a subquery expression's host).
     [holes]: columns a SegmentHole's [src] may legally mirror — empty
     outside SegmentApply inner trees.  Returns the node's output
     schema and its free references ({!Op.free_cols}), both built from
     the children's, so the whole check is one walk. *)
  let rec walk ~(bound : Col.t list list) ~(holes : Col.t Col.IdMap.t) (o : op) :
      Col.t list * Col.Set.t =
    let given = match given with Some kids when o == root -> Some kids | _ -> None in
    let sub ~bound ~holes c =
      match given with Some kids -> List.assq c kids | None -> walk ~bound ~holes c
    in
    let dup_check cols =
      let rec go seen = function
        | [] -> ()
        | (c : Col.t) :: rest ->
            if List.exists (fun (s : Col.t) -> s.Col.id = c.Col.id) seen then
              add o (Duplicate_column c);
            go (c :: seen) rest
      in
      go [] cols
    in
    let disjoint_check ls rs =
      List.iter (fun (c : Col.t) -> if produces ls c.Col.id then add o (Duplicate_column c)) rs
    in
    (* check every column reference of [e] against [visible] ∪ [bound];
       relational children of the expression (binder-output subqueries)
       are verified recursively with the host's visible columns added to
       their outer bindings.  Adds [e]'s free references to [acc]. *)
    let check_expr visible acc e =
      Expr.fold_cols
        ~on_op:(fun acc q ->
          Col.Set.union acc (snd (walk ~bound:(visible @ bound) ~holes q)))
        (fun acc (c : Col.t) ->
          let produced =
            match find_in visible c.Col.id with
            | Some _ as p -> p
            | None -> find_in bound c.Col.id
          in
          (match produced with
          | Some p -> if p.Col.ty <> c.Col.ty then add o (Type_clash (c, p))
          | None -> add o (Unresolved_column c));
          Col.Set.add c acc)
        acc e
    in
    let check_key_cols visible (keys : Col.t list) =
      List.iter
        (fun (k : Col.t) ->
          match find_in visible k.Col.id with
          | Some p -> if p.Col.ty <> k.Col.ty then add o (Type_clash (k, p))
          | None -> add o (Unresolved_column k))
        keys
    in
    let check_aggs vis (aggs : agg list) =
      List.fold_left
        (fun acc (a : agg) ->
          match agg_input_expr a.fn with Some e -> check_expr vis acc e | None -> acc)
        Col.Set.empty aggs
    in
    (* an operator with one input: [f] reports the node's own
       violations given the input's schema and returns the local
       expressions' references *)
    let unary input f =
      let ((is, _) as ki), mine = apart (fun () -> sub ~bound ~holes input) in
      let local = f is in
      splice mine;
      (is, free_of local [ ki ])
    in
    match o with
    | TableScan { cols; _ } | CseScan { cols; _ } ->
        dup_check cols;
        (cols, Col.Set.empty)
    | ConstTable { cols; rows } ->
        dup_check cols;
        let n = List.length cols in
        List.iter
          (fun r ->
            if Array.length r <> n then
              add o
                (Malformed
                   (Printf.sprintf "const row has %d values for %d columns" (Array.length r) n)))
          rows;
        (cols, Col.Set.empty)
    | SegmentHole { cols; src } ->
        dup_check cols;
        if Col.IdMap.is_empty holes then add o Orphan_hole
        else if List.length cols <> List.length src then
          add o
            (Malformed
               (Printf.sprintf "segment hole has %d cols but %d src cols" (List.length cols)
                  (List.length src)))
        else begin
          List.iter2
            (fun (c : Col.t) (s : Col.t) ->
              if c.Col.ty <> s.Col.ty then
                add o
                  (Malformed
                     (Printf.sprintf "segment hole col %s mirrors %s of different type"
                        (cols_str [ c ]) (cols_str [ s ]))))
            cols src;
          List.iter
            (fun (s : Col.t) ->
              if not (Col.IdMap.mem s.Col.id holes) then add o (Hole_src_unbound s))
            src
        end;
        (* a hole's columns are bound by the enclosing SegmentApply's
           outer side, through [src] *)
        (cols, Col.Set.of_list src)
    | Select (p, i) -> unary i (fun is -> check_expr [ is ] Col.Set.empty p)
    | Project (ps, i) ->
        let outs = List.map (fun p -> p.out) ps in
        let _, free =
          unary i (fun is ->
              dup_check outs;
              List.fold_left (fun acc p -> check_expr [ is ] acc p.expr) Col.Set.empty ps)
        in
        (outs, free)
    | Join { kind; pred; left; right } | Apply { kind; pred; left; right } ->
        let is_join = match o with Join _ -> true | _ -> false in
        (* each side is walked with the other's columns bound: a leak is
           reported once, at this node, and cascaded unresolved-column
           reports in the subtrees are suppressed *)
        let rs0 = match given with Some kids -> fst (List.assq right kids) | None -> Op.schema right in
        let ((ls, lfree) as kl), lv =
          apart (fun () -> sub ~bound:(rs0 :: bound) ~holes left)
        in
        let ((rs, rfree) as kr), rv =
          apart (fun () -> sub ~bound:(ls :: bound) ~holes right)
        in
        disjoint_check ls rs;
        let leak free side = Col.Set.filter (fun (c : Col.t) -> produces side c.Col.id) free in
        if is_join then begin
          (* a Join evaluates both sides independently: neither side may
             reference the other's columns (that is what Apply is for) *)
          let leak_r = leak rfree ls in
          if not (Col.Set.is_empty leak_r) then
            add o (Correlated_join (Col.Set.elements leak_r));
          let leak_l = leak lfree rs0 in
          if not (Col.Set.is_empty leak_l) then
            add o (Correlated_join (Col.Set.elements leak_l))
        end
        else begin
          (* the binding runs left → right only; a left side referencing
             the right's columns has no evaluation order *)
          let leak_l = leak lfree rs0 in
          if not (Col.Set.is_empty leak_l) then
            add o
              (Illegal_apply
                 (Printf.sprintf "left side references right-side columns [%s]"
                    (cols_str (Col.Set.elements leak_l))))
        end;
        let local = check_expr [ rs; ls ] Col.Set.empty pred in
        splice lv;
        splice rv;
        let sch = match kind with Semi | Anti -> ls | Inner | LeftOuter -> ls @ rs in
        (sch, free_of local [ kl; kr ])
    | SegmentApply { seg_cols; outer; inner } ->
        let ((os, _) as ko), ov = apart (fun () -> sub ~bound ~holes outer) in
        let omap = to_map os in
        let ((is_, _) as ki), iv =
          apart (fun () -> sub ~bound:(os :: bound) ~holes:(merge holes omap) inner)
        in
        disjoint_check os is_;
        List.iter
          (fun (c : Col.t) ->
            if not (Col.IdMap.mem c.Col.id omap) then add o (Segment_col_unbound c))
          seg_cols;
        if not (Op.exists_op (function SegmentHole _ -> true | _ -> false) inner) then
          add o (Malformed "segment-apply inner contains no SegmentHole");
        splice ov;
        splice iv;
        (* inner's references to outer's columns are bound here *)
        let free = free_of Col.Set.empty [ ko; ki ] in
        (os @ is_, List.fold_left (fun acc c -> Col.Set.remove c acc) free os)
    | GroupBy { keys; aggs; input } | LocalGroupBy { keys; aggs; input } ->
        let outs = keys @ List.map (fun (a : agg) -> a.out) aggs in
        let _, free =
          unary input (fun is ->
              dup_check outs;
              check_key_cols [ is ] keys;
              check_aggs [ is ] aggs)
        in
        (outs, free)
    | ScalarAgg { aggs; input } ->
        let outs = List.map (fun (a : agg) -> a.out) aggs in
        let _, free =
          unary input (fun is ->
              dup_check outs;
              check_aggs [ is ] aggs)
        in
        (outs, free)
    | UnionAll (l, r) | Except (l, r) ->
        let ((ls, _) as kl), lv = apart (fun () -> sub ~bound ~holes l) in
        let ((rs, _) as kr), rv = apart (fun () -> sub ~bound ~holes r) in
        if List.length ls <> List.length rs then
          add o
            (Union_mismatch
               (Printf.sprintf "branch arity %d vs %d" (List.length ls) (List.length rs)))
        else
          List.iteri
            (fun i ((a : Col.t), (b : Col.t)) ->
              if not (ty_compatible a.Col.ty b.Col.ty) then
                add o
                  (Union_mismatch
                     (Printf.sprintf "position %d: %s vs %s" i
                        (Value.ty_name a.Col.ty) (Value.ty_name b.Col.ty))))
            (List.combine ls rs);
        splice lv;
        splice rv;
        (ls, free_of Col.Set.empty [ kl; kr ])
    | Max1row i -> unary i (fun _ -> Col.Set.empty)
    | Rownum { out; input } ->
        let is, free =
          unary input (fun is ->
              if out.Col.ty <> Value.TInt then
                add o (Malformed "rownum output column is not an integer");
              if List.exists (fun (c : Col.t) -> c.Col.id = out.Col.id) is then
                add o (Duplicate_column out);
              Col.Set.empty)
        in
        (is @ [ out ], free)
  in
  let ((got, _) as top) = walk ~bound:[] ~holes:Col.IdMap.empty root in
  (match expect_schema with
  | None -> ()
  | Some expected ->
      if List.length got <> List.length expected then
        add root
          (Schema_mismatch
             (Printf.sprintf "expected %d columns [%s], got %d [%s]" (List.length expected)
                (cols_str expected) (List.length got) (cols_str got)))
      else
        List.iter2
          (fun (e : Col.t) (g : Col.t) ->
            if e.Col.id <> g.Col.id || e.Col.ty <> g.Col.ty then
              add root
                (Schema_mismatch
                   (Printf.sprintf "expected %s, got %s" (cols_str [ e ]) (cols_str [ g ]))))
          expected got);
  (List.rev !viols, top)

let check ?expect_schema (root : op) : violation list = fst (check_gen ?expect_schema root)

(* One node against its children's (schema, free) pairs.  A reference
   no child produces is free here, not unresolved: an enclosing Apply
   or SegmentApply may bind it, which only the caller can tell, from
   the free set returned; likewise a SegmentHole's binding. *)
let check_node (o : op) (kids : (Col.t list * Col.Set.t) list) :
    violation list * Col.t list * Col.Set.t =
  let vs, (schema, free) = check_gen ~given:(List.combine (Op.children o) kids) o in
  ( List.filter
      (fun v ->
        match v.kind with
        | Unresolved_column _ | Orphan_hole | Hole_src_unbound _ -> false
        | _ -> true)
      vs,
    schema,
    free )

(* ------------------------------------------------------------------ *)
(* Rule-specific semantic re-checks.                                  *)
(*                                                                    *)
(* The structural walk above cannot tell a legal GroupBy-below-join   *)
(* plan from an unsound one: both are well-formed trees.  For the     *)
(* reordering rules we therefore re-derive the paper's preconditions  *)
(* on the actual (before, after) pair of each firing, independently   *)
(* of the rule's own condition code.  Shapes the rules do not emit    *)
(* pass vacuously — the structural walk still applies to them.        *)
(* ------------------------------------------------------------------ *)

let agg_inputs_within (aggs : agg list) (allowed : Col.Set.t) =
  List.for_all
    (fun (a : agg) ->
      match agg_input_expr a.fn with
      | None -> true
      | Some e -> Col.Set.subset (Expr.cols e) allowed)
    aggs

let pred_free_of_agg_outputs pred (aggs : agg list) =
  let outs = Col.Set.of_list (List.map (fun (a : agg) -> a.out) aggs) in
  Col.Set.is_empty (Col.Set.inter (Expr.cols pred) outs)

(* The Section 3.1 push test, re-derived: original grouping [keys] and
   join [pred] over sides [s] (kept) and [r] (aggregated early with
   pushed keys [pushed_keys]).
   1. every conjunct's r-columns are pushed grouping columns, and every
      pushed column beyond the original grouping columns is equated by
      some conjunct with an s-side expression (the relaxation of the
      formula A ∪ columns(p) − columns(S));
   2. the original grouping columns restricted to S cover a key of S;
   3. aggregate inputs use only columns of R. *)
let recheck_push_conditions ~env node keys (aggs : agg list) pred s r pushed_keys =
  let bad = ref [] in
  let fail m = bad := { kind = Unsound_rewrite m; node } :: !bad in
  let a = Col.Set.of_list keys in
  let rcols = Op.schema_set r and scols = Op.schema_set s in
  let pk = Col.Set.of_list pushed_keys in
  List.iter
    (fun c ->
      let rc = Col.Set.inter (Expr.cols c) rcols in
      if not (Col.Set.subset rc pk) then
        fail
          (Printf.sprintf
             "push condition 1: predicate conjunct %s uses r-columns [%s] outside the pushed grouping columns"
             (Expr.to_string c)
             (cols_str (Col.Set.elements (Col.Set.diff rc pk)))))
    (conjuncts pred);
  Col.Set.iter
    (fun (k : Col.t) ->
      if not (Col.Set.mem k a) then begin
        let equated =
          List.exists
            (fun c ->
              (* two guarded arms, not an or-pattern: when both sides are
                 ColRefs the or-pattern would commit to its first
                 alternative and never try binding [x] to the other side *)
              match c with
              | Cmp (Eq, ColRef x, e) when Col.equal x k ->
                  Col.Set.subset (Expr.cols e) scols
              | Cmp (Eq, e, ColRef x) when Col.equal x k ->
                  Col.Set.subset (Expr.cols e) scols
              | _ -> false)
            (conjuncts pred)
        in
        if not equated then
          fail
            (Printf.sprintf
               "push condition 1: pushed grouping column %s is neither an original grouping column nor equated with the kept side"
               (cols_str [ k ]))
      end)
    pk;
  if not (Fd.covers_key (Fd.analyze ~env s) (Col.Set.inter a scols)) then
    fail "push condition 2: grouping columns do not cover a key of the kept side";
  if not (agg_inputs_within aggs rcols) then
    fail "push condition 3: an aggregate input uses columns outside the aggregated side";
  List.rev !bad

(* The pushed GroupBy carries the original agg records (same output
   ids), which distinguishes it from a GroupBy that was already part of
   the joined subtree. *)
let same_agg_outs (a : agg list) (b : agg list) =
  List.length a = List.length b
  && List.for_all2 (fun (x : agg) (y : agg) -> Col.equal x.out y.out) a b

let check_rewrite ~(env : Props.env) ~(rule : string) ~(before : op) ~(after : op) :
    violation list =
  match rule with
  | "groupby-push-below-join" -> (
      match (before, after) with
      | ( GroupBy { keys; aggs; input = Join { kind = Inner; pred; left = s; right = r } },
          Project (_, Join { kind = Inner; left = jl; right = jr; _ }) ) -> (
          (* recover which input the GroupBy was pushed onto *)
          match (jl, jr) with
          | _, GroupBy g' when same_agg_outs aggs g'.aggs ->
              recheck_push_conditions ~env after keys aggs pred s r g'.keys
          | GroupBy g', _ when same_agg_outs aggs g'.aggs ->
              recheck_push_conditions ~env after keys aggs pred r s g'.keys
          | _ -> [])
      | _ -> [])
  | "groupby-push-below-outerjoin" -> (
      match (before, after) with
      | ( GroupBy { keys; aggs; input = Join { kind = LeftOuter; pred; left = s; right = r } },
          Project (projs, Join { kind = LeftOuter; right = GroupBy g'; _ }) ) ->
          let base = recheck_push_conditions ~env after keys aggs pred s r g'.keys in
          (* Section 3.2: aggregates whose value on the padded row is
             not NULL (counts) need a compensating CASE guarded by a
             non-nullable pushed grouping column *)
          let nn = (Fd.analyze ~env r).nonnull in
          let compensation_ok (orig : agg) =
            match orig.fn with
            | Sum _ | Min _ | Max _ | Avg _ -> true
            | CountStar | Count _ -> (
                match List.find_opt (fun p -> Col.equal p.out orig.out) projs with
                | Some { expr = Case ([ (Not (IsNull (ColRef m)), _) ], Some _); _ } ->
                    List.exists (Col.equal m) g'.keys && Col.Set.mem m nn
                | _ -> false)
          in
          let comp =
            List.filter_map
              (fun (orig : agg) ->
                if compensation_ok orig then None
                else
                  Some
                    { kind =
                        Unsound_rewrite
                          (Printf.sprintf
                             "outerjoin push: count aggregate %s lacks a padded-row compensation guarded by a non-nullable pushed column"
                             (cols_str [ orig.out ]));
                      node = after
                    })
              aggs
          in
          base @ comp
      | _ -> [])
  | "groupby-pull-above-join" -> (
      match (before, after) with
      | ( Join { kind = Inner; pred; left; right },
          Project (_, GroupBy { keys = keys'; aggs; _ }) ) ->
          (* mirror the rule's own match precedence: the right-side
             GroupBy variant fires first *)
          let g_keys, s =
            match (left, right) with
            | s, GroupBy g -> (g.keys, s)
            | GroupBy g, s -> (g.keys, s)
            | _ -> ([], left)
          in
          let bad = ref [] in
          if not (pred_free_of_agg_outputs pred aggs) then
            bad :=
              { kind = Unsound_rewrite "pull: join predicate uses aggregate outputs";
                node = after
              }
              :: !bad;
          if not (Fd.covers_key (Fd.analyze ~env s) (Op.schema_set s)) then
            bad :=
              { kind = Unsound_rewrite "pull: the non-aggregated side exposes no key";
                node = after
              }
              :: !bad;
          let expected = Col.Set.union (Col.Set.of_list g_keys) (Op.schema_set s) in
          if not (Col.Set.equal (Col.Set.of_list keys') expected) then
            bad :=
              { kind =
                  Unsound_rewrite
                    "pull: pulled grouping columns differ from original keys ∪ joined side";
                node = after
              }
              :: !bad;
          List.rev !bad
      | _ -> [])
  | "semijoin-below-groupby" | "semijoin-above-groupby" -> (
      let payload =
        match (rule, before) with
        | ( "semijoin-below-groupby",
            Join { kind = Semi | Anti; pred; left = GroupBy { keys; aggs; _ }; right = s } )
          ->
            Some (pred, keys, aggs, s)
        | ( "semijoin-above-groupby",
            GroupBy { keys; aggs; input = Join { kind = Semi | Anti; pred; right = s; _ } } )
          ->
            Some (pred, keys, aggs, s)
        | _ -> None
      in
      match payload with
      | None -> []
      | Some (pred, keys, aggs, s) ->
          let bad = ref [] in
          if not (pred_free_of_agg_outputs pred aggs) then
            bad :=
              { kind = Unsound_rewrite "semijoin reorder: predicate uses aggregate outputs";
                node = after
              }
              :: !bad;
          if
            not
              (Col.Set.subset
                 (Col.Set.diff (Expr.cols pred) (Op.schema_set s))
                 (Col.Set.of_list keys))
          then
            bad :=
              { kind =
                  Unsound_rewrite
                    "semijoin reorder: predicate uses non-grouping columns of the aggregated side";
                node = after
              }
              :: !bad;
          List.rev !bad)
  | "filter-below-groupby" | "filter-above-groupby" -> (
      let payload =
        match before with
        | Select (p, GroupBy { keys; _ }) -> Some (p, keys)
        | GroupBy { keys; input = Select (p, _); _ } -> Some (p, keys)
        | _ -> None
      in
      match payload with
      | Some (p, keys)
        when not (Col.Set.subset (Expr.cols p) (Col.Set.of_list keys)) ->
          [ { kind =
                Unsound_rewrite "filter/groupby commute: filter uses non-grouping columns";
              node = after
            }
          ]
      | _ -> [])
  (* --- property-proven rewrites: re-derive each FD/interval fact ----- *)
  | "groupby-eliminate-key" -> (
      match before with
      | GroupBy { keys; input; _ } ->
          if
            keys <> []
            && Fd.covers_key (Fd.analyze ~env input)
                 (Col.Set.of_list keys)
          then []
          else
            [ { kind =
                  Unsound_rewrite
                    "groupby elimination: grouping columns do not derive a key of the input";
                node = after
              }
            ]
      | _ -> [])
  | "max1row-elide" -> (
      match before with
      | Max1row i ->
          if Fd.max_one (Fd.analyze ~env i) then []
          else
            [ { kind =
                  Unsound_rewrite
                    "max1row elision: input not proven to yield at most one row";
                node = after
              }
            ]
      | _ -> [])
  | "semijoin-to-inner" -> (
      match before with
      | Join { kind = Semi; pred; left; right } ->
          let pinned =
            Fd.pinned_right (Op.schema_set left) (Op.schema_set right)
              (conjuncts pred)
          in
          if Fd.covers_key (Fd.analyze ~env right) pinned then []
          else
            [ { kind =
                  Unsound_rewrite
                    "semijoin to inner: predicate does not pin a derived key of the right side";
                node = after
              }
            ]
      | _ -> [])
  | "outerjoin-prune" -> (
      match before with
      | Project (projs, Join { kind = LeftOuter; pred; left; right }) ->
          let rset = Op.schema_set right in
          let clean =
            List.for_all
              (fun p ->
                (not (Expr.has_subquery p.expr))
                && Col.Set.disjoint (Expr.cols p.expr) rset)
              projs
          in
          let pinned =
            Fd.pinned_right (Op.schema_set left) rset (conjuncts pred)
          in
          if clean && Fd.covers_key (Fd.analyze ~env right) pinned then []
          else
            [ { kind =
                  Unsound_rewrite
                    "outerjoin prune: projection references the right side or the predicate does not pin a right key";
                node = after
              }
            ]
      | _ -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Outerjoin simplification replay.                                   *)
(*                                                                    *)
(* [Oj_simplify] only flips Join/Apply kinds LeftOuter→Inner, so the  *)
(* before/after trees are structurally identical.  Walk them in       *)
(* lockstep, recomputing the null-rejection context from scratch, and *)
(* demand every flip be justified: some context-rejected column must  *)
(* belong to the nullable (right/inner) side.                        *)
(* ------------------------------------------------------------------ *)

let check_oj_simplification ~(before : op) ~(after : op) : violation list =
  let viols = ref [] in
  let restrict rejected o = Col.Set.inter rejected (Op.schema_set o) in
  let rec go (rejected : Col.Set.t) (b : op) (a : op) : unit =
    match (b, a) with
    | Join jb, Join ja when jb.kind = LeftOuter && ja.kind = Inner ->
        if Col.Set.is_empty (Col.Set.inter rejected (Op.schema_set ja.right)) then
          viols :=
            { kind =
                Unsound_rewrite
                  "outerjoin simplified to join with no null-rejecting filter on the inner side";
              node = a
            }
            :: !viols;
        descend rejected b a
    | Apply ab, Apply aa when ab.kind = LeftOuter && aa.kind = Inner ->
        if Col.Set.is_empty (Col.Set.inter rejected (Op.schema_set aa.right)) then
          viols :=
            { kind =
                Unsound_rewrite
                  "outer apply simplified to cross apply with no null-rejecting filter on the inner side";
              node = a
            }
            :: !viols;
        descend rejected b a
    | _ -> descend rejected b a
  (* context propagation mirrors the nullability reasoning of
     Galindo-Legaria & Rosenthal, recomputed here on the AFTER tree so
     a pass bug in context propagation does not vouch for itself *)
  and descend rejected b a =
    let bc = Op.children b and ac = Op.children a in
    if List.length bc <> List.length ac then
      viols :=
        { kind = Unsound_rewrite "outerjoin simplification changed the tree shape"; node = a }
        :: !viols
    else
      let child_ctx =
        match a with
        | Select (p, i) -> [ restrict (Col.Set.union rejected (Expr.null_rejected_cols p)) i ]
        | Project (projs, i) ->
            let below =
              List.fold_left
                (fun acc p ->
                  if Col.Set.mem p.out rejected then
                    Col.Set.union acc (Expr.strict_cols p.expr)
                  else acc)
                Col.Set.empty projs
            in
            [ restrict below i ]
        | Join { kind; pred; left; right } ->
            let pr = Expr.null_rejected_cols pred in
            let lrej, rrej =
              match kind with
              | Inner -> (Col.Set.union rejected pr, Col.Set.union rejected pr)
              | LeftOuter -> (Col.Set.union rejected pr, rejected)
              | Semi -> (Col.Set.union rejected pr, pr)
              | Anti -> (rejected, Col.Set.empty)
            in
            [ restrict lrej left; restrict rrej right ]
        | Apply { kind; pred; left; _ } ->
            let pr = Expr.null_rejected_cols pred in
            let lrej =
              match kind with
              | Inner | Semi | LeftOuter -> Col.Set.union rejected pr
              | Anti -> rejected
            in
            [ restrict lrej left; Col.Set.empty ]
        | GroupBy { keys; aggs; input } ->
            let from_keys = Col.Set.inter rejected (Col.Set.of_list keys) in
            let per_agg =
              List.map
                (fun (ag : agg) ->
                  match ag.fn with
                  | CountStar -> Col.Set.empty
                  | Count e | Sum e | Min e | Max e | Avg e ->
                      if Expr.strict e then Expr.strict_cols e else Col.Set.empty)
                aggs
            in
            let candidate =
              match per_agg with
              | [] -> Col.Set.empty
              | s :: rest -> List.fold_left Col.Set.inter s rest
            in
            let null_yielding_rejected =
              List.exists
                (fun (ag : agg) ->
                  Col.Set.mem ag.out rejected
                  && match ag.fn with Sum _ | Min _ | Max _ | Avg _ -> true | _ -> false)
                aggs
            in
            let from_aggs = if null_yielding_rejected then candidate else Col.Set.empty in
            [ restrict (Col.Set.union from_keys from_aggs) input ]
        | Max1row i -> [ restrict rejected i ]
        | Rownum { input; _ } -> [ restrict rejected input ]
        | SegmentApply { outer; _ } -> [ restrict rejected outer; Col.Set.empty ]
        | _ -> List.map (fun _ -> Col.Set.empty) ac
      in
      List.iter2 (fun ctx (bc, ac) -> go ctx bc ac)
        child_ctx
        (List.combine bc ac)
  in
  go Col.Set.empty before after;
  List.rev !viols
