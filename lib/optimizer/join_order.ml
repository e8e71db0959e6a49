(* Join ordering over an isolated join graph.

   Join Graph Isolation (Grust et al.): at an inner join, the block of
   inner joins, selections and projections rooted there is lifted out
   of the plan as a graph.  Its vertices are the maximal subtrees that
   are not block operators (scans, GroupBy, outer/semi/anti joins,
   Apply, ...); its edges are the conjuncts over two vertices, and the
   column equalities with their transitive closure ({!Col.classes}):
   from l = p and p = l2 it derives l = l2, which is how TPC-H Q17's
   lineitem instances meet before SegmentApply introduction (Section
   3.4.1) can see them joined.  A conjunct over one vertex
   stays on that vertex; a projection inside the block is hoisted above
   it, its definitions substituted into the predicates above it.

   This module isolates the graph and lists its csg-cmp pairs (DPccp,
   Moerkotte and Neumann): connected vertex sets joined to connected
   complements, so no plan joins two vertex sets without a predicate
   between them unless the graph itself is disconnected; then every
   vertex is also linked to every vertex of another component, and
   those joins are cross products.  The plan search ({!Search}) fills
   one memo group per connected vertex set from these pairs, keyed on
   the set's vertices and what {!within} says it applies, so graphs
   that share a vertex set share its group. *)

open Relalg
open Relalg.Algebra

(* ------------------------------------------------------------------ *)
(* Index-lookup Apply                                                  *)
(* ------------------------------------------------------------------ *)

let rec scan_of (o : op) : (string * Col.t list) option =
  match o with
  | TableScan { table; cols } -> Some (table, cols)
  | Select (_, i) | Project (_, i) -> scan_of i
  | _ -> None

(* The join as an Apply whose inner is the (filtered, projected) base
   table [right] with the join predicate moved in, when some equality
   conjunct binds an indexed column of that table to an expression over
   [left]: the executor runs it as one index probe per outer row. *)
let index_apply ~(cat : Catalog.t) kind pred left right : op option =
  match scan_of right with
  | None -> None
  | Some (table, cols) ->
      let lcols = Op.schema_set left in
      let indexed (c : Col.t) = if Catalog.has_index cat table c.Col.name then Some () else None in
      let key_ok e = Col.Set.subset (Expr.cols e) lcols in
      if Option.is_some (Op.index_eq ~cols ~indexed ~key_ok pred) then
        let right' =
          match right with Select (p, i) -> Select (conj pred p, i) | i -> Select (pred, i)
        in
        Some (Apply { kind; pred = true_; left; right = right' })
      else None

(* ------------------------------------------------------------------ *)
(* Isolation                                                           *)
(* ------------------------------------------------------------------ *)

(* The joins of a block: inner joins, and the index-lookup Apply this
   module emits, an inner Apply into a filtered base table, which is
   the join R ⋈p T (identity (2)) and is taken apart again as one. *)
let is_join (o : op) =
  match o with
  | Join { kind = Inner; pred; _ } -> not (Expr.has_subquery pred)
  | Apply { kind = Inner; pred; right = Select (p, TableScan _); _ } ->
      is_true_const pred && not (Expr.has_subquery p)
  | _ -> false

(* A projection that computes something over a subtree outside the
   block stays with that subtree, in its vertex: hoisted, it would be
   computed once per joined row instead of once per row of its input. *)
let rec is_block_node (o : op) =
  match o with
  | Select (pred, _) -> not (Expr.has_subquery pred)
  | Project (ps, i) ->
      (not (List.exists (fun p -> Expr.has_subquery p.expr) ps))
      && (is_block_node i || List.for_all (fun p -> match p.expr with ColRef _ -> true | _ -> false) ps)
  | o -> is_join o

(* Does [o] reach a join through block nodes? *)
let rec has_join (o : op) =
  is_join o
  || match o with Select (_, i) | Project (_, i) -> is_block_node o && has_join i | _ -> false

type graph = {
  vertices : op array;  (** the subtrees, in canonical order *)
  locals : expr list array;  (** each vertex's single-vertex conjuncts *)
  classes : (int * Col.t) list array;
      (** equality classes: (vertex, column) members, by column id *)
  multi : (int * int * expr) list;
      (** conjuncts over two or more vertices: vertex mask, the class of
          a column equality (-1 for any other conjunct), conjunct *)
  nbr : int array;  (** adjacency bitmasks *)
  outs : proj list;  (** the block's output columns over vertex columns *)
}

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

(* the vertices adjacent to set [s], [s] itself excluded *)
let adjacent (nbr : int array) s =
  let m = ref 0 in
  Array.iteri (fun v b -> if s land (1 lsl v) <> 0 then m := !m lor b) nbr;
  !m land lnot s

let min_id (o : op) =
  List.fold_left (fun m (c : Col.t) -> min m c.id) max_int (Op.schema o)

(* [a = b] and [b = a] compare alike *)
let oriented = function
  | Cmp (Eq, a, b) when Stdlib.compare a b > 0 -> Cmp (Eq, b, a)
  | c -> c

let isolate ?(view = fun (o : op) -> o) (root : op) : graph =
  let verts = ref [] and conjs = ref [] in
  (* returns the substitution defining the subtree's projected columns
     over vertex columns *)
  let rec walk (o : op) : expr Col.IdMap.t =
    let o = if o == root then o else view o in
    if not (is_block_node o) then begin
      verts := o :: !verts;
      Col.IdMap.empty
    end
    else
      match o with
      | Join { pred; left; right; _ } ->
          let sub = Col.IdMap.union (fun _ a _ -> Some a) (walk left) (walk right) in
          conjs := conjuncts (Expr.subst sub pred) @ !conjs;
          sub
      | Apply { left; right = Select (p, scan); _ } ->
          let sub = walk left in
          verts := scan :: !verts;
          conjs := conjuncts (Expr.subst sub p) @ !conjs;
          sub
      | Select (p, i) ->
          let sub = walk i in
          conjs := conjuncts (Expr.subst sub p) @ !conjs;
          sub
      | Project (ps, i) ->
          let sub = walk i in
          List.fold_left (fun m p -> Col.IdMap.add p.out.id (Expr.subst sub p.expr) m) sub ps
      | o -> Invariant.broken ("Join_order.isolate: a block node with no case: " ^ Pp.label o)
  in
  let sub = walk root in
  (* canonical vertex and conjunct orders, independent of the block's
     current shape *)
  let vertices =
    Array.of_list (List.sort (fun a b -> compare (min_id a) (min_id b)) !verts)
  in
  let conjs =
    List.sort_uniq
      (fun a b -> Stdlib.compare (oriented a) (oriented b))
      (List.filter (fun c -> not (is_true_const c)) !conjs)
  in
  let n = Array.length vertices in
  let owner = Col.IdTbl.create 32 in
  Array.iteri
    (fun v o -> List.iter (fun (c : Col.t) -> Col.IdTbl.replace owner c.id v) (Op.schema o))
    vertices;
  let owned (c : Col.t) = Col.IdTbl.mem owner c.id in
  let classes =
    Col.classes
      (List.filter_map
         (function Cmp (Eq, ColRef a, ColRef b) when owned a && owned b -> Some (a, b) | _ -> None)
         conjs)
    |> List.map (fun s ->
           List.map (fun (c : Col.t) -> (Col.IdTbl.find owner c.id, c)) (Col.Set.elements s))
    |> Array.of_list
  in
  let class_id = Col.IdTbl.create 16 in
  Array.iteri (fun k ms -> List.iter (fun (_, (c : Col.t)) -> Col.IdTbl.replace class_id c.id k) ms) classes;
  let class_of (c : Col.t) = Col.IdTbl.find class_id c.id in
  let locals = Array.make n [] in
  let nbr = Array.make n 0 in
  let link m =
    for v = 0 to n - 1 do
      if m land (1 lsl v) <> 0 then nbr.(v) <- nbr.(v) lor (m land lnot (1 lsl v))
    done
  in
  (* a class connects every pair of its vertices *)
  Array.iter (fun ms -> link (List.fold_left (fun m (v, _) -> m lor (1 lsl v)) 0 ms)) classes;
  let multi =
    List.filter_map
      (fun c ->
        let m =
          Col.Set.fold
            (fun c m ->
              match Col.IdTbl.find_opt owner c.Col.id with
              | Some v -> m lor (1 lsl v)
              | None -> m)
            (Expr.cols c) 0
        in
        match popcount m with
        | 0 ->
            (* no vertex column: a filter on the whole block, applied
               to its first vertex *)
            locals.(0) <- locals.(0) @ [ c ];
            None
        | 1 ->
            let v = popcount (m - 1) in
            locals.(v) <- locals.(v) @ [ c ];
            None
        | k ->
            if k = 2 then link m;
            let cls =
              match c with Cmp (Eq, ColRef a, ColRef _) when owned a -> class_of a | _ -> -1
            in
            Some (m, cls, c))
      conjs
  in
  (* the components of a disconnected graph are joined by cross
     products: every vertex is linked to every vertex of another
     component *)
  let rec grow s = let s' = s lor adjacent nbr s in if s' = s then s else grow s' in
  let comps = Array.init n (fun v -> grow (1 lsl v)) in
  Array.iteri (fun v c -> nbr.(v) <- nbr.(v) lor (((1 lsl n) - 1) land lnot c)) comps;
  let outs =
    List.map (fun (c : Col.t) -> { expr = Expr.subst sub (ColRef c); out = c }) (Op.schema root)
  in
  { vertices; locals; classes; multi; nbr; outs }

(* The predicate joining vertex sets [l] and [r]: every conjunct that
   needs both, and for a class with members on both sides but no
   equality among those conjuncts, the equality its closure implies
   between the first member of each side. *)
let pred_between (g : graph) l r =
  let lr = l lor r in
  let crossing =
    List.filter (fun (m, _, _) -> m land lr = m && m land l <> m && m land r <> m) g.multi
  in
  let side s ms = List.filter (fun (v, _) -> s land (1 lsl v) <> 0) ms in
  let stated = List.map (fun (_, _, c) -> oriented c) crossing in
  let implied =
    Array.to_list g.classes
    |> List.concat_map (fun ms ->
           List.concat_map
             (fun (_, a) -> List.map (fun (_, b) -> Cmp (Eq, ColRef a, ColRef b)) (side r ms))
             (side l ms))
    |> List.filter (fun c -> not (List.mem (oriented c) stated))
  in
  conj_list (List.map (fun (_, _, c) -> c) crossing @ implied)

(* ------------------------------------------------------------------ *)
(* DPccp                                                               *)
(* ------------------------------------------------------------------ *)

(* Every csg-cmp pair (S1, S2) of the graph: S1 and S2 connected,
   disjoint and adjacent, each unordered pair once (Moerkotte and
   Neumann's EnumerateCsg / EnumerateCmp, vertices in descending
   order). *)
let ccp_pairs (nbr : int array) : (int * int) list =
  let n = Array.length nbr in
  let pairs = ref [] in
  let neigh s x = adjacent nbr s land lnot x in
  (* every non-empty subset of [m] *)
  let subsets m f =
    let s = ref m in
    while !s <> 0 do
      f !s;
      s := (!s - 1) land m
    done
  in
  let upto v = (1 lsl (v + 1)) - 1 in
  let lowest s = popcount ((s land -s) - 1) in
  let rec cmp_rec s1 s2 x =
    let nb = neigh s2 x in
    subsets nb (fun s' -> pairs := (s1, s2 lor s') :: !pairs);
    subsets nb (fun s' -> cmp_rec s1 (s2 lor s') (x lor nb))
  in
  let emit_csg s1 =
    let x = s1 lor upto (lowest s1) in
    let nb = neigh s1 x in
    for v = n - 1 downto 0 do
      if nb land (1 lsl v) <> 0 then begin
        pairs := (s1, 1 lsl v) :: !pairs;
        cmp_rec s1 (1 lsl v) (x lor (upto v land nb))
      end
    done
  in
  let rec csg_rec s1 x =
    let nb = neigh s1 x in
    subsets nb (fun s' -> emit_csg (s1 lor s'));
    subsets nb (fun s' -> csg_rec (s1 lor s') (x lor nb))
  in
  for v = n - 1 downto 0 do
    emit_csg (1 lsl v);
    csg_rec (1 lsl v) (upto v)
  done;
  !pairs

(* Blocks beyond this many vertices keep their written order: the pair
   count of a dense graph grows as 3^n. *)
let max_vertices = 12

(* What makes two vertex sets of two graphs the same relation, besides
   their vertices: the conjuncts within [s] other than column
   equalities, and each equality class restricted to [s] (by column
   id), whichever of its equalities a graph states.  Sorted, so equal
   for equal sets. *)
let within (g : graph) s : expr list * int list list =
  let inside m = m land s = m in
  let conjs =
    List.filter_map (fun (m, cls, c) -> if cls < 0 && inside m then Some (oriented c) else None) g.multi
  in
  let classes =
    Array.to_list g.classes
    |> List.filter_map (fun ms ->
           match List.filter (fun (v, _) -> s land (1 lsl v) <> 0) ms with
           | _ :: _ :: _ as ms -> Some (List.map (fun (_, (c : Col.t)) -> c.id) ms)
           | _ -> None)
  in
  (List.sort Stdlib.compare conjs, classes)
