(* Join ordering over an isolated join graph.

   Join Graph Isolation (Grust et al.): at an inner join, the block of
   inner joins, selections and projections rooted there is lifted out
   of the plan as a graph.  Its vertices are the maximal subtrees that
   are not block operators (scans, GroupBy, outer/semi/anti joins,
   Apply, ...); its edges are the conjuncts over two vertices, and the
   column equalities with their transitive closure
   ({!Rules.Join_rules.equality_classes}).  A conjunct over one vertex
   stays on that vertex; a projection inside the block is hoisted above
   it, its definitions substituted into the predicates above it.

   Orders are enumerated by dynamic programming over connected
   subgraphs and their connected complements (DPccp, Moerkotte and
   Neumann), so no plan joins two vertex sets without a predicate
   between them unless the graph itself is disconnected; then every
   vertex is also linked to every vertex of another component, and
   those joins are cross products.  Every subplan is costed with the
   search's own cost model, one {!Cost.step} over its children's
   (rows, properties, cost) triples, under one {!Card.env}.  Where one
   side of a join is a single indexed base table, the index-lookup
   Apply of the paper's Section 4 competes with the hash join; a single
   vertex may also enter a join unfiltered, its filter above the join.

   The enumerator emits the block's cheapest plan and the plans that
   estimate fewer rows at a higher cost.  When a vertex is an
   aggregate, it also emits the cheapest plan of every top-level split
   S1 | S2: the GroupBy and SegmentApply rules match on an aggregate
   directly below a join, so the beam must see, say, Q17's
   lineitem ⋈ G(lineitem) as one side of a split. *)

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
      let scan_cols = Col.Set.of_list cols in
      let probe rc e =
        Col.Set.mem rc scan_cols
        && Col.Set.subset (Expr.cols e) lcols
        && Catalog.has_index cat table rc.Col.name
      in
      let indexed_eq = function
        | Cmp (Eq, ColRef a, ColRef b) -> probe a (ColRef b) || probe b (ColRef a)
        | Cmp (Eq, ColRef rc, e) | Cmp (Eq, e, ColRef rc) -> probe rc e
        | _ -> false
      in
      if List.exists indexed_eq (conjuncts pred) then
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

(* The joins of [t] that lie inside a block rooted at another join
   above them: enumerating at the block's root covers them. *)
let interior_joins (t : op) : op list =
  let acc = ref [] in
  let rec go under_join o =
    if is_block_node o then begin
      let is_join = is_join o in
      if is_join && under_join then acc := o :: !acc;
      List.iter (go (under_join || is_join)) (Op.children o)
    end
    else List.iter (go false) (Op.children o)
  in
  go false t;
  !acc

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

let isolate (root : op) : graph =
  let verts = ref [] and conjs = ref [] in
  (* returns the substitution defining the subtree's projected columns
     over vertex columns *)
  let rec walk (o : op) : expr Col.IdMap.t =
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
      | _ -> assert false
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
  let roots, col_of =
    Rules.Join_rules.equality_classes
      (List.filter
         (function Cmp (Eq, ColRef a, ColRef b) -> owned a && owned b | _ -> false)
         conjs)
  in
  let by_root = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id r ->
      let m = (Col.IdTbl.find owner id, Hashtbl.find col_of id) in
      Hashtbl.replace by_root r (m :: Option.value ~default:[] (Hashtbl.find_opt by_root r)))
    roots;
  let by_id (_, (a : Col.t)) (_, (b : Col.t)) = compare a.id b.id in
  let classes =
    Array.of_list
      (List.sort
         (fun a b -> by_id (List.hd a) (List.hd b))
         (Hashtbl.fold (fun _ ms acc -> List.sort by_id ms :: acc) by_root []))
  in
  let class_of (c : Col.t) =
    let r = Hashtbl.find roots c.id in
    let k = ref 0 in
    while Hashtbl.find roots (snd (List.hd classes.(!k))).id <> r do incr k done;
    !k
  in
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

type entry = { plan : op; card : float; fd : Fd.t; cost : float }

let aggregate_like (o : op) =
  match o with GroupBy _ | LocalGroupBy _ | ScalarAgg _ | SegmentApply _ -> true | _ -> false

(* What enumerating a block yields: its cheapest plan, the other plans
   no plan beats on both cost and estimated rows, and the cheapest plan
   of each top-level split S1 | S2 (with HAVING-lifted variants). *)
type result = { cheapest : op list; undominated : op list; splits : op list }

(* Subtrees by physical identity (shared between the plans of one
   search), hashed on their bounded structural hash. *)
module Phys = Hashtbl.Make (struct
  type t = op

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* [vertex o]: the (rows, properties, cost) entry of vertex [o], which
   the caller derives once per search *)
let enumerate ~(cat : Catalog.t) ~(with_apply : bool) ~(vertex : op -> entry) (env : Card.env)
    (g : graph) : result =
  let n = Array.length g.vertices in
  if n < 2 || n > max_vertices then { cheapest = []; undominated = []; splits = [] }
  else begin
    let over kids plan =
      let card, fd, cost =
        Cost.step env cat plan (List.map (fun e -> (e.card, e.fd, e.cost)) kids)
      in
      { plan; card; fd; cost }
    in
    (* per connected vertex set, the plans no other plan beats on both
       cost and estimated rows: the rows a subplan is estimated to
       produce depend on its shape (the property engine's proven
       bounds clamp some shapes and not others), so the cheapest plan
       of a set need not lead to the cheapest plan of a superset *)
    let best = Hashtbl.create 64 in
    let frontier s = Hashtbl.find best s in
    let dominates (x : entry) (e : entry) =
      x.cost <= e.cost && Float.min x.card 1. <= Float.min e.card 1.
    in
    let add es e =
      if List.exists (fun x -> dominates x e) es then es
      else e :: List.filter (fun x -> not (dominates e x)) es
    in
    let raw = Array.map vertex g.vertices in
    Array.iteri
      (fun v o ->
        Hashtbl.replace best (1 lsl v)
          [ (match g.locals.(v) with [] -> raw.(v) | cs -> over [ raw.(v) ] (Select (conj_list cs, o))) ])
      g.vertices;
    (* a side's plans, with the conjuncts each leaves to apply above the
       join: a single vertex may also enter unfiltered, its filter
       applied above the join (a join's estimate never drops below one
       row, a filter's does) *)
    let unfiltered s =
      let v = popcount (s - 1) in
      if popcount s = 1 && g.locals.(v) <> [] then [ (raw.(v), g.locals.(v)) ] else []
    in
    let filtered_sides s = List.map (fun e -> (e, [])) (frontier s) in
    (* the ways to join plans of [l] and [r]: a join either way round,
       or an index probe into a single base table *)
    let candidates l r sides_l sides_r =
      let p_lr = pred_between g l r and p_rl = pred_between g r l in
      (* a join either way round: the same rows and properties, each
         with its own cost *)
      let hashes a b =
        let ab = over [ a; b ] (Join { kind = Inner; pred = p_lr; left = a.plan; right = b.plan }) in
        let ba = Join { kind = Inner; pred = p_rl; left = b.plan; right = a.plan } in
        let card, fd, cost =
          Cost.step { env with known = [ (ba, ab.fd) ] } cat ba
            [ (b.card, b.fd, b.cost); (a.card, a.fd, a.cost) ]
        in
        [ ab; { plan = ba; card; fd; cost } ]
      in
      let probe pred sb a b =
        if not with_apply || popcount sb <> 1 then []
        else
          match index_apply ~cat Inner pred a.plan b.plan with
          | Some (Apply { right = Select (_, scan) as right; _ } as o) ->
              [ over [ a; over [ vertex scan ] right ] o ]
          | _ -> []
      in
      List.concat_map
        (fun (a, la) ->
          List.concat_map
            (fun (b, lb) ->
              let lift (e : entry) =
                match la @ lb with [] -> e | cs -> over [ e ] (Select (conj_list cs, e.plan))
              in
              List.map lift (hashes a b @ probe p_lr r a b @ probe p_rl l b a))
            sides_r)
        sides_l
    in
    (* below the top, sides enter filtered; at the top, a single vertex
       may also enter unfiltered, its filter applied above the block's
       last join *)
    let join ~top l r =
      let sides s = filtered_sides s @ if top then unfiltered s else [] in
      List.rev (List.fold_left add [] (candidates l r (sides l) (sides r)))
    in
    let cheapest = function
      | [] -> []
      | e :: es -> [ List.fold_left (fun (x : entry) (y : entry) -> if y.cost < x.cost then y else x) e es ]
    in
    (* At the top, a GroupBy vertex under a filter (a HAVING) also
       enters a split unfiltered, so the GroupBy rules, which match a
       GroupBy directly below a join, see it. *)
    let grouped l r =
      let is_groupby s =
        popcount s = 1
        && match g.vertices.(popcount (s - 1)) with GroupBy _ | LocalGroupBy _ -> true | _ -> false
      in
      (if is_groupby l then cheapest (candidates l r (unfiltered l) (filtered_sides r)) else [])
      @ if is_groupby r then cheapest (candidates l r (filtered_sides l) (unfiltered r)) else []
    in

    let record s es =
      Hashtbl.replace best s
        (List.fold_left add (Option.value ~default:[] (Hashtbl.find_opt best s)) es)
    in
    let size (l, r) = popcount (l lor r) in
    let full = (1 lsl n) - 1 in
    let splits = ref [] in
    List.iter
      (fun (l, r) ->
        let es = join ~top:(l lor r = full || popcount (l lor r) = 2) l r in
        if l lor r = full then splits := !splits @ cheapest es @ grouped l r;
        record (l lor r) es)
      (List.stable_sort (fun a b -> compare (size a) (size b)) (ccp_pairs g.nbr));
    let undominated = List.rev (frontier full) in
    let best = cheapest undominated in
    let plans es = List.map (fun e -> e.plan) es in
    { cheapest = plans best;
      undominated = plans (List.filter (fun e -> not (List.memq e best)) undominated);
      splits = plans (List.filter (fun e -> not (List.memq e undominated)) !splits)
    }
  end

(* The [join-enumerate] rule.  At the root join of a block, when
   [reorder]: the block's cheapest plan and its other undominated
   plans, and, when a vertex is an aggregate (the GroupBy and
   SegmentApply rules match on an aggregate below a join), the
   cheapest plan of each top-level split.  A graph already enumerated
   in this search yields only its cheapest plan (none when the block is
   a plan it yielded).  At any other join, when [with_apply], the join
   as an index-lookup Apply.  [interior] tells the joins inside a block
   apart, [card_env] gives the cardinality environment a block is
   costed under. *)
let rule ~(cat : Catalog.t) ~(reorder : bool) ~(with_apply : bool)
    ~(card_env : op -> Card.env) ~(interior : op -> bool) : op -> op list =
  (* the graphs enumerated so far, with what each yielded *)
  let enumerated = ref [] in
  let vertices = Phys.create 64 in
  let vertex env o =
    match Phys.find_opt vertices o with
    | Some e -> e
    | None ->
        let card, fd, cost = Cost.fold env cat o in
        let e = { plan = o; card; fd; cost } in
        Phys.replace vertices o e;
        e
  in
  (* two graphs are the same block when their vertices are physically
     the same and their conjuncts equal up to which equalities of a
     class are stated: enumeration states those it needs *)
  let same (g : graph) (h : graph) =
    let unstated (g : graph) =
      let member (c : Col.t) =
        Array.exists (List.exists (fun (_, (m : Col.t)) -> m.id = c.id)) g.classes
      in
      let col_eq = function Cmp (Eq, ColRef a, ColRef b) -> member a && member b | _ -> false in
      ( Array.map (List.filter (fun c -> not (col_eq c))) g.locals,
        List.filter (fun (_, cls, _) -> cls < 0) g.multi,
        Array.map (List.map (fun (_, (c : Col.t)) -> c.id)) g.classes )
    in
    Array.length h.vertices = Array.length g.vertices
    && Array.for_all2 ( == ) h.vertices g.vertices
    && unstated g = unstated h
  in
  fun o ->
  match o with
  | (Join _ | Apply _) when reorder && is_join o ->
      if interior o then []
      else begin
        let g = isolate o in
        let restore = List.map (fun plan -> Project (g.outs, plan)) in
        match List.find_opt (fun (h, _) -> same g h) !enumerated with
        | Some (_, r) ->
            (* a plan this graph already yielded has its alternatives in
               the memo, or on their way there *)
            if List.memq o (r.cheapest @ r.undominated @ r.splits) then [] else restore r.cheapest
        | None ->
            let env = card_env o in
            let r = enumerate ~cat ~with_apply ~vertex:(vertex env) env g in
            enumerated := (g, r) :: !enumerated;
            let shaped = Array.exists aggregate_like g.vertices in
            restore (r.cheapest @ r.undominated @ if shaped then r.splits else [])
      end
  | Join { kind; pred; left; right } when with_apply ->
      Option.to_list (index_apply ~cat kind pred left right)
  | _ -> []
