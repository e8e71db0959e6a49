(* Column identities.

   Every column produced anywhere in a query gets a globally unique
   integer id at creation time (bind time for base-table occurrences,
   rewrite time for manufactured columns).  Rewrites reference columns
   only through ids, which makes the decorrelation identities immune to
   name capture: two scans of the same table in one query have disjoint
   ids, and cloning a subtree re-instantiates ids through an explicit
   substitution. *)

type t = { id : int; name : string; ty : Value.ty }

(* Atomic: ids are drawn during binding and rewriting, and a concurrent
   query service compiles many queries at once across domains — a racy
   counter would hand two columns the same id, which the id-based
   rewrite machinery silently miscompiles. *)
let counter = Atomic.make 0

(* Tests reset the counter so expected plans print with stable ids. *)
let reset_counter () = Atomic.set counter 0

let fresh name ty = { id = 1 + Atomic.fetch_and_add counter 1; name; ty }

(* A renamed copy of [c] with a fresh id (used when cloning subtrees). *)
let clone c = fresh c.name c.ty

let equal a b = a.id = b.id
let compare a b = Stdlib.compare a.id b.id
let pp fmt c = Format.fprintf fmt "%s#%d" c.name c.id

(* Hash tables keyed by column id, hashed and compared as ints rather
   than through the polymorphic [Hashtbl.hash] and [compare]. *)
module IdTbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x land max_int
end)

(* Integer-keyed map from column id, used where only ids are known:
   [Stdlib.Map.Make (Int)]'s balanced trees with the key comparison
   inlined, like [Set] below.  The verifier builds one per operator. *)
module IdMap = struct
  type key = int
  type 'a t = Empty | Node of { l : 'a t; v : int; d : 'a; r : 'a t; h : int }

  let height = function Empty -> 0 | Node { h; _ } -> h

  let create l v d r =
    let hl = height l and hr = height r in
    Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let singleton v d = Node { l = Empty; v; d; r = Empty; h = 1 }

  let bal l v d r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Empty -> invalid_arg "Col.IdMap.bal"
      | Node { l = ll; v = lv; d = ld; r = lr; _ } -> (
          if height ll >= height lr then create ll lv ld (create lr v d r)
          else
            match lr with
            | Empty -> invalid_arg "Col.IdMap.bal"
            | Node { l = lrl; v = lrv; d = lrd; r = lrr; _ } ->
                create (create ll lv ld lrl) lrv lrd (create lrr v d r))
    else if hr > hl + 2 then
      match r with
      | Empty -> invalid_arg "Col.IdMap.bal"
      | Node { l = rl; v = rv; d = rd; r = rr; _ } -> (
          if height rr >= height rl then create (create l v d rl) rv rd rr
          else
            match rl with
            | Empty -> invalid_arg "Col.IdMap.bal"
            | Node { l = rll; v = rlv; d = rld; r = rlr; _ } ->
                create (create l v d rll) rlv rld (create rlr rv rd rr))
    else Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let empty = Empty
  let is_empty = function Empty -> true | Node _ -> false

  let rec add (x : int) data = function
    | Empty -> singleton x data
    | Node { l; v; d; r; h } as m ->
        if x = v then if d == data then m else Node { l; v = x; d = data; r; h }
        else if x < v then
          let ll = add x data l in
          if l == ll then m else bal ll v d r
        else
          let rr = add x data r in
          if r == rr then m else bal l v d rr

  let rec find (x : int) = function
    | Empty -> raise Not_found
    | Node { l; v; d; r; _ } -> if x = v then d else find x (if x < v then l else r)

  let rec find_opt (x : int) = function
    | Empty -> None
    | Node { l; v; d; r; _ } -> if x = v then Some d else find_opt x (if x < v then l else r)

  let rec mem (x : int) = function
    | Empty -> false
    | Node { l; v; r; _ } -> x = v || mem x (if x < v then l else r)

  let rec min_binding = function
    | Empty -> raise Not_found
    | Node { l = Empty; v; d; _ } -> (v, d)
    | Node { l; _ } -> min_binding l

  let rec remove_min_binding = function
    | Empty -> invalid_arg "Col.IdMap.remove_min_binding"
    | Node { l = Empty; r; _ } -> r
    | Node { l; v; d; r; _ } -> bal (remove_min_binding l) v d r

  let rec add_min k x = function Empty -> singleton k x | Node { l; v; d; r; _ } -> bal (add_min k x l) v d r
  let rec add_max k x = function Empty -> singleton k x | Node { l; v; d; r; _ } -> bal l v d (add_max k x r)

  let rec join l v d r =
    match (l, r) with
    | Empty, _ -> add_min v d r
    | _, Empty -> add_max v d l
    | Node { l = ll; v = lv; d = ld; r = lr; h = lh }, Node { l = rl; v = rv; d = rd; r = rr; h = rh } ->
        if lh > rh + 2 then bal ll lv ld (join lr v d r)
        else if rh > lh + 2 then bal (join l v d rl) rv rd rr
        else create l v d r

  let concat t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | _ ->
        let x, d = min_binding t2 in
        join t1 x d (remove_min_binding t2)

  let concat_or_join t1 v d t2 = match d with Some d -> join t1 v d t2 | None -> concat t1 t2

  let rec split (x : int) = function
    | Empty -> (Empty, None, Empty)
    | Node { l; v; d; r; _ } ->
        if x = v then (l, Some d, r)
        else if x < v then
          let ll, pres, rl = split x l in
          (ll, pres, join rl v d r)
        else
          let lr, pres, rr = split x r in
          (join l v d lr, pres, rr)

  let rec union f s1 s2 =
    match (s1, s2) with
    | Empty, s | s, Empty -> s
    | Node { l = l1; v = v1; d = d1; r = r1; h = h1 }, Node { l = l2; v = v2; d = d2; r = r2; h = h2 } -> (
        if h1 >= h2 then
          let l2, d2, r2 = split v1 s2 in
          let l = union f l1 l2 and r = union f r1 r2 in
          match d2 with None -> join l v1 d1 r | Some d2 -> concat_or_join l v1 (f v1 d1 d2) r
        else
          let l1, d1, r1 = split v2 s1 in
          let l = union f l1 l2 and r = union f r1 r2 in
          match d1 with None -> join l v2 d2 r | Some d1 -> concat_or_join l v2 (f v2 d1 d2) r)

  let rec filter p = function
    | Empty -> Empty
    | Node { l; v; d; r; _ } as m ->
        let l' = filter p l in
        let pvd = p v d in
        let r' = filter p r in
        if pvd then if l == l' && r == r' then m else join l' v d r' else concat l' r'

  let rec fold f m acc = match m with Empty -> acc | Node { l; v; d; r; _ } -> fold f r (f v d (fold f l acc))
end

(* Sets of columns ordered by id.  This is the balanced-tree algorithm
   of [Stdlib.Set.Make], written out for [t] so that each comparison is
   an inline test on two ints.  Through the functor every comparison is
   a call through an unknown closure, and the property engine, the
   verifier and the cost model spend much of the plan search in set
   operations.  Same trees, same element order, same [compare]. *)
module Set = struct
  type elt = t
  type t = Empty | Node of { l : t; v : elt; r : t; h : int }

  let cmp (a : elt) (b : elt) = if a.id < b.id then -1 else if a.id > b.id then 1 else 0
  let height = function Empty -> 0 | Node { h; _ } -> h

  let create l v r =
    let hl = height l and hr = height r in
    Node { l; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let bal l v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Empty -> invalid_arg "Col.Set.bal"
      | Node { l = ll; v = lv; r = lr; _ } -> (
          if height ll >= height lr then create ll lv (create lr v r)
          else
            match lr with
            | Empty -> invalid_arg "Col.Set.bal"
            | Node { l = lrl; v = lrv; r = lrr; _ } ->
                create (create ll lv lrl) lrv (create lrr v r))
    else if hr > hl + 2 then
      match r with
      | Empty -> invalid_arg "Col.Set.bal"
      | Node { l = rl; v = rv; r = rr; _ } -> (
          if height rr >= height rl then create (create l v rl) rv rr
          else
            match rl with
            | Empty -> invalid_arg "Col.Set.bal"
            | Node { l = rll; v = rlv; r = rlr; _ } ->
                create (create l v rll) rlv (create rlr rv rr))
    else Node { l; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let empty = Empty
  let is_empty = function Empty -> true | Node _ -> false
  let singleton x = Node { l = Empty; v = x; r = Empty; h = 1 }

  let rec add x = function
    | Empty -> singleton x
    | Node { l; v; r; _ } as t ->
        if x.id = v.id then t
        else if x.id < v.id then
          let ll = add x l in
          if l == ll then t else bal ll v r
        else
          let rr = add x r in
          if r == rr then t else bal l v rr

  let rec add_min x = function Empty -> singleton x | Node { l; v; r; _ } -> bal (add_min x l) v r
  let rec add_max x = function Empty -> singleton x | Node { l; v; r; _ } -> bal l v (add_max x r)

  (* a tree of [l], [v], [r], all of [l] below [v] and all of [r] above *)
  let rec join l v r =
    match (l, r) with
    | Empty, _ -> add_min v r
    | _, Empty -> add_max v l
    | Node { l = ll; v = lv; r = lr; h = lh }, Node { l = rl; v = rv; r = rr; h = rh } ->
        if lh > rh + 2 then bal ll lv (join lr v r)
        else if rh > lh + 2 then bal (join l v rl) rv rr
        else create l v r

  let rec min_elt = function
    | Empty -> raise Not_found
    | Node { l = Empty; v; _ } -> v
    | Node { l; _ } -> min_elt l

  let rec remove_min = function
    | Empty -> invalid_arg "Col.Set.remove_min"
    | Node { l = Empty; r; _ } -> r
    | Node { l; v; r; _ } -> bal (remove_min l) v r

  let merge t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | _ -> bal t1 (min_elt t2) (remove_min t2)

  let concat t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | _ -> join t1 (min_elt t2) (remove_min t2)

  let rec split x = function
    | Empty -> (Empty, false, Empty)
    | Node { l; v; r; _ } ->
        if x.id = v.id then (l, true, r)
        else if x.id < v.id then
          let ll, pres, rl = split x l in
          (ll, pres, join rl v r)
        else
          let lr, pres, rr = split x r in
          (join l v lr, pres, rr)

  let rec mem x = function
    | Empty -> false
    | Node { l; v; r; _ } -> x.id = v.id || mem x (if x.id < v.id then l else r)

  let rec remove x = function
    | Empty -> Empty
    | Node { l; v; r; _ } as t ->
        if x.id = v.id then merge l r
        else if x.id < v.id then
          let ll = remove x l in
          if l == ll then t else bal ll v r
        else
          let rr = remove x r in
          if r == rr then t else bal l v rr

  let rec union s1 s2 =
    match (s1, s2) with
    | Empty, t | t, Empty -> t
    | Node { l = l1; v = v1; r = r1; h = h1 }, Node { l = l2; v = v2; r = r2; h = h2 } ->
        if h1 >= h2 then
          if h2 = 1 then add v2 s1
          else
            let l2, _, r2 = split v1 s2 in
            join (union l1 l2) v1 (union r1 r2)
        else if h1 = 1 then add v1 s2
        else
          let l1, _, r1 = split v2 s1 in
          join (union l1 l2) v2 (union r1 r2)

  let rec inter s1 s2 =
    match (s1, s2) with
    | Empty, _ | _, Empty -> Empty
    | Node { l = l1; v = v1; r = r1; _ }, t2 -> (
        match split v1 t2 with
        | l2, false, r2 -> concat (inter l1 l2) (inter r1 r2)
        | l2, true, r2 -> join (inter l1 l2) v1 (inter r1 r2))

  let rec diff s1 s2 =
    match (s1, s2) with
    | Empty, _ -> Empty
    | t1, Empty -> t1
    | Node { l = l1; v = v1; r = r1; _ }, t2 -> (
        match split v1 t2 with
        | l2, false, r2 -> join (diff l1 l2) v1 (diff r1 r2)
        | l2, true, r2 -> concat (diff l1 l2) (diff r1 r2))

  let rec subset s1 s2 =
    match (s1, s2) with
    | Empty, _ -> true
    | _, Empty -> false
    | Node { l = l1; v = v1; r = r1; _ }, (Node { l = l2; v = v2; r = r2; _ } as t2) ->
        if v1.id = v2.id then subset l1 l2 && subset r1 r2
        else if v1.id < v2.id then subset (Node { l = l1; v = v1; r = Empty; h = 0 }) l2 && subset r1 t2
        else subset (Node { l = Empty; v = v1; r = r1; h = 0 }) r2 && subset l1 t2

  let rec disjoint s1 s2 =
    match s1 with
    | Empty -> true
    | Node { l; v; r; _ } -> (not (mem v s2)) && disjoint l s2 && disjoint r s2

  (* lexicographic over the ascending elements, as [Stdlib.Set] *)
  type enumeration = End | More of elt * t * enumeration

  let rec cons_enum s e = match s with Empty -> e | Node { l; v; r; _ } -> cons_enum l (More (v, r, e))

  let compare s1 s2 =
    let rec go e1 e2 =
      match (e1, e2) with
      | End, End -> 0
      | End, _ -> -1
      | _, End -> 1
      | More (v1, r1, e1), More (v2, r2, e2) ->
          let c = cmp v1 v2 in
          if c <> 0 then c else go (cons_enum r1 e1) (cons_enum r2 e2)
    in
    go (cons_enum s1 End) (cons_enum s2 End)

  let equal s1 s2 = s1 == s2 || compare s1 s2 = 0
  let rec iter f = function Empty -> () | Node { l; v; r; _ } -> iter f l; f v; iter f r
  let rec fold f s acc = match s with Empty -> acc | Node { l; v; r; _ } -> fold f r (f v (fold f l acc))
  let rec for_all p = function Empty -> true | Node { l; v; r; _ } -> p v && for_all p l && for_all p r
  let rec exists p = function Empty -> false | Node { l; v; r; _ } -> p v || exists p l || exists p r

  let rec filter p = function
    | Empty -> Empty
    | Node { l; v; r; _ } as t ->
        let l' = filter p l in
        let pv = p v in
        let r' = filter p r in
        if pv then if l == l' && r == r' then t else join l' v r' else concat l' r'

  let rec cardinal = function Empty -> 0 | Node { l; r; _ } -> cardinal l + 1 + cardinal r

  let elements s =
    let rec go acc = function Empty -> acc | Node { l; v; r; _ } -> go (v :: go acc r) l in
    go [] s

  let choose_opt s = match s with Empty -> None | _ -> Some (min_elt s)

  (* a balanced tree of a strictly ascending list of length [n] *)
  let of_sorted_list l =
    let leaf x = Node { l = Empty; v = x; r = Empty; h = 1 } in
    let rec sub n l =
      match (n, l) with
      | 0, l -> (Empty, l)
      | 1, x0 :: l -> (leaf x0, l)
      | 2, x0 :: x1 :: l -> (Node { l = leaf x0; v = x1; r = Empty; h = 2 }, l)
      | 3, x0 :: x1 :: x2 :: l -> (Node { l = leaf x0; v = x1; r = leaf x2; h = 2 }, l)
      | n, l -> (
          let nl = n / 2 in
          let left, l = sub nl l in
          match l with
          | [] -> invalid_arg "Col.Set.of_list"
          | mid :: l ->
              let right, l = sub (n - nl - 1) l in
              (create left mid right, l))
    in
    fst (sub (List.length l) l)

  let of_list = function
    | [] -> Empty
    | [ x0 ] -> singleton x0
    | [ x0; x1 ] -> add x1 (singleton x0)
    | [ x0; x1; x2 ] -> add x2 (add x1 (singleton x0))
    | [ x0; x1; x2; x3 ] -> add x3 (add x2 (add x1 (singleton x0)))
    | [ x0; x1; x2; x3; x4 ] -> add x4 (add x3 (add x2 (add x1 (singleton x0))))
    | l -> of_sorted_list (List.sort_uniq cmp l)
end

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

let set_of_list l = Set.of_list l
let names_of set = Set.elements set |> List.map (fun c -> c.name)

(* Merge each pair into the classes it touches: the classes stay
   disjoint, so one pass over the pairs suffices. *)
let classes (pairs : (t * t) list) : Set.t list =
  let merge classes (a, b) =
    let touching, rest = List.partition (fun s -> Set.mem a s || Set.mem b s) classes in
    List.fold_left Set.union (Set.of_list [ a; b ]) touching :: rest
  in
  List.sort Set.compare (List.fold_left merge [] pairs)
