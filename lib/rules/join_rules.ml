(* Column-equality closure: the union-find behind the join graph's
   implied edges.  The join enumerator (lib/optimizer/join_order.ml)
   joins two vertices whenever a class has members in both — from
   l = p and p = l2 it derives l = l2, which is how TPC-H Q17's
   lineitem instances meet before SegmentApply introduction (Section
   3.4.1) can see them joined. *)

open Relalg
open Relalg.Algebra

(* union-find over column ids, seeded from equality conjuncts *)
let equality_classes (conjs : expr list) : (int, int) Hashtbl.t * (int, Col.t) Hashtbl.t =
  let parent = Hashtbl.create 16 in
  let col_of = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
    | Some _ -> x
    | None ->
        Hashtbl.replace parent x x;
        x
  in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then Hashtbl.replace parent rx ry
  in
  List.iter
    (fun c ->
      match c with
      | Cmp (Eq, ColRef a, ColRef b) ->
          Hashtbl.replace col_of a.Col.id a;
          Hashtbl.replace col_of b.Col.id b;
          union a.Col.id b.Col.id
      | _ -> ())
    conjs;
  (* normalize parents *)
  let roots = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace roots k (find k)) parent;
  (roots, col_of)
