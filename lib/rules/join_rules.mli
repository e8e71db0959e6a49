(** Column-equality closure over a conjunct list: the edges of the join
    graph the optimizer's join enumerator isolates
    ([Optimizer.Join_order]), so that from l = p and p = l2 a join of l
    with l2 finds its equality too. *)

open Relalg
open Relalg.Algebra

(** Union-find over the column equalities of a conjunct list: a map
    from column id to class representative, and a witness column per
    class member. *)
val equality_classes : expr list -> (int, int) Hashtbl.t * (int, Col.t) Hashtbl.t
