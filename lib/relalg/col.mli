(** Column identities.

    Every column produced anywhere in a query carries a globally unique
    integer id, assigned at creation (bind time for base-table
    occurrences, rewrite time for manufactured columns).  Rewrites
    reference columns only through ids, making the decorrelation
    identities immune to name capture: two scans of the same table have
    disjoint ids, and cloning a subtree re-instantiates ids through an
    explicit substitution. *)

type t = { id : int; name : string; ty : Value.ty }

(** Reset the global id counter — tests only, so expected plans print
    with stable ids. *)
val reset_counter : unit -> unit

val fresh : string -> Value.ty -> t

(** Same name and type, fresh id. *)
val clone : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** Sets of columns ordered by id: [Stdlib.Set]'s balanced trees and
    semantics, with the id comparison inlined. *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val singleton : elt -> t
  val add : elt -> t -> t
  val remove : elt -> t -> t
  val mem : elt -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val disjoint : t -> t -> bool

  (** Lexicographic over the ascending elements, as [Stdlib.Set.S.compare]. *)
  val compare : t -> t -> int

  val equal : t -> t -> bool
  val cardinal : t -> int

  (** Ascending. *)
  val elements : t -> elt list

  val iter : (elt -> unit) -> t -> unit
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val for_all : (elt -> bool) -> t -> bool
  val exists : (elt -> bool) -> t -> bool
  val filter : (elt -> bool) -> t -> t

  (** The smallest element. *)
  val choose_opt : t -> elt option

  val of_list : elt list -> t
end

module Map : Stdlib.Map.S with type key = t

(** Hash tables keyed by the integer column id. *)
module IdTbl : Hashtbl.S with type key = int

(** Maps keyed by the integer column id. *)
module IdMap : sig
  type key = int
  type 'a t

  val empty : 'a t
  val is_empty : 'a t -> bool
  val singleton : key -> 'a -> 'a t

  (** Replaces an existing binding. *)
  val add : key -> 'a -> 'a t -> 'a t

  val find : key -> 'a t -> 'a
  val find_opt : key -> 'a t -> 'a option
  val mem : key -> 'a t -> bool

  (** As [Stdlib.Map.S.union]. *)
  val union : (key -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t

  val filter : (key -> 'a -> bool) -> 'a t -> 'a t

  (** In increasing key order. *)
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

val set_of_list : t list -> Set.t
val names_of : Set.t -> string list

(** The equivalence classes of the pairs' reflexive-transitive closure,
    over the columns the pairs name: disjoint, ordered by their
    smallest member.  A pair [(x, x)] makes the one-member class
    [{x}]. *)
val classes : (t * t) list -> Set.t list
