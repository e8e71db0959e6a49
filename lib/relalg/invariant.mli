(** Broken internal invariants.

    A module below the engine that finds one of its own invariants
    broken raises {!Broken} naming it; the engine's error vocabulary
    ([Engine.Errors]) classifies it as a typed planning error instead of
    letting an [assert] escape. *)

exception Broken of string

(** [broken what] raises {!Broken}: [what] names the invariant. *)
val broken : string -> 'a
