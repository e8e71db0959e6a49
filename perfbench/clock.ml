(* Monotonic wall clock in seconds. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
