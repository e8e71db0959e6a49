(* Host-speed reference kernel.

   The benchmark shares its host with other tenants, and a fixed CPU
   loop on such a host can take twice as long from one minute to the
   next.  The kernel is a fixed amount of work whose time tracks the
   host's speed for the kind of work the program does: short-lived
   OCaml allocation (small lists, strings, a sort, a hash table), like
   the planner, and dependent random reads over a 64 MiB Bigarray,
   like the executor walking columns and hash tables larger than the
   CPU caches.  The benchmark runs it between operations, never beside
   one, and scales every time it reports by nominal ÷ measured kernel
   time.

   Every allocation the kernel makes dies young, and no collection runs
   while it is timed (see [run]), so the size of the program's heap
   cannot change the kernel's time; [promoted_words] in each sample
   checks that. *)

(* Kernel time on a quiet host; any constant works, this one keeps
   normalised times close to raw ones on the machine it was tuned on. *)
let nominal_s = 0.0080

let arena_words = 8 * 1024 * 1024 (* 64 MiB of 8-byte ints *)
let mask = arena_words - 1

let arena =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout arena_words in
     for i = 0 to arena_words - 1 do
       a.{i} <- (i * 0x9E3779B1) land mask
     done;
     a)

let rounds = 400
let reads_per_round = 5

let work () : int =
  let a = Lazy.force arena in
  let acc = ref 0 in
  for round = 1 to rounds do
    let xs = List.init 16 (fun i -> ((i * 7919) + (round * 104729)) land 4095) in
    let xs = List.sort compare xs in
    let h = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace h (string_of_int x) x) xs;
    Hashtbl.iter (fun k v -> acc := !acc + Hashtbl.hash k + v) h;
    List.iter (fun x -> acc := !acc + Hashtbl.find h (string_of_int x)) xs;
    let x = ref ((!acc * round) land mask) in
    for _ = 1 to reads_per_round do
      x := (a.{!x} + round) land mask
    done;
    acc := !acc + !x
  done;
  !acc

type sample = { seconds : float; promoted_words : float; allocated_words : float }

let sink = ref 0

(* One timed half on the calling domain, whose minor heap is empty. *)
let half () : sample =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  sink := !sink + work ();
  let t1 = Clock.now () in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  { seconds = t1 -. t0;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    allocated_words = w1 -. w0;
  }

let add a b =
  { seconds = a.seconds +. b.seconds;
    promoted_words = a.promoted_words +. b.promoted_words;
    allocated_words = a.allocated_words +. b.allocated_words;
  }

let zero = { seconds = 0.; promoted_words = 0.; allocated_words = 0. }

(* One sample is [halves] halves, each started after a minor collection
   and small enough (about 195k words, under the default 256k-word
   minor heap) to finish without one, so no major-GC work the program
   left pending runs inside the timing. *)
let halves = 2

let run () : sample =
  ignore (Lazy.force arena);
  let total = ref zero in
  for _ = 1 to halves do
    Gc.minor ();
    total := add !total (half ())
  done;
  !total
