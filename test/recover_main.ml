(* Crash-recovery chaos harness, run by `dune build @recover` (or
   `make recover-smoke`).

   A scripted writer journals a deterministic mutation sequence — the
   eight TPC-H table loads, then marker-row appends with two snapshot
   rotations in between — through the fault-injectable I/O layer.  The
   sweep kills the writer at *every* I/O operation under each fault
   kind (short write, torn write, bit flip, lying fsync), simulates
   the post-crash filesystem, reopens the store with honest I/O, and
   checks the recovery contract:

     the recovered database equals the row-level oracle applied to
     exactly a committed prefix of the mutation sequence — verified by
     bag-comparing all eight benchmark workloads — and the prefix
     length sits in the fault kind's acknowledgment window:

       short/torn write : exactly the acknowledged mutations (an acked
                          mutation was fsync'd; the crashed one never
                          acked)
       fsync lie        : acked or acked-1 (the lied-to mutation was
                          acknowledged but never durable)
       bit flip         : silent corruption; recovery either restores
                          all-or-all-but-the-final mutation (flip in
                          the final WAL record is truncated as a torn
                          tail) or refuses with the typed
                          [Storage_corrupt] — never a wrong bag.

   Exit status 0 iff every (kind, crash point) run satisfies the
   contract. *)

module Io = Storage.Io_faults
module Durable = Storage.Durable
module Table = Storage.Table
module Database = Storage.Database
module Codec = Storage.Codec
module Value = Relalg.Value

let sf = 0.002
let marker_base = 10_000_000

type mutation =
  | Load of string * Value.t array list
  | Append of string * Value.t array

type step = Mut of mutation | Rotate

let catalog = Catalog.tpch ()

let load_order =
  [ "region"; "nation"; "supplier"; "customer"; "part"; "partsupp"; "orders";
    "lineitem"
  ]

let base_rows : (string * Value.t array list) list =
  let db = Datagen.Tpch_gen.database ~sf () in
  List.map (fun t -> (t, Table.to_rows (Database.table db t))) load_order

(* marker orders are big enough to move the lattice / big-orders
   workloads, so a lost or phantom append shows up in the bags *)
let marker_row i =
  [| Value.Int (marker_base + i); Value.Int (((i - 1) mod 30) + 1); Value.Str "F";
     Value.Float (600_000. +. (1000. *. float_of_int i)); Value.Date 9000;
     Value.Str "1-URGENT"
  |]

let script : step list =
  List.map (fun (t, rows) -> Mut (Load (t, rows))) base_rows
  @ [ Mut (Append ("orders", marker_row 1));
      Mut (Append ("orders", marker_row 2));
      Rotate;
      Mut (Append ("orders", marker_row 3));
      Mut (Append ("orders", marker_row 4));
      Rotate;
      Mut (Append ("orders", marker_row 5));
      Mut (Append ("orders", marker_row 6))
    ]

let mutations_only =
  List.filter_map (function Mut m -> Some m | Rotate -> None) script

let total_mutations = List.length mutations_only

(* ---------------- filesystem scratch ------------------------------- *)

let base_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sq-recover-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf (path : string) : unit =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------------- oracle ------------------------------------------- *)

let query_bags (db : Database.t) : (string * string list) list =
  let eng = Engine.create db in
  List.map
    (fun (name, sql) ->
      let res : Exec.Executor.result = Engine.query eng sql in
      (name, Engine.bag res.Exec.Executor.rows))
    Workloads.all_named

(* workload bags after applying exactly the first [k] mutations *)
let oracle_cache = Array.make (total_mutations + 1) None

let oracle (k : int) : (string * string list) list =
  match oracle_cache.(k) with
  | Some o -> o
  | None ->
      let db = Database.create catalog in
      List.iteri
        (fun i m ->
          if i < k then
            match m with
            | Load (t, rows) -> Table.load (Database.table db t) rows
            | Append (t, row) -> Table.append (Database.table db t) row)
        mutations_only;
      Database.build_declared_indexes db;
      let o = query_bags db in
      oracle_cache.(k) <- Some o;
      o

(* ---------------- one sweep point ---------------------------------- *)

let failures = ref 0

let fail_msg fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

(* run the scripted writer under [env]; returns mutations acknowledged
   before the (possible) crash, with post-crash semantics applied *)
let run_writer (env : Io.env) (dir : string) : int =
  let acked = ref 0 in
  (try
     let st = Durable.open_db ~env ~dir catalog in
     List.iter
       (fun step ->
         match step with
         | Mut (Load (t, rows)) ->
             Durable.load st t rows;
             incr acked
         | Mut (Append (t, row)) ->
             Durable.append st t row;
             incr acked
         | Rotate -> ignore (Durable.rotate st))
       script;
     Durable.close st
   with Io.Crash _ -> ());
  Io.crash_cleanup env;
  !acked

(* Infer which prefix the recovered database holds: loads applied (the
   load order is fixed, so non-empty tables must form a prefix of it)
   plus marker appends (which must be the markers 1..m, in order). *)
let infer_prefix ~(label : string) (db : Database.t) : int option =
  let counts =
    List.map (fun t -> Table.row_count (Database.table db t)) load_order
  in
  let loaded = List.length (List.filter (fun c -> c > 0) counts) in
  let prefix_ok =
    List.for_all2
      (fun i c -> (c > 0) = (i < loaded))
      (List.init (List.length counts) Fun.id)
      counts
  in
  if not prefix_ok then begin
    fail_msg "%s: loaded tables are not a prefix of the load order [%s]" label
      (String.concat ";" (List.map string_of_int counts));
    None
  end
  else
    let markers =
      if loaded < List.length load_order then []
      else
        Table.to_rows (Database.table db "orders")
        |> List.filter_map (fun r ->
               match r.(0) with
               | Value.Int k when k >= marker_base -> Some (k - marker_base)
               | _ -> None)
    in
    let m = List.length markers in
    if markers <> List.init m (fun i -> i + 1) then begin
      fail_msg "%s: marker appends are not the contiguous prefix [%s]" label
        (String.concat ";" (List.map string_of_int markers));
      None
    end
    else if loaded < List.length load_order && m > 0 then begin
      fail_msg "%s: appends present but loads incomplete" label;
      None
    end
    else Some (loaded + m)

type outcome = Recovered of int | Refused

(* reopen with honest I/O and verify the recovery contract *)
let check_run ~(label : string) (kind : Io.kind) ~(acked : int) (dir : string) :
    outcome =
  match Durable.open_db ~dir catalog with
  | exception Codec.Storage_corrupt msg ->
      (* only silent media corruption may make recovery refuse; every
         crash-shaped fault must recover *)
      if kind <> Io.Bit_flip then
        fail_msg "%s: recovery refused after a crash fault (%s)" label msg;
      Refused
  | st ->
      let db = Durable.db st in
      (match infer_prefix ~label db with
      | None -> ()
      | Some k ->
          let window_ok =
            match kind with
            | Io.Short_write | Io.Torn_write -> k = acked
            | Io.Fsync_lie -> k = acked || k = acked - 1
            | Io.Bit_flip -> k = acked || k = acked - 1
          in
          if not window_ok then
            fail_msg "%s: recovered prefix %d outside the %s window (acked %d)"
              label k (Io.kind_to_string kind) acked
          else begin
            let expect = oracle k in
            let got = query_bags db in
            List.iter2
              (fun (name, want) (_, have) ->
                if want <> have then
                  fail_msg "%s: workload %s bag mismatch at prefix %d (%d vs %d rows)"
                    label name k (List.length have) (List.length want))
              expect got
          end);
      Durable.close st;
      Recovered (Table.row_count (Database.table db "orders"))

(* ---------------- driver ------------------------------------------- *)

let () =
  let t0 = Unix.gettimeofday () in
  (* dry run: count the I/O ops of a clean pass and sanity-check it *)
  let dry_dir = Filename.concat base_dir "dry" in
  let denv = Io.env () in
  let dry_acked = run_writer denv dry_dir in
  let total_ops = Io.op_count denv in
  assert (dry_acked = total_mutations);
  (match check_run ~label:"dry-run" Io.Short_write ~acked:total_mutations dry_dir with
  | Recovered _ -> ()
  | Refused -> fail_msg "dry-run: clean store refused to open");
  rm_rf dry_dir;
  Printf.printf
    "recover sweep: SF %.3f, %d mutations (%d rotations), %d I/O ops per pass\n%!"
    sf total_mutations
    (List.length (List.filter (fun s -> s = Rotate) script))
    total_ops;
  let kinds = [ Io.Short_write; Io.Torn_write; Io.Bit_flip; Io.Fsync_lie ] in
  List.iter
    (fun kind ->
      let refused = ref 0 in
      let kmin = ref max_int and kmax = ref (-1) and recovered = ref 0 in
      for op = 1 to total_ops do
        let dir =
          Filename.concat base_dir
            (Printf.sprintf "%s-%d" (Io.kind_to_string kind) op)
        in
        let env = Io.env ~spec:{ Io.kind; at_op = op; seed = (op * 7919) + 13 } () in
        let acked = run_writer env dir in
        let label = Printf.sprintf "%s@op%d" (Io.kind_to_string kind) op in
        (match check_run ~label kind ~acked dir with
        | Refused -> incr refused
        | Recovered _ ->
            incr recovered;
            kmin := min !kmin acked;
            kmax := max !kmax acked);
        rm_rf dir
      done;
      Printf.printf
        "%-12s %3d crash points: %3d recovered (acked window %d..%d), %d refused\n%!"
        (Io.kind_to_string kind) total_ops !recovered
        (if !recovered = 0 then 0 else !kmin)
        !kmax !refused)
    kinds;
  rm_rf base_dir;
  let dt = Unix.gettimeofday () -. t0 in
  if !failures = 0 then
    Printf.printf "recover-smoke PASS: %d crash points x %d kinds in %.1fs\n"
      total_ops (List.length kinds) dt
  else begin
    Printf.printf "recover-smoke: %d FAILURES in %.1fs\n" !failures dt;
    exit 1
  end
