(* Durability layer: codec round-trips, CRC vectors, WAL tail
   classification, snapshot corruption rejection (including a
   checked-in corpus of doctored files), durable-store recovery, and
   the stale-index / quadratic-append regressions. *)

open Relalg
module Checksum = Storage.Checksum
module Codec = Storage.Codec
module Wal = Storage.Wal
module Snapshot = Storage.Snapshot
module Durable = Storage.Durable
module Io = Storage.Io_faults
module Table = Storage.Table
module Database = Storage.Database

(* --- scratch-directory and byte-surgery helpers ----------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "sqstore-test-%d-%d" (Unix.getpid ()) !n)
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

let with_dir (f : string -> unit) : unit =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* copy of [path] with the byte at [off] xor'ed with 0x01 *)
let flipped (s : string) (off : int) : string =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
  Bytes.to_string b

let expect_corrupt what (f : unit -> 'a) : unit =
  match f () with
  | exception Codec.Storage_corrupt _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Storage_corrupt")

let env () = Io.env ()

(* --- checksum ---------------------------------------------------------- *)

(* the CRC-32 (IEEE 802.3) check vector, plus chaining *)
let test_crc_vector () =
  Alcotest.(check int) "crc(123456789)" 0xCBF43926 (Checksum.of_string "123456789");
  Alcotest.(check int) "crc(empty)" 0 (Checksum.of_string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Checksum.of_string s in
  let half = Checksum.string s ~pos:0 ~len:20 in
  let chained = Checksum.string ~init:half s ~pos:20 ~len:(String.length s - 20) in
  Alcotest.(check int) "chained regions" whole chained;
  Alcotest.(check bool) "flip changes crc" true
    (Checksum.of_string (flipped s 7) <> whole)

(* --- codec ------------------------------------------------------------- *)

(* NaN payloads and -0.0 must survive, so floats compare by bit pattern *)
let value_bits_equal (a : Value.t) (b : Value.t) : bool =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Stdlib.compare a b = 0

let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [ (1, return Value.Null);
      (3, map (fun i -> Value.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]));
      ( 3,
        map
          (fun f -> Value.Float f)
          (oneof [ float; oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 4e-320 ] ]) );
      (3, map (fun s -> Value.Str s) (string_size ~gen:char (0 -- 12)));
      (1, map (fun b -> Value.Bool b) bool);
      (2, map (fun d -> Value.Date d) (-800_000 -- 800_000))
    ]

let prop_codec_row_roundtrip =
  QCheck.Test.make ~name:"codec row round-trip (all variants, bit-exact)" ~count:500
    (QCheck.make
       ~print:(fun vs -> String.concat "," (List.map Value.to_string vs))
       (QCheck.Gen.list_size QCheck.Gen.(0 -- 8) value_gen))
    (fun vs ->
      let row = Array.of_list vs in
      let b = Buffer.create 64 in
      Codec.add_row b row;
      let cur = Codec.cursor (Buffer.contents b) in
      let row' = Codec.get_row cur in
      Codec.remaining cur = 0
      && Array.length row = Array.length row'
      && Array.for_all2 value_bits_equal row row')

let test_codec_edge_values () =
  let tricky =
    [| Value.Null; Value.Int min_int; Value.Int max_int; Value.Float (-0.0);
       Value.Float nan; Value.Str ""; Value.Str "a\000b\255"; Value.Bool false;
       Value.Date (-719162)
    |]
  in
  let b = Buffer.create 64 in
  Codec.add_row b tricky;
  let cur = Codec.cursor (Buffer.contents b) in
  let back = Codec.get_row cur in
  Alcotest.(check bool) "bit-exact round-trip" true (Array.for_all2 value_bits_equal tricky back);
  (match back.(3) with
  | Value.Float z -> Alcotest.(check bool) "-0.0 keeps its sign" true (1.0 /. z = neg_infinity)
  | _ -> Alcotest.fail "expected a float back");
  (* truncation and unknown tags raise the typed error, never Invalid_argument *)
  let enc =
    let b = Buffer.create 16 in
    Codec.add_value b (Value.Str "hello");
    Buffer.contents b
  in
  expect_corrupt "truncated value" (fun () ->
      Codec.get_value (Codec.cursor (String.sub enc 0 (String.length enc - 1))));
  expect_corrupt "unknown tag" (fun () -> Codec.get_value (Codec.cursor "\009"));
  expect_corrupt "empty input" (fun () -> Codec.get_value (Codec.cursor ""))

(* --- WAL --------------------------------------------------------------- *)

let sample_rows =
  [ [| Value.Int 1; Value.Str "ann" |]; [| Value.Int 2; Value.Str "bob" |] ]

(* write a 3-record log and return (path, byte offset after each record) *)
let write_sample_wal (dir : string) : string * int array =
  let path = Filename.concat dir "wal-test.log" in
  let w = Wal.create (env ()) ~path ~epoch:0 ~next_seq:1 in
  let sizes = ref [] in
  let note () = sizes := (Unix.stat path).Unix.st_size :: !sizes in
  ignore (Wal.append w ~gen:1 (Wal.Load ("emp", sample_rows)));
  note ();
  ignore (Wal.append w ~gen:2 (Wal.Append ("emp", [| Value.Int 3; Value.Str "cid" |])));
  note ();
  ignore (Wal.append w ~gen:3 (Wal.Append ("emp", [| Value.Int 4; Value.Str "dan" |])));
  note ();
  Wal.close w;
  (path, Array.of_list (List.rev !sizes))

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path, _ = write_sample_wal dir in
      let log = Wal.read path in
      Alcotest.(check int) "epoch" 0 log.Wal.log_epoch;
      Alcotest.(check int) "start seq" 1 log.Wal.log_start_seq;
      Alcotest.(check (list int)) "dense seqs" [ 1; 2; 3 ]
        (List.map (fun e -> e.Wal.seq) log.Wal.log_entries);
      Alcotest.(check (list int)) "generation tags" [ 1; 2; 3 ]
        (List.map (fun e -> e.Wal.gen) log.Wal.log_entries);
      Alcotest.(check bool) "clean tail" true (log.Wal.log_tail = Wal.Clean);
      match (List.hd log.Wal.log_entries).Wal.op with
      | Wal.Load ("emp", rows) ->
          Support.check_same_bag "load payload" sample_rows rows
      | _ -> Alcotest.fail "expected a Load record first")

let test_wal_torn_tail () =
  with_dir (fun dir ->
      let path, after = write_sample_wal dir in
      (* a crashed append: only part of record 3 reached the disk *)
      Unix.truncate path (after.(1) + 7);
      let log = Wal.read path in
      Alcotest.(check int) "surviving records" 2 (List.length log.Wal.log_entries);
      Alcotest.(check bool) "tail torn at record 3's start" true
        (log.Wal.log_tail = Wal.Torn after.(1)))

let test_wal_midlog_corrupt () =
  with_dir (fun dir ->
      let path, after = write_sample_wal dir in
      (* corrupt record 1's payload: acknowledged records follow, so
         truncating would lose acked data — must refuse, not resync *)
      write_file path (flipped (read_file path) (after.(0) - 1));
      expect_corrupt "mid-log corruption" (fun () -> Wal.read path))

let test_wal_bitflip_final_record () =
  with_dir (fun dir ->
      let path, after = write_sample_wal dir in
      (* a bit flip in the final record is indistinguishable from a torn
         append (documented ambiguity): classified Torn, not corrupt *)
      write_file path (flipped (read_file path) (after.(2) - 1));
      let log = Wal.read path in
      Alcotest.(check int) "surviving records" 2 (List.length log.Wal.log_entries);
      Alcotest.(check bool) "final record truncated as torn" true
        (log.Wal.log_tail = Wal.Torn after.(1)))

let test_wal_bad_header () =
  with_dir (fun dir ->
      let path, _ = write_sample_wal dir in
      write_file path (flipped (read_file path) 3);
      expect_corrupt "flipped header magic" (fun () -> Wal.read path))

(* --- snapshots --------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      let db = Support.toy_db () in
      let path = Snapshot.write (env ()) ~dir ~epoch:3 db in
      Alcotest.(check string) "named by epoch" (Snapshot.snapshot_name 3)
        (Filename.basename path);
      let epoch, states = Snapshot.read (Support.toy_catalog ()) path in
      Alcotest.(check int) "epoch" 3 epoch;
      Alcotest.(check int) "all tables present" 3 (List.length states);
      List.iter
        (fun (st : Snapshot.table_state) ->
          let tb = Database.table db st.Snapshot.ts_name in
          Alcotest.(check int)
            (st.Snapshot.ts_name ^ " generation")
            (Table.generation tb) st.Snapshot.ts_generation;
          Support.check_same_bag
            (st.Snapshot.ts_name ^ " rows")
            (Table.to_rows tb)
            (Array.to_list st.Snapshot.ts_rows))
        states)

(* every single-byte flip anywhere in the file must be caught: the page
   CRCs, section/header CRCs and the whole-file footer CRC leave no
   unprotected byte *)
let test_snapshot_every_byte_flip_rejected () =
  with_dir (fun dir ->
      let db = Support.toy_db () in
      let path = Snapshot.write (env ()) ~dir ~epoch:1 db in
      let cat = Support.toy_catalog () in
      let original = read_file path in
      let doctored = Filename.concat dir "doctored.snap" in
      for off = 0 to String.length original - 1 do
        write_file doctored (flipped original off);
        expect_corrupt
          (Printf.sprintf "flip at byte %d/%d" off (String.length original))
          (fun () -> Snapshot.read cat doctored)
      done)

let test_snapshot_truncation_and_garbage () =
  with_dir (fun dir ->
      let db = Support.toy_db () in
      let path = Snapshot.write (env ()) ~dir ~epoch:1 db in
      let cat = Support.toy_catalog () in
      let original = read_file path in
      let n = String.length original in
      let case name s =
        let p = Filename.concat dir "case.snap" in
        write_file p s;
        expect_corrupt name (fun () -> Snapshot.read cat p)
      in
      case "empty file" "";
      case "truncated header" (String.sub original 0 11);
      case "half the file" (String.sub original 0 (n / 2));
      case "missing footer byte" (String.sub original 0 (n - 1));
      case "trailing garbage" (original ^ "extra");
      case "wrong magic" ("XXSNAP01" ^ String.sub original 8 (n - 8)))

(* the checked-in corpus of doctored snapshots (test/corpus, generated
   by corpus_main.ml): the valid one parses, every sibling is rejected *)
let test_snapshot_corpus () =
  let dir = "corpus" in
  let cat = Catalog.tpch () in
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".snap")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is present" true (List.length entries >= 6);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      if f = "valid.snap" then begin
        let epoch, states = Snapshot.read cat path in
        Alcotest.(check int) "valid.snap epoch" 7 epoch;
        let nation =
          List.find (fun s -> s.Snapshot.ts_name = "nation") states
        in
        Alcotest.(check int) "valid.snap nation rows" 3
          (Array.length nation.Snapshot.ts_rows)
      end
      else expect_corrupt f (fun () -> Snapshot.read cat path))
    entries

(* --- durable store ----------------------------------------------------- *)

let emp_rows =
  [ [| Value.Int 1; Value.Str "ann"; Value.Int 1; Value.Float 100. |];
    [| Value.Int 2; Value.Str "bob"; Value.Int 1; Value.Float 200. |];
    [| Value.Int 3; Value.Str "cid"; Value.Int 2; Value.Float 300. |]
  ]

let emp_row eid dept =
  [| Value.Int eid; Value.Str (Printf.sprintf "e%d" eid); Value.Int dept;
     Value.Float (float_of_int (100 * eid))
  |]

let emp_state (st : Durable.t) = Table.to_rows (Database.table (Durable.db st) "emp")

let test_durable_reopen_preserves_state () =
  with_dir (fun dir ->
      let cat = Support.toy_catalog () in
      let st = Durable.open_db ~dir cat in
      let r = Durable.recovery_info st in
      Alcotest.(check bool) "fresh dir starts empty" true
        (r.Durable.rec_snapshot_epoch = None && r.Durable.rec_wal_recreated);
      Durable.load st "emp" emp_rows;
      Durable.load st "dept"
        [ [| Value.Int 1; Value.Str "eng" |]; [| Value.Int 2; Value.Str "ops" |] ];
      Durable.append st "emp" (emp_row 4 2);
      Alcotest.(check int) "mutations journaled" 3 (Durable.mutations st);
      let before = emp_state st in
      let gen_before = Table.generation (Database.table (Durable.db st) "emp") in
      Durable.close st;
      let st2 = Durable.open_db ~dir cat in
      let r2 = Durable.recovery_info st2 in
      Alcotest.(check int) "all mutations replayed" 3 r2.Durable.rec_entries_replayed;
      Alcotest.(check (list (list string))) "rows survive in order"
        (List.map (Array.to_list) (List.map (Array.map Value.to_string) before))
        (List.map (Array.to_list) (List.map (Array.map Value.to_string) (emp_state st2)));
      let tb2 = Database.table (Durable.db st2) "emp" in
      Alcotest.(check int) "generation survives" gen_before (Table.generation tb2);
      (* declared indexes were rebuilt and see the appended row *)
      (match Table.find_index tb2 "dept" with
      | None -> Alcotest.fail "declared index missing after recovery"
      | Some ix ->
          Support.check_same_bag "index sees replayed append"
            [ [| Value.Int 3; Value.Str "cid"; Value.Int 2; Value.Float 300. |];
              emp_row 4 2
            ]
            (Table.index_lookup ix tb2 (Value.Int 2)));
      (* the store keeps accepting acknowledged work after recovery *)
      Durable.append st2 "emp" (emp_row 5 1);
      Alcotest.(check int) "rows after post-recovery append" 5
        (Table.row_count tb2);
      Durable.close st2)

let test_durable_rotation_prunes () =
  with_dir (fun dir ->
      let cat = Support.toy_catalog () in
      let st = Durable.open_db ~dir cat in
      Durable.load st "emp" emp_rows;
      Alcotest.(check int) "first rotation" 1 (Durable.rotate st);
      Durable.append st "emp" (emp_row 4 2);
      Alcotest.(check int) "second rotation" 2 (Durable.rotate st);
      Durable.append st "emp" (emp_row 5 2);
      Alcotest.(check int) "third rotation" 3 (Durable.rotate st);
      Alcotest.(check int) "snapshots taken" 3 (Durable.snapshots_taken st);
      Durable.close st;
      (* epochs older than the previous pair are pruned; the previous
         pair is retained as the doctored-snapshot fallback *)
      Alcotest.(check (list int)) "snapshots on disk" [ 2; 3 ] (Snapshot.list_epochs ~dir);
      let st2 = Durable.open_db ~dir cat in
      Alcotest.(check bool) "recovered from newest snapshot" true
        ((Durable.recovery_info st2).Durable.rec_snapshot_epoch = Some 3);
      Alcotest.(check int) "full state back" 5
        (Table.row_count (Database.table (Durable.db st2) "emp"));
      Durable.close st2)

let test_durable_doctored_snapshot_fallback () =
  with_dir (fun dir ->
      let cat = Support.toy_catalog () in
      let st = Durable.open_db ~dir cat in
      Durable.load st "emp" emp_rows;
      ignore (Durable.rotate st);
      Durable.append st "emp" (emp_row 4 2);
      ignore (Durable.rotate st);
      let before = emp_state st in
      Durable.close st;
      (* doctor the newest snapshot; recovery must reject it and rebuild
         the exact same state from epoch 1 plus its WAL *)
      let newest = Snapshot.snapshot_path ~dir 2 in
      write_file newest (flipped (read_file newest) (String.length (read_file newest) / 2));
      let st2 = Durable.open_db ~dir cat in
      let r = Durable.recovery_info st2 in
      Alcotest.(check bool) "fell back to epoch 1" true
        (r.Durable.rec_snapshot_epoch = Some 1);
      Alcotest.(check int) "newest snapshot rejected" 2
        (fst (List.hd r.Durable.rec_snapshots_rejected));
      Support.check_same_bag "state identical to pre-doctoring" before (emp_state st2);
      Durable.close st2)

(* --- table regressions ------------------------------------------------- *)

(* stale-index regression: an existing hash index must see appended
   rows without an explicit rebuild *)
let test_index_maintained_on_append () =
  let db = Support.toy_db () in
  let tb = Database.table db "emp" in
  let ix = Option.get (Table.find_index tb "dept") in
  Support.check_same_bag "before append"
    [ [| Value.Int 3; Value.Str "cid"; Value.Int 2; Value.Float 300. |] ]
    (Table.index_lookup ix tb (Value.Int 2));
  Table.append tb (emp_row 9 2);
  Support.check_same_bag "append is visible through the index"
    [ [| Value.Int 3; Value.Str "cid"; Value.Int 2; Value.Float 300. |]; emp_row 9 2 ]
    (Table.index_lookup ix tb (Value.Int 2));
  (* a key introduced by the append alone *)
  Table.append tb (emp_row 10 77);
  Support.check_same_bag "fresh key via append" [ emp_row 10 77 ]
    (Table.index_lookup ix tb (Value.Int 77));
  (* full reload drops indexes (they would be stale wholesale) *)
  Table.load tb emp_rows;
  Alcotest.(check bool) "load drops indexes" true (Table.find_index tb "dept" = None)

(* capacity-doubling: heavy appends stay amortized O(N) and no derived
   view ever reads past the logical row count *)
let test_append_capacity_and_views () =
  let cat = Support.toy_catalog () in
  let tb = Table.create (Option.get (Catalog.find_table cat "bag")) in
  let n = 5000 in
  for i = 0 to n - 1 do
    Table.append tb [| Value.Int (i mod 37); Value.Int i |]
  done;
  Alcotest.(check int) "row count" n (Table.row_count tb);
  Alcotest.(check int) "to_rows bounded" n (List.length (Table.to_rows tb));
  let rows, live = Table.rows_view tb in
  Alcotest.(check bool) "backing array over-allocates" true (Array.length rows >= live);
  Alcotest.(check int) "view count" n live;
  Alcotest.(check bool) "last logical row is real" true
    (rows.(live - 1).(1) = Value.Int (n - 1));
  let cols = Table.columns tb in
  Alcotest.(check int) "column height" n (Storage.Column.length cols.(0));
  Alcotest.(check int) "ndv sees only live rows" 37 (Table.distinct_count tb "x")

(* snapshot → reload → derived state: columnar cache, NDV and the
   mutation generation all cohere with the recovered rows *)
let test_derived_state_coherent_after_recovery () =
  with_dir (fun dir ->
      let cat = Support.toy_catalog () in
      let st = Durable.open_db ~dir cat in
      Durable.load st "emp" emp_rows;
      Durable.append st "emp" (emp_row 4 2);
      let tb = Database.table (Durable.db st) "emp" in
      let cols_before = Table.columns tb in
      let ndv_before = Table.distinct_count tb "dept" in
      let gen_before = Table.generation tb in
      ignore (Durable.rotate st);
      Durable.close st;
      let st2 = Durable.open_db ~dir cat in
      let tb2 = Database.table (Durable.db st2) "emp" in
      Alcotest.(check int) "generation restored" gen_before (Table.generation tb2);
      Alcotest.(check int) "ndv recomputed identically" ndv_before
        (Table.distinct_count tb2 "dept");
      let cols_after = Table.columns tb2 in
      let rendered col =
        List.init (Storage.Column.length col) (fun i ->
            Value.to_string (Storage.Column.get col i))
      in
      Array.iteri
        (fun c col ->
          Alcotest.(check (list string))
            (Printf.sprintf "column %d identical" c)
            (rendered col) (rendered cols_after.(c)))
        cols_before;
      (* the restored generation keeps the WAL's continuity check happy *)
      Durable.append st2 "emp" (emp_row 6 1);
      Alcotest.(check int) "generation advances from the restored point"
        (gen_before + 1)
        (Table.generation tb2);
      Durable.close st2)

let suite =
  [ Alcotest.test_case "crc-32 check vector and chaining" `Quick test_crc_vector;
    Support.qtest prop_codec_row_roundtrip;
    Alcotest.test_case "codec edge values and typed corruption" `Quick test_codec_edge_values;
    Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail truncates" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal mid-log corruption refuses" `Quick test_wal_midlog_corrupt;
    Alcotest.test_case "wal bit flip in final record is torn" `Quick
      test_wal_bitflip_final_record;
    Alcotest.test_case "wal bad header refuses" `Quick test_wal_bad_header;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: every byte flip rejected" `Slow
      test_snapshot_every_byte_flip_rejected;
    Alcotest.test_case "snapshot truncation and trailing garbage" `Quick
      test_snapshot_truncation_and_garbage;
    Alcotest.test_case "doctored snapshot corpus" `Quick test_snapshot_corpus;
    Alcotest.test_case "durable reopen preserves state" `Quick
      test_durable_reopen_preserves_state;
    Alcotest.test_case "durable rotation prunes old epochs" `Quick
      test_durable_rotation_prunes;
    Alcotest.test_case "doctored newest snapshot falls back" `Quick
      test_durable_doctored_snapshot_fallback;
    Alcotest.test_case "append maintains existing indexes" `Quick
      test_index_maintained_on_append;
    Alcotest.test_case "append capacity and derived views" `Quick
      test_append_capacity_and_views;
    Alcotest.test_case "derived state coheres after recovery" `Quick
      test_derived_state_coherent_after_recovery
  ]
