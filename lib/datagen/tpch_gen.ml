(* A scaled-down, deterministic TPC-H data generator.

   Cardinalities follow the TPC-H ratios (per scale factor SF):
     region 5, nation 25, supplier 10000*SF, customer 150000*SF,
     part 200000*SF, partsupp 4 per part, orders 10 per customer,
     lineitem 1-7 per order.

   Value distributions follow the dbgen shapes that matter to the
   reproduced queries: p_brand "Brand#MN", p_container from the official
   container list, p_size 1..50, p_type from the official type grammar
   (so '%BRASS' is selective), l_quantity 1..50, ps_supplycost
   1..1000, o_totalprice as a plausible aggregate.  Text fields are
   synthetic but carry the key, which keeps rows distinguishable in
   tests. *)

module Value = Relalg.Value

let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nations =
  [| ("ALGERIA", 0); ("ARGENTINA", 1); ("BRAZIL", 1); ("CANADA", 1); ("EGYPT", 4);
     ("ETHIOPIA", 0); ("FRANCE", 3); ("GERMANY", 3); ("INDIA", 2); ("INDONESIA", 2);
     ("IRAN", 4); ("IRAQ", 4); ("JAPAN", 2); ("JORDAN", 4); ("KENYA", 0);
     ("MOROCCO", 0); ("MOZAMBIQUE", 0); ("PERU", 1); ("CHINA", 2); ("ROMANIA", 3);
     ("SAUDI ARABIA", 4); ("VIETNAM", 2); ("RUSSIA", 3); ("UNITED KINGDOM", 3);
     ("UNITED STATES", 1)
  |]

let containers =
  [| "SM CASE"; "SM BOX"; "SM PACK"; "SM PKG"; "MED BAG"; "MED BOX"; "MED PKG";
     "MED PACK"; "LG CASE"; "LG BOX"; "LG PACK"; "LG PKG"; "JUMBO BAG"; "JUMBO BOX";
     "JUMBO PACK"; "JUMBO PKG"; "WRAP CASE"; "WRAP BOX"; "WRAP PACK"; "WRAP PKG"
  |]

let type_syllable_1 = [| "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" |]
let type_syllable_2 = [| "ANODIZED"; "BURNISHED"; "PLATED"; "POLISHED"; "BRUSHED" |]
let type_syllable_3 = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]
let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

type sizes = {
  suppliers : int;
  customers : int;
  parts : int;
  orders : int; (* total *)
}

let sizes_of_sf sf =
  let s base = max 1 (int_of_float (float_of_int base *. sf)) in
  let z =
    { suppliers = s 10_000 / 10;  (* /10: keep laptop-scale runs snappy *)
      customers = s 150_000 / 10;
      parts = s 200_000 / 10;
      orders = s 1_500_000 / 10
    }
  in
  if z.suppliers = 0 then
    invalid_arg (Printf.sprintf "TPC-H scale factor %g gives no suppliers (use 0.001 or more)" sf);
  z

(* The suppliers of part [pk] are [1 + (pk + o) mod suppliers] for each
   offset [o]: dbgen's four spread ones, [j * (suppliers / 4 + 1)],
   where they are distinct modulo [suppliers], else the first
   [min 4 suppliers], so that (ps_partkey, ps_suppkey) stays a key. *)
let supplier_offsets (z : sizes) : int array =
  let spread = List.init 4 (fun j -> j * ((z.suppliers / 4) + 1)) in
  if List.length (List.sort_uniq compare (List.map (fun o -> o mod z.suppliers) spread)) = 4
  then Array.of_list spread
  else Array.init (min 4 z.suppliers) Fun.id

(* exposed for tests *)
let expected_rows sf =
  let z = sizes_of_sf sf in
  [ ("region", 5); ("nation", 25); ("supplier", z.suppliers); ("customer", z.customers);
    ("part", z.parts); ("partsupp", z.parts * Array.length (supplier_offsets z));
    ("orders", z.orders) ]

let money rng lo hi = Value.Float (Float.round (Prng.float rng lo hi *. 100.) /. 100.)

let generate ?(seed = 42) ~sf (db : Storage.Database.t) : unit =
  let rng = Prng.create seed in
  let z = sizes_of_sf sf in
  let offsets = supplier_offsets z in
  let supplier pk j = 1 + ((pk + offsets.(j)) mod z.suppliers) in
  let open Value in
  (* region *)
  Storage.Table.load
    (Storage.Database.table db "region")
    (List.init (Array.length regions) (fun i ->
         [| Int i; Str regions.(i); Str ("region comment " ^ string_of_int i) |]));
  (* nation *)
  Storage.Table.load
    (Storage.Database.table db "nation")
    (List.init (Array.length nations) (fun i ->
         let name, rk = nations.(i) in
         [| Int i; Str name; Int rk; Str ("nation comment " ^ string_of_int i) |]));
  (* supplier *)
  Storage.Table.load
    (Storage.Database.table db "supplier")
    (List.init z.suppliers (fun i ->
         let k = i + 1 in
         [| Int k;
            Str (Printf.sprintf "Supplier#%09d" k);
            Str (Printf.sprintf "addr-s%d" k);
            Int (Prng.int rng (Array.length nations));
            Str (Printf.sprintf "%02d-%07d" (10 + Prng.int rng 25) (Prng.int rng 10_000_000));
            money rng (-999.99) 9999.99;
            Str (Printf.sprintf "supplier comment %d" k)
         |]));
  (* customer *)
  Storage.Table.load
    (Storage.Database.table db "customer")
    (List.init z.customers (fun i ->
         let k = i + 1 in
         [| Int k;
            Str (Printf.sprintf "Customer#%09d" k);
            Str (Printf.sprintf "addr-c%d" k);
            Int (Prng.int rng (Array.length nations));
            Str (Printf.sprintf "%02d-%07d" (10 + Prng.int rng 25) (Prng.int rng 10_000_000));
            money rng (-999.99) 9999.99;
            Str (Prng.pick rng segments)
         |]));
  (* part *)
  Storage.Table.load
    (Storage.Database.table db "part")
    (List.init z.parts (fun i ->
         let k = i + 1 in
         let brand =
           Printf.sprintf "Brand#%d%d" (1 + Prng.int rng 5) (1 + Prng.int rng 5)
         in
         let ty =
           Printf.sprintf "%s %s %s" (Prng.pick rng type_syllable_1)
             (Prng.pick rng type_syllable_2) (Prng.pick rng type_syllable_3)
         in
         [| Int k;
            Str (Printf.sprintf "part name %d" k);
            Str (Printf.sprintf "Manufacturer#%d" (1 + Prng.int rng 5));
            Str brand;
            Str ty;
            Int (1 + Prng.int rng 50);
            Str (Prng.pick rng containers);
            Float (900. +. (float_of_int (k mod 1000) /. 10.))
         |]));
  (* partsupp: 4 suppliers per part (fewer below 4 suppliers) *)
  let partsupp =
    List.concat
      (List.init z.parts (fun i ->
           let pk = i + 1 in
           List.init (Array.length offsets) (fun j ->
               [| Int pk; Int (supplier pk j); Int (1 + Prng.int rng 9999); money rng 1.0 1000.0 |])))
  in
  Storage.Table.load (Storage.Database.table db "partsupp") partsupp;
  (* orders + lineitem *)
  let date0 = Value.date_of_ymd 1992 1 1 in
  let orders = ref [] and lineitems = ref [] in
  for i = z.orders downto 1 do
    let ok = i in
    let ck = 1 + Prng.int rng z.customers in
    let odate = date0 + Prng.int rng 2400 in
    let nlines = 1 + Prng.int rng 7 in
    let total = ref 0.0 in
    for ln = 1 to nlines do
      let pk = 1 + Prng.int rng z.parts in
      (* pick one of the suppliers of that part, as dbgen does *)
      let sk = supplier pk (Prng.int rng (Array.length offsets)) in
      let qty = float_of_int (1 + Prng.int rng 50) in
      let price = Float.round (qty *. Prng.float rng 90. 1100.) /. 1. in
      total := !total +. price;
      lineitems :=
        [| Int ok; Int pk; Int sk; Int ln; Float qty; Float price;
           Float (Float.round (Prng.float rng 0. 0.10 *. 100.) /. 100.);
           Float (Float.round (Prng.float rng 0. 0.08 *. 100.) /. 100.);
           Str (Prng.pick rng [| "R"; "A"; "N" |]);
           Date (odate + Prng.int rng 120)
        |]
        :: !lineitems
    done;
    orders :=
      [| Int ok; Int ck;
         Str (Prng.pick rng [| "O"; "F"; "P" |]);
         Float !total; Date odate; Str (Prng.pick rng priorities)
      |]
      :: !orders
  done;
  Storage.Table.load (Storage.Database.table db "orders") !orders;
  Storage.Table.load (Storage.Database.table db "lineitem") !lineitems;
  Storage.Database.build_declared_indexes db

(* Convenience: a fresh TPC-H database at scale factor [sf]. *)
let database ?seed ~sf () : Storage.Database.t =
  let db = Storage.Database.create (Catalog.tpch ()) in
  generate ?seed ~sf db;
  db
