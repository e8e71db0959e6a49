(* The catalog: table definitions, primary keys, declared indexes.

   TPC-H imposes strict limits on indexing (the paper leans on this in
   Section 5); we declare the TPC-H-legal indexes: primary keys plus
   foreign-key single-column indexes. *)

type column = {
  col_name : string;
  col_ty : Relalg.Value.ty;
  col_nullable : bool;  (** true when the column may contain NULL *)
}

(* column constructor; columns are NOT NULL unless said otherwise *)
let col ?(nullable = false) col_name col_ty = { col_name; col_ty; col_nullable = nullable }

type table = {
  name : string;
  columns : column list;
  primary_key : string list;
  indexes : string list list;  (** each entry: the column(s) of one index *)
}

type t = { tables : (string, table) Hashtbl.t }

let create () = { tables = Hashtbl.create 16 }

let add_table t table = Hashtbl.replace t.tables table.name table

let find_table t name = Hashtbl.find_opt t.tables name

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare

(* property environment for Relalg.Fd *)
let props_env (t : t) : Relalg.Props.env =
  { table_key =
      (fun name ->
        match find_table t name with Some tb -> tb.primary_key | None -> []);
    table_nullable =
      (fun name ->
        match find_table t name with
        | Some tb ->
            List.filter_map
              (fun c -> if c.col_nullable then Some c.col_name else None)
              tb.columns
        | None -> []);
  }

let has_index (t : t) table col =
  match find_table t table with
  | None -> false
  | Some def ->
      List.exists (function [ c ] -> c = col | _ -> false) def.indexes
      || def.primary_key = [ col ]

let column_ty table cname =
  match List.find_opt (fun c -> c.col_name = cname) table.columns with
  | Some c -> Some c.col_ty
  | None -> None

(* ------------------------------------------------------------------ *)
(* TPC-H schema (the subset of columns our workloads touch, which is   *)
(* most of them).                                                      *)
(* ------------------------------------------------------------------ *)

let tpch () : t =
  let open Relalg.Value in
  let c n ty = col n ty in
  let cat = create () in
  add_table cat
    { name = "region";
      columns = [ c "r_regionkey" TInt; c "r_name" TStr; c "r_comment" TStr ];
      primary_key = [ "r_regionkey" ];
      indexes = []
    };
  add_table cat
    { name = "nation";
      columns =
        [ c "n_nationkey" TInt; c "n_name" TStr; c "n_regionkey" TInt; c "n_comment" TStr ];
      primary_key = [ "n_nationkey" ];
      indexes = [ [ "n_regionkey" ] ]
    };
  add_table cat
    { name = "supplier";
      columns =
        [ c "s_suppkey" TInt;
          c "s_name" TStr;
          c "s_address" TStr;
          c "s_nationkey" TInt;
          c "s_phone" TStr;
          c "s_acctbal" TFloat;
          c "s_comment" TStr
        ];
      primary_key = [ "s_suppkey" ];
      indexes = [ [ "s_nationkey" ] ]
    };
  add_table cat
    { name = "customer";
      columns =
        [ c "c_custkey" TInt;
          c "c_name" TStr;
          c "c_address" TStr;
          c "c_nationkey" TInt;
          c "c_phone" TStr;
          c "c_acctbal" TFloat;
          c "c_mktsegment" TStr
        ];
      primary_key = [ "c_custkey" ];
      indexes = [ [ "c_nationkey" ] ]
    };
  add_table cat
    { name = "part";
      columns =
        [ c "p_partkey" TInt;
          c "p_name" TStr;
          c "p_mfgr" TStr;
          c "p_brand" TStr;
          c "p_type" TStr;
          c "p_size" TInt;
          c "p_container" TStr;
          c "p_retailprice" TFloat
        ];
      primary_key = [ "p_partkey" ];
      indexes = []
    };
  add_table cat
    { name = "partsupp";
      columns =
        [ c "ps_partkey" TInt;
          c "ps_suppkey" TInt;
          c "ps_availqty" TInt;
          c "ps_supplycost" TFloat
        ];
      primary_key = [ "ps_partkey"; "ps_suppkey" ];
      indexes = [ [ "ps_partkey" ]; [ "ps_suppkey" ] ]
    };
  add_table cat
    { name = "orders";
      columns =
        [ c "o_orderkey" TInt;
          c "o_custkey" TInt;
          c "o_orderstatus" TStr;
          c "o_totalprice" TFloat;
          c "o_orderdate" TDate;
          c "o_orderpriority" TStr
        ];
      primary_key = [ "o_orderkey" ];
      indexes = [ [ "o_custkey" ] ]
    };
  add_table cat
    { name = "lineitem";
      columns =
        [ c "l_orderkey" TInt;
          c "l_partkey" TInt;
          c "l_suppkey" TInt;
          c "l_linenumber" TInt;
          c "l_quantity" TFloat;
          c "l_extendedprice" TFloat;
          c "l_discount" TFloat;
          c "l_tax" TFloat;
          c "l_returnflag" TStr;
          c "l_shipdate" TDate
        ];
      primary_key = [ "l_orderkey"; "l_linenumber" ];
      indexes = [ [ "l_orderkey" ]; [ "l_partkey" ]; [ "l_suppkey" ] ]
    };
  cat
