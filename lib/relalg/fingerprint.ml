(* Structural plan fingerprint: an id-insensitive name for a plan.

   Column ids are numbered by first occurrence, so two trees that differ
   only in fresh column identities (rules and clones mint fresh ids)
   share a fingerprint.  Everything else is rendered exactly: the
   columns of scans and segment holes (by position and type),
   constant-table rows, and every literal — floats in hexadecimal, so
   distinct values never collide.  The plan search deduplicates
   alternatives on it and the CSE store names shared subplans by it. *)

open Algebra

let of_op (o : op) : string =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let ids : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let col (c : Col.t) =
    let n =
      match Hashtbl.find_opt ids c.id with
      | Some n -> n
      | None ->
          let n = Hashtbl.length ids in
          Hashtbl.add ids c.id n;
          n
    in
    Buffer.add_char buf '#';
    add (string_of_int n);
    Buffer.add_char buf ':';
    add (Value.ty_name c.ty)
  in
  let value (v : Value.t) =
    add
      (match v with
      | Value.Null -> "null"
      | Value.Int n -> "i" ^ string_of_int n
      | Value.Float f -> Printf.sprintf "f%h" f
      | Value.Str s -> Printf.sprintf "s%S" s
      | Value.Bool b -> if b then "bt" else "bf"
      | Value.Date d -> "d" ^ string_of_int d)
  in
  let rec expr (e : expr) =
    match e with
    | ColRef c -> col c
    | Const v -> value v
    | Arith (o, a, b) ->
        add
          ("("
          ^ (match o with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%")
          ^ " ");
        expr a;
        add " ";
        expr b;
        add ")"
    | Cmp (o, a, b) ->
        add
          ("("
          ^ (match o with
            | Eq -> "="
            | Ne -> "<>"
            | Lt -> "<"
            | Le -> "<="
            | Gt -> ">"
            | Ge -> ">=")
          ^ " ");
        expr a;
        add " ";
        expr b;
        add ")"
    | And (a, b) ->
        add "(and ";
        expr a;
        add " ";
        expr b;
        add ")"
    | Or (a, b) ->
        add "(or ";
        expr a;
        add " ";
        expr b;
        add ")"
    | Not a ->
        add "(not ";
        expr a;
        add ")"
    | IsNull a ->
        add "(isnull ";
        expr a;
        add ")"
    | Like (a, p) ->
        add "(like ";
        expr a;
        add (Printf.sprintf " %S)" p)
    | Case (branches, els) ->
        add "(case";
        List.iter
          (fun (c, v) ->
            add " [";
            expr c;
            add " ";
            expr v;
            add "]")
          branches;
        (match els with
        | Some e ->
            add " else ";
            expr e
        | None -> ());
        add ")"
    | Subquery o ->
        add "(sub ";
        walk o;
        add ")"
    | Exists o ->
        add "(exists ";
        walk o;
        add ")"
    | InSub (a, o) ->
        add "(in ";
        expr a;
        add " ";
        walk o;
        add ")"
    | QuantCmp (c, q, a, o) ->
        add
          (Printf.sprintf "(quant%s%s "
             (match c with
             | Eq -> "="
             | Ne -> "<>"
             | Lt -> "<"
             | Le -> "<="
             | Gt -> ">"
             | Ge -> ">=")
             (match q with Any -> "any" | All -> "all"));
        expr a;
        add " ";
        walk o;
        add ")"
  and agg (a : agg) =
    add
      ("("
      ^ (match a.fn with
        | CountStar -> "count*"
        | Count _ -> "count"
        | Sum _ -> "sum"
        | Min _ -> "min"
        | Max _ -> "max"
        | Avg _ -> "avg")
      ^ " ");
    (match agg_input_expr a.fn with Some e -> expr e | None -> ());
    add "->";
    col a.out;
    add ")"
  and cols cs = List.iter col cs
  and walk (o : op) =
    match o with
    | TableScan { table; cols = cs } ->
        add ("(scan:" ^ table ^ " ");
        cols cs;
        add ")"
    | ConstTable { cols = cs; rows } ->
        add "(const ";
        cols cs;
        List.iter
          (fun r ->
            add "[";
            Array.iter value r;
            add "]")
          rows;
        add ")"
    | CseScan { id; cols = cs; _ } ->
        add ("(cse:" ^ id ^ " ");
        cols cs;
        add ")"
    | SegmentHole { cols = cs; src } ->
        add "(hole ";
        cols cs;
        add "<-";
        cols src;
        add ")"
    | Select (p, i) ->
        add "(select ";
        expr p;
        add " ";
        walk i;
        add ")"
    | Project (ps, i) ->
        add "(project";
        List.iter
          (fun p ->
            add " ";
            expr p.expr;
            add "->";
            col p.out)
          ps;
        add " ";
        walk i;
        add ")"
    | Join { kind; pred; left; right } ->
        add ("(join:" ^ join_kind_name kind ^ " ");
        expr pred;
        add " ";
        walk left;
        add " ";
        walk right;
        add ")"
    | Apply { kind; pred; left; right } ->
        add ("(apply:" ^ join_kind_name kind ^ " ");
        expr pred;
        add " ";
        walk left;
        add " ";
        walk right;
        add ")"
    | SegmentApply { seg_cols; outer; inner } ->
        add "(segapply ";
        cols seg_cols;
        add " ";
        walk outer;
        add " ";
        walk inner;
        add ")"
    | GroupBy { keys; aggs; input } ->
        add "(groupby ";
        cols keys;
        List.iter agg aggs;
        add " ";
        walk input;
        add ")"
    | LocalGroupBy { keys; aggs; input } ->
        add "(localgroupby ";
        cols keys;
        List.iter agg aggs;
        add " ";
        walk input;
        add ")"
    | ScalarAgg { aggs; input } ->
        add "(scalaragg ";
        List.iter agg aggs;
        add " ";
        walk input;
        add ")"
    | UnionAll (l, r) ->
        add "(unionall ";
        walk l;
        add " ";
        walk r;
        add ")"
    | Except (l, r) ->
        add "(except ";
        walk l;
        add " ";
        walk r;
        add ")"
    | Max1row i ->
        add "(max1row ";
        walk i;
        add ")"
    | Rownum { out; input } ->
        add "(rownum ";
        col out;
        add " ";
        walk input;
        add ")"
  in
  walk o;
  Buffer.contents buf
