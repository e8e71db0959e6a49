(* Structural plan fingerprint: an id-insensitive name for a plan.

   Column ids are numbered by first occurrence, so two trees that differ
   only in fresh column identities (rules and clones mint fresh ids)
   share a fingerprint.  Everything else is rendered exactly: the
   columns of scans and segment holes (by position and type),
   constant-table rows, and every literal — floats in hexadecimal, so
   distinct values never collide.  The plan search deduplicates
   alternatives on it and the CSE store names shared subplans by it. *)

open Algebra

(* [string_of_int n] written straight into [buf]: no format parsing and
   no temporary string.  Digits are taken from the non-positive side so
   that [min_int], which has no positive counterpart, needs no case. *)
let add_int buf n =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

(* What [Printf]'s ["%h"] prints, without parsing a format. *)
external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

(* [Printf]'s ["%S"]: the OCaml literal of [s]. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

(* First-occurrence numbers of column ids: an open-addressing table
   over two arrays, cheaper than a [Hashtbl] for the few dozen ids of
   one plan.  A slot whose number is negative is free. *)
type numbering = { mutable keys : int array; mutable nums : int array; mutable count : int }

let numbering () = { keys = Array.make 64 0; nums = Array.make 64 (-1); count = 0 }

(* the slot holding [id], or the free slot where it belongs *)
let rec slot t id i =
  if t.nums.(i) < 0 || t.keys.(i) = id then i
  else slot t id ((i + 1) land (Array.length t.keys - 1))

let grow t =
  let old = { t with count = t.count } in
  t.keys <- Array.make (2 * Array.length old.keys) 0;
  t.nums <- Array.make (Array.length t.keys) (-1);
  Array.iteri
    (fun i n ->
      if n >= 0 then begin
        let k = old.keys.(i) in
        let j = slot t k (k land (Array.length t.keys - 1)) in
        t.keys.(j) <- k;
        t.nums.(j) <- n
      end)
    old.nums

(* the number of [id]: how many distinct ids were numbered before it *)
let number t id =
  let i = slot t id (id land (Array.length t.keys - 1)) in
  if t.nums.(i) >= 0 then t.nums.(i)
  else begin
    let n = t.count in
    t.keys.(i) <- id;
    t.nums.(i) <- n;
    t.count <- n + 1;
    if 2 * t.count > Array.length t.keys then grow t;
    n
  end

let cmp_name = function Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let of_op (o : op) : string =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let chr = Buffer.add_char buf in
  let ids = numbering () in
  let col (c : Col.t) =
    chr '#';
    add_int buf (number ids c.id);
    chr ':';
    add (Value.ty_name c.ty)
  in
  let value (v : Value.t) =
    match v with
    | Value.Null -> add "null"
    | Value.Int n ->
        chr 'i';
        add_int buf n
    | Value.Float f ->
        chr 'f';
        add (hexstring_of_float f (-6) '-')
    | Value.Str s ->
        chr 's';
        add_quoted buf s
    | Value.Bool b -> add (if b then "bt" else "bf")
    | Value.Date d ->
        chr 'd';
        add_int buf d
  in
  (* "(name " — the opening of every composite form *)
  let opn name =
    chr '(';
    add name;
    chr ' '
  in
  let rec expr (e : expr) =
    match e with
    | ColRef c -> col c
    | Const v -> value v
    | Arith (o, a, b) ->
        opn (match o with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%");
        expr a;
        chr ' ';
        expr b;
        chr ')'
    | Cmp (o, a, b) ->
        opn (cmp_name o);
        expr a;
        chr ' ';
        expr b;
        chr ')'
    | And (a, b) ->
        add "(and ";
        expr a;
        chr ' ';
        expr b;
        chr ')'
    | Or (a, b) ->
        add "(or ";
        expr a;
        chr ' ';
        expr b;
        chr ')'
    | Not a ->
        add "(not ";
        expr a;
        chr ')'
    | IsNull a ->
        add "(isnull ";
        expr a;
        chr ')'
    | Like (a, p) ->
        add "(like ";
        expr a;
        chr ' ';
        add_quoted buf p;
        chr ')'
    | Case (branches, els) ->
        add "(case";
        List.iter
          (fun (c, v) ->
            add " [";
            expr c;
            chr ' ';
            expr v;
            chr ']')
          branches;
        (match els with
        | Some e ->
            add " else ";
            expr e
        | None -> ());
        chr ')'
    | Subquery o ->
        add "(sub ";
        walk o;
        chr ')'
    | Exists o ->
        add "(exists ";
        walk o;
        chr ')'
    | InSub (a, o) ->
        add "(in ";
        expr a;
        chr ' ';
        walk o;
        chr ')'
    | QuantCmp (c, q, a, o) ->
        add "(quant";
        add (cmp_name c);
        add (match q with Any -> "any " | All -> "all ");
        expr a;
        chr ' ';
        walk o;
        chr ')'
  and agg (a : agg) =
    opn
      (match a.fn with
      | CountStar -> "count*"
      | Count _ -> "count"
      | Sum _ -> "sum"
      | Min _ -> "min"
      | Max _ -> "max"
      | Avg _ -> "avg");
    (match agg_input_expr a.fn with Some e -> expr e | None -> ());
    add "->";
    col a.out;
    chr ')'
  and cols cs = List.iter col cs
  and walk (o : op) =
    match o with
    | TableScan { table; cols = cs } ->
        add "(scan:";
        add table;
        chr ' ';
        cols cs;
        chr ')'
    | ConstTable { cols = cs; rows } ->
        add "(const ";
        cols cs;
        List.iter
          (fun r ->
            chr '[';
            Array.iter value r;
            chr ']')
          rows;
        chr ')'
    | CseScan { id; cols = cs; _ } ->
        add "(cse:";
        add id;
        chr ' ';
        cols cs;
        chr ')'
    | SegmentHole { cols = cs; src } ->
        add "(hole ";
        cols cs;
        add "<-";
        cols src;
        chr ')'
    | Select (p, i) ->
        add "(select ";
        expr p;
        chr ' ';
        walk i;
        chr ')'
    | Project (ps, i) ->
        add "(project";
        List.iter
          (fun p ->
            chr ' ';
            expr p.expr;
            add "->";
            col p.out)
          ps;
        chr ' ';
        walk i;
        chr ')'
    | Join { kind; pred; left; right } ->
        add "(join:";
        add (join_kind_name kind);
        chr ' ';
        expr pred;
        chr ' ';
        walk left;
        chr ' ';
        walk right;
        chr ')'
    | Apply { kind; pred; left; right } ->
        add "(apply:";
        add (join_kind_name kind);
        chr ' ';
        expr pred;
        chr ' ';
        walk left;
        chr ' ';
        walk right;
        chr ')'
    | SegmentApply { seg_cols; outer; inner } ->
        add "(segapply ";
        cols seg_cols;
        chr ' ';
        walk outer;
        chr ' ';
        walk inner;
        chr ')'
    | GroupBy { keys; aggs; input } ->
        add "(groupby ";
        cols keys;
        List.iter agg aggs;
        chr ' ';
        walk input;
        chr ')'
    | LocalGroupBy { keys; aggs; input } ->
        add "(localgroupby ";
        cols keys;
        List.iter agg aggs;
        chr ' ';
        walk input;
        chr ')'
    | ScalarAgg { aggs; input } ->
        add "(scalaragg ";
        List.iter agg aggs;
        chr ' ';
        walk input;
        chr ')'
    | UnionAll (l, r) ->
        add "(unionall ";
        walk l;
        chr ' ';
        walk r;
        chr ')'
    | Except (l, r) ->
        add "(except ";
        walk l;
        chr ' ';
        walk r;
        chr ')'
    | Max1row i ->
        add "(max1row ";
        walk i;
        chr ')'
    | Rownum { out; input } ->
        add "(rownum ";
        col out;
        chr ' ';
        walk input;
        chr ')'
  in
  walk o;
  Buffer.contents buf
