(* Canonical parameterized form of a parsed query — the plan cache's
   key.

   [analyze] serializes a query with (a) every literal in a
   value-liftable position replaced by a typed placeholder ?Nt, and
   (b) every table/derived-table alias renamed to a1, a2, ... in
   syntactic order.  Two queries that differ only in those literals or
   in alias spelling therefore share a key, and a cached plan for one
   can serve the other after rebinding the literals.

   What lifts: EInt/EFloat/EStr/EDate in SELECT items, WHERE, HAVING
   and join ON conditions (recursively through subqueries and derived
   tables).  What does NOT lift: booleans and NULL (their value changes
   the plan shape through constant folding far too often to be worth a
   slot), LIKE patterns (compiled into the plan, not a Const), and
   literals under GROUP BY / ORDER BY / LIMIT (they select columns or
   bound the cursor; rebinding them would change bound structure, not a
   Const in the plan).  Non-lifted literals serialize into the key
   verbatim and are reported in [opaque] so the engine can refuse
   sentinel values that collide with them.

   [with_literals] substitutes a fresh literal vector along the exact
   same traversal, which is how the engine builds the sentinel template
   (distinct recognizable values per slot) and how the fuzzer perturbs
   a query while preserving its canonical form. *)

open Sqlfront

type lit = LInt of int | LFloat of float | LStr of string | LDate of string

type analysis = {
  key : string;  (** canonical form; equal keys = same parameterized query *)
  literals : lit list;  (** lifted literals, in traversal order *)
  opaque : lit list;
      (** literals kept verbatim in the key (ORDER BY, GROUP BY);
          sentinels must not collide with these values *)
}

let lit_tag = function LInt _ -> "i" | LFloat _ -> "f" | LStr _ -> "s" | LDate _ -> "d"

let arith_name (o : Relalg.Algebra.arithop) =
  match o with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"

let cmp_name (o : Relalg.Algebra.cmpop) =
  match o with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

exception Arity of int * int
(** [with_literals] received a vector whose length differs from the
    query's slot count — a caller bug, not a user error. *)

let expr_of_lit = function
  | LInt n -> Ast.EInt n
  | LFloat f -> Ast.EFloat f
  | LStr s -> Ast.EStr s
  | LDate s -> Ast.EDate s

(* The one traversal behind [analyze] and [with_literals], in clause
   order — FROM (with ON conditions and derived queries inline),
   SELECT, WHERE, GROUP BY, HAVING, UNION ALL blocks, ORDER BY, LIMIT:
   it serializes [q] into [buf] and rebuilds it, each literal replaced
   by [lit ~lift l] ([lift]: whether its position lifts), so slot i of
   the key is slot i of the literal vector. *)
let walk (buf : Buffer.t) (lit : lift:bool -> lit -> Ast.expr) (q : Ast.query) : Ast.query =
  let add = Buffer.add_string buf in
  let nalias = ref 0 in
  let fresh_alias () =
    incr nalias;
    Printf.sprintf "a%d" !nalias
  in
  (* [env]: alias scopes, innermost first.  An unresolvable qualifier
     serializes raw (prefixed to stay distinct from canonical names):
     stability under renaming is lost for that query but keys stay
     collision-free. *)
  let resolve (env : (string * string) list list) (a : string) : string =
    let rec go = function
      | [] -> "'" ^ a
      | s :: rest -> ( match List.assoc_opt a s with Some c -> c | None -> go rest)
    in
    go env
  in
  let rec expr env ~lift:l (e : Ast.expr) : Ast.expr =
    let sub = expr env ~lift:l in
    (* "(label a b ...)", operands rebuilt left to right *)
    let app label es =
      add ("(" ^ label);
      let es =
        List.map
          (fun e ->
            add " ";
            sub e)
          es
      in
      add ")";
      es
    in
    let subquery label a q =
      add ("(" ^ label ^ " ");
      let a =
        Option.map
          (fun a ->
            let a = sub a in
            add " ";
            a)
          a
      in
      let q = query env q in
      add ")";
      (a, q)
    in
    match e with
    | Ast.EInt n -> lit ~lift:l (LInt n)
    | Ast.EFloat f -> lit ~lift:l (LFloat f)
    | Ast.EStr s -> lit ~lift:l (LStr s)
    | Ast.EDate s -> lit ~lift:l (LDate s)
    | Ast.EBool b ->
        add (if b then "true" else "false");
        e
    | Ast.ENull ->
        add "null";
        e
    | Ast.ECol (None, n) ->
        add ("col:" ^ n);
        e
    | Ast.ECol (Some q, n) ->
        add (Printf.sprintf "col:%s.%s" (resolve env q) n);
        e
    | Ast.EArith (o, a, b) -> (
        match app (arith_name o) [ a; b ] with [ a; b ] -> Ast.EArith (o, a, b) | _ -> e)
    | Ast.ENeg a -> ( match app "neg" [ a ] with [ a ] -> Ast.ENeg a | _ -> e)
    | Ast.ECmp (o, a, b) -> (
        match app (cmp_name o) [ a; b ] with [ a; b ] -> Ast.ECmp (o, a, b) | _ -> e)
    | Ast.EAnd (a, b) -> ( match app "and" [ a; b ] with [ a; b ] -> Ast.EAnd (a, b) | _ -> e)
    | Ast.EOr (a, b) -> ( match app "or" [ a; b ] with [ a; b ] -> Ast.EOr (a, b) | _ -> e)
    | Ast.ENot a -> ( match app "not" [ a ] with [ a ] -> Ast.ENot a | _ -> e)
    | Ast.EIsNull (neg, a) -> (
        match app (if neg then "isnotnull" else "isnull") [ a ] with
        | [ a ] -> Ast.EIsNull (neg, a)
        | _ -> e)
    | Ast.EBetween (neg, a, lo, hi) -> (
        match app (if neg then "notbetween" else "between") [ a; lo; hi ] with
        | [ a; lo; hi ] -> Ast.EBetween (neg, a, lo, hi)
        | _ -> e)
    | Ast.ELike (neg, a, pat) ->
        add (if neg then "(notlike " else "(like ");
        let a = sub a in
        add (Printf.sprintf " %S)" pat);
        Ast.ELike (neg, a, pat)
    | Ast.EInList (neg, a, es) -> (
        match app (if neg then "notin" else "in") (a :: es) with
        | a :: es -> Ast.EInList (neg, a, es)
        | [] -> e)
    | Ast.EInSub (neg, a, q) -> (
        match subquery (if neg then "notinsub" else "insub") (Some a) q with
        | Some a, q -> Ast.EInSub (neg, a, q)
        | None, _ -> e)
    | Ast.EExists q -> Ast.EExists (snd (subquery "exists" None q))
    | Ast.EScalarSub q -> Ast.EScalarSub (snd (subquery "scalar" None q))
    | Ast.EQuant (o, qu, a, q) -> (
        let label =
          cmp_name o ^ match qu with Relalg.Algebra.Any -> "any" | Relalg.Algebra.All -> "all"
        in
        match subquery label (Some a) q with
        | Some a, q -> Ast.EQuant (o, qu, a, q)
        | None, _ -> e)
    | Ast.ECase (branches, els) ->
        add "(case";
        let branches =
          List.map
            (fun (c, v) ->
              add " [";
              let c = sub c in
              add " ";
              let v = sub v in
              add "]";
              (c, v))
            branches
        in
        let els =
          Option.map
            (fun e ->
              add " else ";
              sub e)
            els
        in
        add ")";
        Ast.ECase (branches, els)
    | Ast.EAgg (name, distinct, arg) ->
        add (Printf.sprintf "(agg:%s%s" name (if distinct then ":d" else ""));
        let arg =
          match arg with
          | Some a ->
              add " ";
              Some (sub a)
          | None ->
              add " *";
              None
        in
        add ")";
        Ast.EAgg (name, distinct, arg)
  (* Serializes the item, extends the block scope.  ON conditions see
     the aliases accumulated so far plus the outer environment, exactly
     like SQL name resolution. *)
  and table_ref env (scope, trs) tr =
    match tr with
    | Ast.TTable (t, alias) ->
        let canon = fresh_alias () in
        add (Printf.sprintf "(t:%s=%s)" t canon);
        ((Option.value alias ~default:t, canon) :: scope, tr :: trs)
    | Ast.TDerived (q, alias) ->
        let canon = fresh_alias () in
        add "(d:";
        let q = query env q in
        add ("=" ^ canon ^ ")");
        ((alias, canon) :: scope, Ast.TDerived (q, alias) :: trs)
    | Ast.TJoin (l, jt, r, on) -> (
        add (match jt with Ast.JInner -> "(join " | Ast.JLeft -> "(leftjoin ");
        match table_ref env (table_ref env (scope, []) l) r with
        | scope, [ r; l ] ->
            add " on ";
            let on = expr (scope :: env) ~lift:true on in
            add ")";
            (scope, Ast.TJoin (l, jt, r, on) :: trs)
        | scope, _ -> (scope, tr :: trs))
  and query env (q : Ast.query) : Ast.query =
    add "{from:";
    let scope, from = List.fold_left (table_ref env) ([], []) q.from in
    let env' = scope :: env in
    add ";select:";
    if q.distinct then add "distinct ";
    let select =
      List.map
        (function
          | Ast.SStar ->
              add "*;";
              Ast.SStar
          | Ast.SExpr (e, alias) ->
              let e = expr env' ~lift:true e in
              (match alias with Some a -> add (Printf.sprintf "=%S" a) | None -> ());
              add ";";
              Ast.SExpr (e, alias))
        q.select
    in
    let clause label e =
      Option.map
        (fun e ->
          add label;
          expr env' ~lift:true e)
        e
    in
    let where = clause ";where:" q.where in
    if q.group_by <> [] then add ";group:";
    let group_by =
      List.map
        (fun e ->
          let e = expr env' ~lift:false e in
          add ";";
          e)
        q.group_by
    in
    let having = clause ";having:" q.having in
    let union_all =
      List.map
        (fun uq ->
          add ";union:";
          query env uq)
        q.union_all
    in
    if q.order_by <> [] then add ";order:";
    let order_by =
      List.map
        (fun (e, desc) ->
          let e = expr env' ~lift:false e in
          add (if desc then " desc;" else " asc;");
          (e, desc))
        q.order_by
    in
    (match q.limit with Some n -> add (Printf.sprintf ";limit:%d" n) | None -> ());
    add "}";
    { q with from = List.rev from; select; where; group_by; having; union_all; order_by }
  in
  query [] q

let analyze (q : Ast.query) : analysis =
  let buf = Buffer.create 256 in
  let literals = ref [] and opaque = ref [] and nslot = ref 0 in
  let lit ~lift l =
    if lift then begin
      Buffer.add_string buf (Printf.sprintf "?%d%s" !nslot (lit_tag l));
      incr nslot;
      literals := l :: !literals
    end
    else begin
      opaque := l :: !opaque;
      Buffer.add_string buf
        (match l with
        | LInt n -> string_of_int n
        | LFloat f -> Printf.sprintf "%h" f
        | LStr s -> Printf.sprintf "%S" s
        | LDate s -> Printf.sprintf "date%S" s)
    end;
    expr_of_lit l
  in
  ignore (walk buf lit q);
  { key = Buffer.contents buf; literals = List.rev !literals; opaque = List.rev !opaque }

let with_literals (q : Ast.query) (ls : lit list) : Ast.query =
  let arr = Array.of_list ls in
  let i = ref 0 in
  let lit ~lift l =
    if not lift then expr_of_lit l
    else begin
      if !i >= Array.length arr then raise (Arity (Array.length arr, !i + 1));
      incr i;
      expr_of_lit arr.(!i - 1)
    end
  in
  let q' = walk (Buffer.create 256) lit q in
  if !i <> Array.length arr then raise (Arity (Array.length arr, !i));
  q'

(* --- literal order abstraction and sentinels ----------------------- *)

(* The optimizer reasons about literal VALUES, not just positions:
   [Props.bounds_unsat] proves [x < c1 AND x >= c2] empty when
   c1 <= c2, constant folding compares literals to literals, and the
   property rewrites then exploit the resulting cardinality facts to
   change plan shape.  A template compiled with arbitrary sentinel
   values would bake such value-dependent conclusions into the cached
   plan and serve them to literal vectors for which they do not hold.

   The defence is two-sided and exact for literal-vs-literal
   reasoning:

   - sentinels are assigned by RANK, not by slot: within each
     comparison class (numerics: ints and floats together, SQL-style;
     strings; dates) the distinct literal values are sorted, ties
     share a rank, and the sentinel grid realizes exactly that order
     and equality pattern.  Every comparison the optimizer can make
     between two sentinel constants therefore has the same outcome as
     between the two real constants;

   - [order_pattern] serializes that rank vector, and the engine makes
     it part of the cache key, so a template is only ever rebound to a
     literal vector with the SAME pairwise-comparison structure.

   The one relation the grid cannot realize is an int slot numerically
   equal to a float slot (the int sentinel sits strictly below the
   float sentinel of the same rank); [mixed_numeric_tie] detects this
   and the engine falls back to exact-key caching for such queries.

   Grid values sit far outside any realistic literal range, and below
   2^52 so the float grid (int grid + 0.5) is exactly representable. *)

let grid_base = 4_000_000_000_000_000
let grid_step = 1_000_003

let num_val = function
  | LInt n -> float_of_int n
  | LFloat f -> f
  | _ -> invalid_arg "num_val"

(* SQL-style numeric order with ints strictly before floats on a tie:
   the tie itself is refused via [mixed_numeric_tie], the tiebreak just
   keeps the ranking total. *)
let cmp_in_class (a : lit) (b : lit) : int =
  match (a, b) with
  | LInt x, LInt y -> compare x y
  | (LInt _ | LFloat _), (LInt _ | LFloat _) ->
      let c = compare (num_val a) (num_val b) in
      if c <> 0 then c
      else
        compare
          (match a with LInt _ -> 0 | _ -> 1)
          (match b with LInt _ -> 0 | _ -> 1)
  | LStr x, LStr y -> compare x y
  | LDate x, LDate y -> (
      match (Relalg.Value.date_of_string x, Relalg.Value.date_of_string y) with
      | Some dx, Some dy -> compare dx dy
      | _ -> compare x y)
  | _ -> invalid_arg "cmp_in_class"

let cls = function LInt _ | LFloat _ -> 'n' | LStr _ -> 's' | LDate _ -> 'd'

(* Rank of each slot among the distinct values of its class. *)
let ranks (ls : lit list) : int list =
  let rank_in (c : char) (l : lit) : int =
    let distinct =
      List.sort_uniq cmp_in_class (List.filter (fun l' -> cls l' = c) ls)
    in
    let rec idx i = function
      | [] -> Relalg.Invariant.broken "Canon.ranks: a literal is missing from its own class"
      | d :: rest -> if cmp_in_class d l = 0 then i else idx (i + 1) rest
    in
    idx 0 distinct
  in
  List.map (fun l -> rank_in (cls l) l) ls

let order_pattern (ls : lit list) : string =
  String.concat ","
    (List.map2 (fun l r -> Printf.sprintf "%c%d" (cls l) r) ls (ranks ls))

let mixed_numeric_tie (ls : lit list) : bool =
  List.exists
    (fun a ->
      match a with
      | LInt _ ->
          List.exists
            (fun b ->
              match b with LFloat f -> num_val a = f | _ -> false)
            ls
      | _ -> false)
    ls

let sentinels (ls : lit list) : lit list =
  List.map2
    (fun l rank ->
      match l with
      | LInt _ -> LInt (grid_base + (rank * grid_step))
      | LFloat _ -> LFloat (float_of_int (grid_base + (rank * grid_step)) +. 0.5)
      | LStr _ -> LStr (Printf.sprintf "\x01?s%06d\x01" rank)
      | LDate _ -> LDate (Printf.sprintf "%04d-06-15" (5000 + rank)))
    ls (ranks ls)

(* The runtime value a literal binds to ([None]: unparseable date — the
   engine then prepares the query verbatim so the binder reports it). *)
let value_of_lit (l : lit) : Relalg.Value.t option =
  match l with
  | LInt n -> Some (Relalg.Value.Int n)
  | LFloat f -> Some (Relalg.Value.Float f)
  | LStr s -> Some (Relalg.Value.Str s)
  | LDate s -> Option.map (fun d -> Relalg.Value.Date d) (Relalg.Value.date_of_string s)

(* Exact-key component for non-parameterizable queries: the literal
   vector rendered injectively. *)
let signature (ls : lit list) : string =
  String.concat ","
    (List.map
       (function
         | LInt n -> "i" ^ string_of_int n
         | LFloat f -> Printf.sprintf "f%h" f
         | LStr s -> Printf.sprintf "s%S" s
         | LDate s -> Printf.sprintf "d%S" s)
       ls)
