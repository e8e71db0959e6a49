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

(* The clause traversal order — FROM (with ON conditions and derived
   queries inline), SELECT, WHERE, GROUP BY, HAVING, UNION ALL blocks,
   ORDER BY, LIMIT — is shared verbatim by [analyze] and
   [with_literals]: slot i in one is slot i in the other. *)

let analyze (q : Ast.query) : analysis =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let literals = ref [] in
  let opaque = ref [] in
  let nslot = ref 0 in
  let nalias = ref 0 in
  let fresh_alias () =
    incr nalias;
    Printf.sprintf "a%d" !nalias
  in
  let lift l =
    add (Printf.sprintf "?%d%s" !nslot (lit_tag l));
    incr nslot;
    literals := l :: !literals
  in
  let keep l =
    opaque := l :: !opaque;
    add
      (match l with
      | LInt n -> string_of_int n
      | LFloat f -> Printf.sprintf "%h" f
      | LStr s -> Printf.sprintf "%S" s
      | LDate s -> Printf.sprintf "date%S" s)
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
  let rec expr env ~lift:l (e : Ast.expr) =
    let sub = expr env ~lift:l in
    match e with
    | Ast.EInt n -> if l then lift (LInt n) else keep (LInt n)
    | Ast.EFloat f -> if l then lift (LFloat f) else keep (LFloat f)
    | Ast.EStr s -> if l then lift (LStr s) else keep (LStr s)
    | Ast.EDate s -> if l then lift (LDate s) else keep (LDate s)
    | Ast.EBool b -> add (if b then "true" else "false")
    | Ast.ENull -> add "null"
    | Ast.ECol (None, n) -> add ("col:" ^ n)
    | Ast.ECol (Some q, n) -> add (Printf.sprintf "col:%s.%s" (resolve env q) n)
    | Ast.EArith (o, a, b) ->
        add ("(" ^ arith_name o ^ " ");
        sub a;
        add " ";
        sub b;
        add ")"
    | Ast.ENeg a ->
        add "(neg ";
        sub a;
        add ")"
    | Ast.ECmp (o, a, b) ->
        add ("(" ^ cmp_name o ^ " ");
        sub a;
        add " ";
        sub b;
        add ")"
    | Ast.EAnd (a, b) ->
        add "(and ";
        sub a;
        add " ";
        sub b;
        add ")"
    | Ast.EOr (a, b) ->
        add "(or ";
        sub a;
        add " ";
        sub b;
        add ")"
    | Ast.ENot a ->
        add "(not ";
        sub a;
        add ")"
    | Ast.EIsNull (neg, a) ->
        add (if neg then "(isnotnull " else "(isnull ");
        sub a;
        add ")"
    | Ast.EBetween (neg, a, lo, hi) ->
        add (if neg then "(notbetween " else "(between ");
        sub a;
        add " ";
        sub lo;
        add " ";
        sub hi;
        add ")"
    | Ast.ELike (neg, a, pat) ->
        add (if neg then "(notlike " else "(like ");
        sub a;
        add (Printf.sprintf " %S)" pat)
    | Ast.EInList (neg, a, es) ->
        add (if neg then "(notin " else "(in ");
        sub a;
        List.iter
          (fun e ->
            add " ";
            sub e)
          es;
        add ")"
    | Ast.EInSub (neg, a, q) ->
        add (if neg then "(notinsub " else "(insub ");
        sub a;
        add " ";
        query env q;
        add ")"
    | Ast.EExists q ->
        add "(exists ";
        query env q;
        add ")"
    | Ast.EScalarSub q ->
        add "(scalar ";
        query env q;
        add ")"
    | Ast.EQuant (o, qu, a, q) ->
        add
          (Printf.sprintf "(%s%s " (cmp_name o)
             (match qu with Relalg.Algebra.Any -> "any" | Relalg.Algebra.All -> "all"));
        sub a;
        add " ";
        query env q;
        add ")"
    | Ast.ECase (branches, els) ->
        add "(case";
        List.iter
          (fun (c, v) ->
            add " [";
            sub c;
            add " ";
            sub v;
            add "]")
          branches;
        (match els with
        | Some e ->
            add " else ";
            sub e
        | None -> ());
        add ")"
    | Ast.EAgg (name, distinct, arg) ->
        add (Printf.sprintf "(agg:%s%s" name (if distinct then ":d" else ""));
        (match arg with
        | Some a ->
            add " ";
            sub a
        | None -> add " *");
        add ")"
  (* Serializes the item, extends the block scope.  ON conditions see
     the aliases accumulated so far plus the outer environment, exactly
     like SQL name resolution. *)
  and table_ref env scope tr =
    match tr with
    | Ast.TTable (t, alias) ->
        let canon = fresh_alias () in
        add (Printf.sprintf "(t:%s=%s)" t canon);
        (Option.value alias ~default:t, canon) :: scope
    | Ast.TDerived (q, alias) ->
        let canon = fresh_alias () in
        add "(d:";
        query env q;
        add ("=" ^ canon ^ ")");
        (alias, canon) :: scope
    | Ast.TJoin (l, jt, r, on) ->
        add (match jt with Ast.JInner -> "(join " | Ast.JLeft -> "(leftjoin ");
        let scope = table_ref env scope l in
        let scope = table_ref env scope r in
        add " on ";
        expr (scope :: env) ~lift:true on;
        add ")";
        scope
  and query env (q : Ast.query) =
    add "{from:";
    let scope = List.fold_left (fun sc tr -> table_ref env sc tr) [] q.from in
    let env' = scope :: env in
    add ";select:";
    if q.distinct then add "distinct ";
    List.iter
      (function
        | Ast.SStar -> add "*;"
        | Ast.SExpr (e, alias) ->
            expr env' ~lift:true e;
            (match alias with Some a -> add (Printf.sprintf "=%S" a) | None -> ());
            add ";")
      q.select;
    (match q.where with
    | Some e ->
        add ";where:";
        expr env' ~lift:true e
    | None -> ());
    if q.group_by <> [] then begin
      add ";group:";
      List.iter
        (fun e ->
          expr env' ~lift:false e;
          add ";")
        q.group_by
    end;
    (match q.having with
    | Some e ->
        add ";having:";
        expr env' ~lift:true e
    | None -> ());
    List.iter
      (fun uq ->
        add ";union:";
        query env uq)
      q.union_all;
    if q.order_by <> [] then begin
      add ";order:";
      List.iter
        (fun (e, desc) ->
          expr env' ~lift:false e;
          add (if desc then " desc;" else " asc;"))
        q.order_by
    end;
    (match q.limit with Some n -> add (Printf.sprintf ";limit:%d" n) | None -> ());
    add "}"
  in
  query [] q;
  { key = Buffer.contents buf; literals = List.rev !literals; opaque = List.rev !opaque }

exception Arity of int * int
(** [with_literals] received a vector whose length differs from the
    query's slot count — a caller bug, not a user error. *)

let with_literals (q : Ast.query) (ls : lit list) : Ast.query =
  let arr = Array.of_list ls in
  let i = ref 0 in
  let next () =
    if !i >= Array.length arr then raise (Arity (Array.length arr, !i + 1));
    let l = arr.(!i) in
    incr i;
    match l with
    | LInt n -> Ast.EInt n
    | LFloat f -> Ast.EFloat f
    | LStr s -> Ast.EStr s
    | LDate s -> Ast.EDate s
  in
  let rec expr ~lift (e : Ast.expr) : Ast.expr =
    let sub = expr ~lift in
    match e with
    | Ast.EInt _ | Ast.EFloat _ | Ast.EStr _ | Ast.EDate _ -> if lift then next () else e
    | Ast.EBool _ | Ast.ENull | Ast.ECol _ -> e
    | Ast.EArith (o, a, b) ->
        let a = sub a in
        Ast.EArith (o, a, sub b)
    | Ast.ENeg a -> Ast.ENeg (sub a)
    | Ast.ECmp (o, a, b) ->
        let a = sub a in
        Ast.ECmp (o, a, sub b)
    | Ast.EAnd (a, b) ->
        let a = sub a in
        Ast.EAnd (a, sub b)
    | Ast.EOr (a, b) ->
        let a = sub a in
        Ast.EOr (a, sub b)
    | Ast.ENot a -> Ast.ENot (sub a)
    | Ast.EIsNull (neg, a) -> Ast.EIsNull (neg, sub a)
    | Ast.EBetween (neg, a, lo, hi) ->
        let a = sub a in
        let lo = sub lo in
        Ast.EBetween (neg, a, lo, sub hi)
    | Ast.ELike (neg, a, pat) -> Ast.ELike (neg, sub a, pat)
    | Ast.EInList (neg, a, es) ->
        let a = sub a in
        Ast.EInList (neg, a, List.map sub es)
    | Ast.EInSub (neg, a, q) ->
        let a = sub a in
        Ast.EInSub (neg, a, query q)
    | Ast.EExists q -> Ast.EExists (query q)
    | Ast.EScalarSub q -> Ast.EScalarSub (query q)
    | Ast.EQuant (o, qu, a, q) ->
        let a = sub a in
        Ast.EQuant (o, qu, a, query q)
    | Ast.ECase (branches, els) ->
        let branches =
          List.map
            (fun (c, v) ->
              let c = sub c in
              (c, sub v))
            branches
        in
        Ast.ECase (branches, Option.map sub els)
    | Ast.EAgg (name, distinct, arg) -> Ast.EAgg (name, distinct, Option.map sub arg)
  and table_ref tr =
    match tr with
    | Ast.TTable _ -> tr
    | Ast.TDerived (q, alias) -> Ast.TDerived (query q, alias)
    | Ast.TJoin (l, jt, r, on) ->
        let l = table_ref l in
        let r = table_ref r in
        Ast.TJoin (l, jt, r, expr ~lift:true on)
  and query (q : Ast.query) : Ast.query =
    let from = List.map table_ref q.from in
    let select =
      List.map
        (function
          | Ast.SStar -> Ast.SStar
          | Ast.SExpr (e, alias) -> Ast.SExpr (expr ~lift:true e, alias))
        q.select
    in
    let where = Option.map (expr ~lift:true) q.where in
    let having = Option.map (expr ~lift:true) q.having in
    let union_all = List.map query q.union_all in
    { q with from; select; where; having; union_all }
  in
  let q' = query q in
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
