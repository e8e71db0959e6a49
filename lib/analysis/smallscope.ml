(* Bounded rule-soundness prover (small-scope checking, in the style of
   Cosette): for every registered rewrite rule, enumerate ALL databases
   with at most [k] rows per table over a tiny value domain (including
   NULLs for nullable columns), fire the rule everywhere its own
   precondition matches on a schema template, and check bag equivalence
   of the before/after trees by direct interpretation.

   The small-scope hypothesis is the argument for the bound: the
   rewrite identities in this engine (paper Sections 2-3) are built
   from per-row and per-group reasoning — join predicates see one row
   pair, groups are bags of rows — so a violation, if any, already
   shows up on a database with very few rows and values drawn from a
   domain just rich enough to exercise equality, inequality and NULL
   (two distinct values + NULL).  Every historical bug class the
   verifier knows about (lost padded rows, count-vs-NULL confusion on
   empty groups, duplicate (non-)preservation) manifests with k = 2.

   Templates live here, next to the rule registry consumers: a rule
   registered in [Optimizer.Search.rules_for] with no template below is
   reported as a failure, so adding a rule forces adding its proof
   obligation. *)

open Relalg
open Relalg.Algebra

(* ------------------------------------------------------------------ *)
(* The prover schema: four tiny tables exercising the static           *)
(* preconditions rules test — keys, NOT NULL, declared indexes.        *)
(*   s(sa int PRIMARY KEY, sb int NULL)                                *)
(*   r(rc int NOT NULL, rd int NULL)         -- keyless               *)
(*   t(te int NULL, tf int NULL)             -- keyless, all nullable *)
(*   u(ug int PRIMARY KEY, uh int NULL)      -- index target          *)
(* ------------------------------------------------------------------ *)

let prover_catalog () : Catalog.t =
  let open Value in
  let cat = Catalog.create () in
  Catalog.add_table cat
    { name = "s";
      columns = [ Catalog.col "sa" TInt; Catalog.col ~nullable:true "sb" TInt ];
      primary_key = [ "sa" ];
      indexes = []
    };
  Catalog.add_table cat
    { name = "r";
      columns = [ Catalog.col "rc" TInt; Catalog.col ~nullable:true "rd" TInt ];
      primary_key = [];
      indexes = []
    };
  Catalog.add_table cat
    { name = "t";
      columns = [ Catalog.col ~nullable:true "te" TInt; Catalog.col ~nullable:true "tf" TInt ];
      primary_key = [];
      indexes = []
    };
  Catalog.add_table cat
    { name = "u";
      columns = [ Catalog.col "ug" TInt; Catalog.col ~nullable:true "uh" TInt ];
      primary_key = [ "ug" ];
      indexes = []
    };
  cat

let scan (cat : Catalog.t) (name : string) : op * Col.t list =
  match Catalog.find_table cat name with
  | None -> failwith ("prover catalog has no table " ^ name)
  | Some def ->
      let cols =
        List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty) def.columns
      in
      (TableScan { table = name; cols }, cols)

(* ------------------------------------------------------------------ *)
(* Templates: one or more pattern trees per rule name, built so the    *)
(* rule's own precondition fires on them.                              *)
(* ------------------------------------------------------------------ *)

let eq a b = Cmp (Eq, ColRef a, ColRef b)
let gt0 a = Cmp (Gt, ColRef a, Const (Value.Int 0))
let sum_of c = { fn = Sum (ColRef c); out = Col.fresh "sm" Value.TFloat }

let templates_for (cat : Catalog.t) (rule : string) : (string * op) list =
  let t label o = (label, o) in
  (* common building blocks, fresh columns per template *)
  let s_r_join ?(kind = Inner) () =
    let s, scols = scan cat "s" and r, rcols = scan cat "r" in
    let sa = List.nth scols 0 and sb = List.nth scols 1 in
    let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
    (Join { kind; pred = eq sb rc; left = s; right = r }, sa, sb, rc, rd)
  in
  match rule with
  | "groupby-pull-above-join" ->
      (* S ⋈ (G R) with a key on S, both orientations *)
      let mk flip =
        let s, _ = scan cat "s" and r, rcols = scan cat "r" in
        let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
        let sb = List.nth (Op.schema s) 1 in
        let g = GroupBy { keys = [ rc ]; aggs = [ sum_of rd ]; input = r } in
        let left, right = if flip then (g, s) else (s, g) in
        Join { kind = Inner; pred = eq sb rc; left; right }
      in
      [ t "join s (groupby r)" (mk false); t "join (groupby r) s" (mk true) ]
  | "groupby-push-below-join" ->
      (* the three-condition push (3.1), plus the equated-column
         relaxation where the R-side predicate column is not grouped *)
      let j, sa, _, rc, rd = s_r_join () in
      let direct = GroupBy { keys = [ sa; rc ]; aggs = [ sum_of rd ]; input = j } in
      let j2, sa2, _, _, rd2 = s_r_join () in
      let equated = GroupBy { keys = [ sa2 ]; aggs = [ sum_of rd2 ]; input = j2 } in
      [ t "groupby (s join r), grouped join col" direct;
        t "groupby (s join r), equated join col" equated
      ]
  | "groupby-push-below-outerjoin" ->
      (* Section 3.2: every compensation class at once — NULL-padding
         suffices for sum, count-star compensates to 1, count(e) to 0 *)
      let j, sa, _, rc, rd = s_r_join ~kind:LeftOuter () in
      let aggs =
        [ sum_of rd;
          { fn = CountStar; out = Col.fresh "cstar" Value.TInt };
          { fn = Count (ColRef rd); out = Col.fresh "cnt" Value.TInt };
          { fn = Max (ColRef rd); out = Col.fresh "mx" Value.TInt }
        ]
      in
      [ t "groupby (s loj r)" (GroupBy { keys = [ sa; rc ]; aggs; input = j }) ]
  | "semijoin-below-groupby" | "semijoin-above-groupby" ->
      let mk kind above =
        let s, scols = scan cat "s" and r, rcols = scan cat "r" in
        let sa = List.hd scols in
        let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
        if above then
          GroupBy
            { keys = [ rc ];
              aggs = [ sum_of rd ];
              input = Join { kind; pred = eq rc sa; left = r; right = s }
            }
        else
          Join
            { kind;
              pred = eq rc sa;
              left = GroupBy { keys = [ rc ]; aggs = [ sum_of rd ]; input = r };
              right = s
            }
      in
      let above = rule = "semijoin-above-groupby" in
      [ t "semijoin" (mk Semi above); t "antijoin" (mk Anti above) ]
  | "filter-below-groupby" ->
      let r, rcols = scan cat "r" in
      let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
      [ t "filter (groupby r)"
          (Select (gt0 rc, GroupBy { keys = [ rc ]; aggs = [ sum_of rd ]; input = r }))
      ]
  | "filter-above-groupby" ->
      let r, rcols = scan cat "r" in
      let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
      [ t "groupby (filter r)"
          (GroupBy { keys = [ rc ]; aggs = [ sum_of rd ]; input = Select (gt0 rc, r) })
      ]
  | "eager-local-aggregate" ->
      (* every split in the local/global table of Section 3.3, including
         avg's composite (sum, count) decomposition *)
      let j, sa, _, _, rd = s_r_join () in
      let aggs =
        [ sum_of rd;
          { fn = CountStar; out = Col.fresh "cstar" Value.TInt };
          { fn = Count (ColRef rd); out = Col.fresh "cnt" Value.TInt };
          { fn = Avg (ColRef rd); out = Col.fresh "av" Value.TFloat };
          { fn = Min (ColRef rd); out = Col.fresh "mn" Value.TInt };
          { fn = Max (ColRef rd); out = Col.fresh "mx" Value.TInt }
        ]
      in
      [ t "groupby (s join r), all agg classes"
          (GroupBy { keys = [ sa ]; aggs; input = j })
      ]
  | "local-groupby-below-join" ->
      (* the local aggregate alone changes its own output; it is only
         sound under the recombining global GroupBy, so the template
         carries the whole eager stack *)
      let j, sa, _, _, rd = s_r_join () in
      let lsum = Col.fresh "lsum" Value.TFloat in
      let lg =
        LocalGroupBy { keys = [ sa ]; aggs = [ { fn = Sum (ColRef rd); out = lsum } ]; input = j }
      in
      [ t "groupby (localgroupby (s join r))"
          (GroupBy
             { keys = [ sa ];
               aggs = [ { fn = Sum (ColRef lsum); out = Col.fresh "gs" Value.TFloat } ];
               input = lg
             })
      ]
  | "local-groupby-collapse" ->
      (* one composition per class the rule knows: sum∘sum, sum∘count,
         sum∘count*, min∘min, max∘max — all over the same grouping key,
         so each global group holds exactly one partial row *)
      let r, rcols = scan cat "r" in
      let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
      let lsum = Col.fresh "lsum" Value.TFloat in
      let lcnt = Col.fresh "lcnt" Value.TInt in
      let lstar = Col.fresh "lstar" Value.TInt in
      let lmn = Col.fresh "lmn" Value.TInt in
      let lmx = Col.fresh "lmx" Value.TInt in
      let lg =
        LocalGroupBy
          { keys = [ rc ];
            aggs =
              [ { fn = Sum (ColRef rd); out = lsum };
                { fn = Count (ColRef rd); out = lcnt };
                { fn = CountStar; out = lstar };
                { fn = Min (ColRef rd); out = lmn };
                { fn = Max (ColRef rd); out = lmx }
              ];
            input = r
          }
      in
      [ t "groupby (same-key localgroupby r), all compositions"
          (GroupBy
             { keys = [ rc ];
               aggs =
                 [ { fn = Sum (ColRef lsum); out = Col.fresh "gsum" Value.TFloat };
                   { fn = Sum (ColRef lcnt); out = Col.fresh "gcnt" Value.TInt };
                   { fn = Sum (ColRef lstar); out = Col.fresh "gstar" Value.TInt };
                   { fn = Min (ColRef lmn); out = Col.fresh "gmn" Value.TInt };
                   { fn = Max (ColRef lmx); out = Col.fresh "gmx" Value.TInt }
                 ];
               input = lg
             })
      ]
  | "segment-apply-intro" ->
      (* X ⋈ G(X'): two isomorphic scans of r, the join equating the
         grouping column with its image, plus a residual comparison
         against the aggregate *)
      let x, xcols = scan cat "r" in
      let core, ccols = scan cat "r" in
      let rc = List.nth xcols 0 and rd = List.nth xcols 1 in
      let rc' = List.nth ccols 0 and rd' = List.nth ccols 1 in
      let mx = Col.fresh "mx" Value.TInt in
      let g =
        GroupBy { keys = [ rc' ]; aggs = [ { fn = Max (ColRef rd'); out = mx } ]; input = core }
      in
      [ t "r join (groupby r') on seg col"
          (Join
             { kind = Inner;
               pred = And (eq rc rc', Cmp (Lt, ColRef rd, ColRef mx));
               left = x;
               right = g
             })
      ]
  | "segment-apply-join-pushdown" ->
      (* build an introduced SegmentApply (via the intro rule itself),
         then join it with an unrelated table on a segmenting column *)
      let x, xcols = scan cat "r" in
      let core, ccols = scan cat "r" in
      let rc = List.nth xcols 0 and rd = List.nth xcols 1 in
      let rc' = List.nth ccols 0 and rd' = List.nth ccols 1 in
      let mx = Col.fresh "mx" Value.TInt in
      let g =
        GroupBy { keys = [ rc' ]; aggs = [ { fn = Max (ColRef rd'); out = mx } ]; input = core }
      in
      let j =
        Join
          { kind = Inner;
            pred = And (eq rc rc', Cmp (Le, ColRef rd, ColRef mx));
            left = x;
            right = g
          }
      in
      let sa =
        match Rules.Segment_apply.introduce j with
        | Some sa -> sa
        | None -> failwith "segment-apply-intro refused the pushdown template seed"
      in
      let tt, tcols = scan cat "t" in
      let te = List.hd tcols in
      [ t "(segmentapply) join t on seg col"
          (Join { kind = Inner; pred = eq rc te; left = sa; right = tt })
      ]
  | "join-enumerate" ->
      (* a 3-vertex chain (one plan per split), a block whose graph is
         disconnected (components joined by a cross product), an inner
         join into u's primary-key index (the probe wins on the empty
         statistics the prover costs with) and the index probe for a
         semijoin *)
      let chain =
        let j, _, _, _, rd = s_r_join () in
        let tt, tcols = scan cat "t" in
        Join { kind = Inner; pred = eq rd (List.hd tcols); left = j; right = tt }
      in
      let cross =
        let s, _ = scan cat "s" and r, rcols = scan cat "r" in
        let tt, tcols = scan cat "t" in
        Join
          { kind = Inner;
            pred = true_;
            left = s;
            right = Join { kind = Inner; pred = eq (List.nth rcols 1) (List.hd tcols); left = r; right = tt }
          }
      in
      let indexed kind =
        let s, scols = scan cat "s" and u, ucols = scan cat "u" in
        Join { kind; pred = eq (List.nth scols 1) (List.hd ucols); left = s; right = u }
      in
      [ t "(s join r) join t" chain;
        t "s cross (r join t)" cross;
        t "s join u on pk" (indexed Inner);
        t "s semijoin u on pk" (indexed Semi)
      ]
  | "oj-simplify" ->
      (* a null-rejecting filter above the outerjoin, directly and
         through a GroupBy *)
      let j, _, _, _, rd = s_r_join ~kind:LeftOuter () in
      let direct = Select (gt0 rd, j) in
      let j2, sa2, _, rc2, rd2 = s_r_join ~kind:LeftOuter () in
      let g =
        GroupBy { keys = [ sa2; rc2 ]; aggs = [ sum_of rd2 ]; input = j2 }
      in
      [ t "filter (s loj r)" direct; t "filter (groupby (s loj r))" (Select (gt0 rc2, g)) ]
  | "simplify" ->
      (* cleanup + heuristic pushdown: a movable filter above a join and
         stacked projections *)
      let j, _, _, _, rd = s_r_join () in
      let pushable = Select (gt0 rd, j) in
      let r, rcols = scan cat "r" in
      let rc = List.nth rcols 0 in
      let p1 = Col.fresh "p1" Value.TInt in
      let p2 = Col.fresh "p2" Value.TInt in
      let stacked =
        Project
          ( [ { expr = Arith (Add, ColRef p1, Const (Value.Int 1)); out = p2 } ],
            Project ([ { expr = ColRef rc; out = p1 } ], r) )
      in
      [ t "filter (s join r)" pushable; t "project (project r)" stacked ]
  | "groupby-eliminate-key" ->
      (* grouping on a derived key: directly on the primary key with
         every aggregate class (the rewrite substitutes a single-row
         expression per class), as DISTINCT over a key superset, and
         through the FD closure — the grouping column is merely
         *equated* to the key by a filter underneath *)
      let s, scols = scan cat "s" in
      let sa = List.nth scols 0 and sb = List.nth scols 1 in
      let aggs =
        [ sum_of sb;
          { fn = CountStar; out = Col.fresh "cstar" Value.TInt };
          { fn = Count (ColRef sb); out = Col.fresh "cnt" Value.TInt };
          { fn = Avg (ColRef sb); out = Col.fresh "av" Value.TFloat };
          { fn = Min (ColRef sb); out = Col.fresh "mn" Value.TInt };
          { fn = Max (ColRef sb); out = Col.fresh "mx" Value.TInt }
        ]
      in
      let direct = GroupBy { keys = [ sa ]; aggs; input = s } in
      let s2, scols2 = scan cat "s" in
      let sa2 = List.nth scols2 0 and sb2 = List.nth scols2 1 in
      let distinct = GroupBy { keys = [ sa2; sb2 ]; aggs = []; input = s2 } in
      let s3, scols3 = scan cat "s" in
      let sa3 = List.nth scols3 0 and sb3 = List.nth scols3 1 in
      let closure =
        GroupBy
          { keys = [ sb3 ];
            aggs = [ { fn = Min (ColRef sa3); out = Col.fresh "mn" Value.TInt } ];
            input = Select (eq sb3 sa3, s3)
          }
      in
      [ t "groupby s on pk, all agg classes" direct;
        t "distinct s on pk superset" distinct;
        t "groupby on column equated to pk (closure)" closure
      ]
  | "max1row-elide" ->
      (* inputs proven [_,1]: a ScalarAgg (exactly one row) and a
         primary-key point select (at most one row) *)
      let r, rcols = scan cat "r" in
      let rd = List.nth rcols 1 in
      let u, ucols = scan cat "u" in
      let ug = List.hd ucols in
      [ t "max1row (scalaragg r)" (Max1row (ScalarAgg { aggs = [ sum_of rd ]; input = r }));
        t "max1row (pk point select u)"
          (Max1row (Select (Cmp (Eq, ColRef ug, Const (Value.Int 0)), u)))
      ]
  | "semijoin-to-inner" ->
      (* the join predicate pins u's primary key to a left column, so
         each left row matches at most one u row; checked with a
         nullable and a non-nullable left join column *)
      let mk leftcol_idx =
        let s, scols = scan cat "s" and u, ucols = scan cat "u" in
        let lc = List.nth scols leftcol_idx and ug = List.hd ucols in
        Join { kind = Semi; pred = eq lc ug; left = s; right = u }
      in
      [ t "s semijoin u on nullable=pk" (mk 1); t "s semijoin u on pk=pk" (mk 0) ]
  | "outerjoin-prune" ->
      (* the projection above the outerjoin references only left
         columns, and the right side is key-unique per left row: the
         join can't drop rows (outer) nor duplicate them (key) *)
      let s, scols = scan cat "s" and u, ucols = scan cat "u" in
      let sa = List.nth scols 0 and sb = List.nth scols 1 in
      let ug = List.hd ucols in
      let p1 = Col.fresh "p1" Value.TInt and p2 = Col.fresh "p2" Value.TInt in
      [ t "project-left (s loj u on pk)"
          (Project
             ( [ { expr = ColRef sa; out = p1 };
                 { expr = Arith (Add, ColRef sb, Const (Value.Int 1)); out = p2 }
               ],
               Join { kind = LeftOuter; pred = eq sb ug; left = s; right = u } ))
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Database enumeration                                                *)
(* ------------------------------------------------------------------ *)

(* all rows over the per-column domains: {0, 1} plus NULL when the
   column is nullable *)
let rows_for (def : Catalog.table) : Value.t array list =
  let domain (c : Catalog.column) =
    let base = [ Value.Int 0; Value.Int 1 ] in
    if c.col_nullable then Value.Null :: base else base
  in
  List.fold_right
    (fun c acc ->
      List.concat_map (fun v -> List.map (fun row -> v :: row) acc) (domain c))
    def.columns [ [] ]
  |> List.map Array.of_list

(* multisets of at most [k] rows (order-insensitive: non-decreasing
   index sequences), keeping only those that respect the primary key *)
let multisets (def : Catalog.table) (k : int) : Value.t array list list =
  let rows = rows_for def in
  let rec combos pool len =
    if len = 0 then [ [] ]
    else
      match pool with
      | [] -> []
      | x :: xs -> List.map (fun c -> x :: c) (combos pool (len - 1)) @ combos xs len
  in
  let all = List.concat_map (fun n -> combos rows n) (List.init (k + 1) (fun i -> i)) in
  match def.primary_key with
  | [] -> all
  | pk ->
      let positions =
        List.map
          (fun name ->
            let rec idx i = function
              | [] -> failwith "pk column missing"
              | (c : Catalog.column) :: _ when c.col_name = name -> i
              | _ :: rest -> idx (i + 1) rest
            in
            idx 0 def.columns)
          pk
      in
      let key (row : Value.t array) = List.map (fun i -> row.(i)) positions in
      List.filter
        (fun rows ->
          let ks = List.map key rows in
          List.length (List.sort_uniq compare ks) = List.length ks)
        all

let tables_of (o : op) : string list =
  let acc = ref [] in
  let rec walk o =
    (match o with
    | TableScan { table; _ } -> if not (List.mem table !acc) then acc := table :: !acc
    | _ -> ());
    List.iter walk (Op.children o)
  in
  walk o;
  List.sort compare !acc

(* every assignment of a row multiset to each table, in increasing
   total-row order — the first failing database is then minimal *)
let databases (cat : Catalog.t) (tables : string list) (k : int) :
    (string * Value.t array list) list list =
  let per_table =
    List.map
      (fun name ->
        match Catalog.find_table cat name with
        | None -> failwith ("prover catalog has no table " ^ name)
        | Some def -> List.map (fun ms -> (name, ms)) (multisets def k))
      tables
  in
  let all =
    List.fold_right
      (fun choices acc ->
        List.concat_map (fun db -> List.map (fun c -> c :: db) choices) acc)
      per_table [ [] ]
  in
  let total db = List.fold_left (fun n (_, rows) -> n + List.length rows) 0 db in
  List.stable_sort (fun a b -> compare (total a) (total b)) all

(* ------------------------------------------------------------------ *)
(* Interpretation                                                      *)
(* ------------------------------------------------------------------ *)

let render_row (r : Value.t array) : string =
  String.concat "|"
    (Array.to_list
       (Array.map
          (function Value.Float f -> Printf.sprintf "%.6g" f | v -> Value.to_string v)
          r))

(* the bag an operator tree denotes on a database, as sorted rendered
   rows; executor failures become a distinguished bag so that a rewrite
   turning a working plan into a crashing one (or vice versa) counts as
   a counterexample *)
let interpret (cat : Catalog.t) (db : (string * Value.t array list) list) (o : op) :
    string list =
  try
    let store = Storage.Database.create cat in
    List.iter (fun (name, rows) -> Storage.Table.load (Storage.Database.table store name) rows) db;
    Storage.Database.build_declared_indexes store;
    let ctx = Exec.Executor.make_ctx store in
    let rows = Exec.Executor.run ctx o in
    List.sort compare (List.map render_row rows)
  with e -> [ "<executor error: " ^ Printexc.to_string e ^ ">" ]

let render_db (db : (string * Value.t array list) list) : string =
  String.concat "; "
    (List.map
       (fun (name, rows) ->
         Printf.sprintf "%s = {%s}" name
           (String.concat ", "
              (List.map
                 (fun r ->
                   "("
                   ^ String.concat ", " (Array.to_list (Array.map Value.to_string r))
                   ^ ")")
                 rows)))
       db)

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type rule_spec = {
  sp_rule : Optimizer.Search.rule;
  sp_templates : (string * op) list;  (** (label, pattern tree) *)
}

type counterexample = {
  cx_template : string;
  cx_db : string;  (** the minimal database, rendered *)
  cx_before : op;
  cx_after : op;
  cx_before_bag : string list;
  cx_after_bag : string list;
  cx_total_rows : int;
}

type report = {
  rp_rule : string;
  rp_templates : int;
  rp_firings : int;  (** distinct valid rewrites proven *)
  rp_databases : int;  (** databases interpreted *)
  rp_vacuous : string list;
      (** labels of templates on which the rule never fired — dead proof
          obligations worth tightening *)
  rp_counterexample : counterexample option;
}

let passed_report (r : report) =
  r.rp_counterexample = None && r.rp_firings > 0 && r.rp_templates > 0

let check_rule ?(k = 2) (cat : Catalog.t) (spec : rule_spec) : report =
  let firings = ref 0 and dbs_run = ref 0 and cx = ref None in
  let vacuous = ref [] in
  List.iter
    (fun (label, tmpl) ->
      if !cx = None then begin
        (match Verify.check tmpl with
        | [] -> ()
        | v :: _ ->
            failwith
              (Printf.sprintf "template %s for %s is malformed: %s" label
                 spec.sp_rule.name
                 (Verify.violation_to_string v)));
        let expect = Op.schema tmpl in
        (* fire the rule at every site; keep only structurally valid,
           schema-preserving products — the same gate the search applies *)
        let afters =
          List.filter_map
            (fun (f : Optimizer.Search.firing) ->
              match Verify.check ~expect_schema:expect f.result with
              | [] -> Some f.result
              | _ -> None)
            (Optimizer.Search.apply_everywhere_sites spec.sp_rule tmpl)
        in
        (* a rule may derive the same tree from several sites *)
        let afters =
          let seen = Hashtbl.create 4 in
          List.filter
            (fun a ->
              let c = Fingerprint.of_op a in
              if Hashtbl.mem seen c then false
              else begin
                Hashtbl.add seen c ();
                true
              end)
            afters
        in
        firings := !firings + List.length afters;
        if afters = [] then vacuous := label :: !vacuous;
        if afters <> [] then
          let tables = tables_of tmpl in
          (* afters may scan tables the template does not (none today,
             but keep the enumeration honest) *)
          let tables =
            List.sort_uniq compare (tables @ List.concat_map tables_of afters)
          in
          List.iter
            (fun db ->
              if !cx = None then begin
                incr dbs_run;
                let before_bag = interpret cat db tmpl in
                List.iter
                  (fun after ->
                    if !cx = None then
                      let after_bag = interpret cat db after in
                      if after_bag <> before_bag then
                        cx :=
                          Some
                            { cx_template = label;
                              cx_db = render_db db;
                              cx_before = tmpl;
                              cx_after = after;
                              cx_before_bag = before_bag;
                              cx_after_bag = after_bag;
                              cx_total_rows =
                                List.fold_left
                                  (fun n (_, rows) -> n + List.length rows)
                                  0 db
                            })
                  afters
              end)
            (databases cat tables k)
      end)
    spec.sp_templates;
  { rp_rule = spec.sp_rule.name;
    rp_templates = List.length spec.sp_templates;
    rp_firings = !firings;
    rp_databases = !dbs_run;
    rp_vacuous = List.rev !vacuous;
    rp_counterexample = !cx;
  }

(* ------------------------------------------------------------------ *)
(* The registry: every rule the optimizer can fire, plus the two       *)
(* whole-tree normalization passes, each with its proof obligations.   *)
(* ------------------------------------------------------------------ *)

let pass_rule name (f : op -> op) : Optimizer.Search.rule =
  Optimizer.Search.make_rule name (fun o -> let o' = f o in if o' = o then [] else [ o' ])

let builtin_specs () : Catalog.t * rule_spec list =
  let cat = prover_catalog () in
  let env = Catalog.props_env cat in
  let stats = Optimizer.Stats.create (Storage.Database.create cat) in
  let rules = Optimizer.Search.rules_for Optimizer.Config.full stats ~env in
  let rule_specs =
    List.map
      (fun (r : Optimizer.Search.rule) ->
        { sp_rule = r; sp_templates = templates_for cat r.name })
      rules
  in
  let passes =
    [ pass_rule "oj-simplify" Normalize.Oj_simplify.simplify;
      pass_rule "simplify" Normalize.Simplify.simplify
    ]
  in
  let pass_specs =
    List.map (fun r -> { sp_rule = r; sp_templates = templates_for cat r.Optimizer.Search.name }) passes
  in
  (cat, rule_specs @ pass_specs)

let check_all ?k () : report list =
  let cat, specs = builtin_specs () in
  List.map (check_rule ?k cat) specs

let report_to_string (r : report) : string =
  if r.rp_templates = 0 then
    Printf.sprintf "FAIL  %-28s no templates registered — add proof obligations in Smallscope.templates_for\n"
      r.rp_rule
  else
    match r.rp_counterexample with
    | None when r.rp_firings = 0 ->
        Printf.sprintf
          "FAIL  %-28s vacuous: no template produced a valid firing (%d templates)\n"
          r.rp_rule r.rp_templates
    | None ->
        let vac =
          match r.rp_vacuous with
          | [] -> ""
          | ls ->
              Printf.sprintf "  [%d vacuous: %s]" (List.length ls)
                (String.concat "; " ls)
        in
        Printf.sprintf "ok    %-28s %d rewrites over %d databases, %d templates%s\n"
          r.rp_rule r.rp_firings r.rp_databases r.rp_templates vac
    | Some cx ->
        Printf.sprintf
          "FAIL  %-28s COUNTEREXAMPLE (template %s, %d total rows)\n\
             database: %s\n\
           before:\n%s  bag: [%s]\n\
           after:\n%s  bag: [%s]\n"
          r.rp_rule cx.cx_template cx.cx_total_rows cx.cx_db
          (Pp.to_string cx.cx_before)
          (String.concat "; " cx.cx_before_bag)
          (Pp.to_string cx.cx_after)
          (String.concat "; " cx.cx_after_bag)

let passed (rs : report list) = List.for_all passed_report rs

(* Aggregate coverage over a whole prover run: how much of the rewrite
   surface the small-scope sweep actually exercised.  Written verbatim
   to the CI artifact so a coverage regression (a rule going vacuous, a
   database count collapsing) is visible in the build output. *)
let coverage_to_string (rs : report list) : string =
  let buf = Buffer.create 512 in
  let sum f = List.fold_left (fun n r -> n + f r) 0 rs in
  let vacuous = sum (fun r -> List.length r.rp_vacuous) in
  Buffer.add_string buf
    (Printf.sprintf
       "prover coverage: %d rules, %d templates (%d vacuous), %d proven rewrites, %d databases interpreted\n"
       (List.length rs)
       (sum (fun r -> r.rp_templates))
       vacuous
       (sum (fun r -> r.rp_firings))
       (sum (fun r -> r.rp_databases)));
  Buffer.add_string buf
    (Printf.sprintf "%-28s %9s %8s %9s %8s  %s\n" "rule" "templates" "firings"
       "databases" "vacuous" "status");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %9d %8d %9d %8d  %s\n" r.rp_rule r.rp_templates
           r.rp_firings r.rp_databases
           (List.length r.rp_vacuous)
           (if passed_report r then "ok" else "FAIL")))
    rs;
  Buffer.contents buf
